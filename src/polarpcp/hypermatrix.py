"""Matrices over the polar n-complex and n-bicomplex algebras.

The package's base module: it imports only _blas and _lapack of the
package, and holds the field vocabulary (REAL, COMPLEX), SINGULAR_RTOL and
every input check that public entries share.

An l x m hypercomplex matrix is stored as an (l, m, n) coefficient tensor
whose tube (i, k, :) holds the coefficients of entry A_ik.  The tube axis is
the fastest-varying one so tube DFTs stay cache-local.

The adjoint representation replaces each entry by its circulant matrix,
giving an ln x mn real or complex matrix that carries a ring isomorphism:
identity, sums, products, conjugate transpose and inverses all commute with
it.  The circulant Fourier transform (cft) block-diagonalizes the adjoint;
its frontal blocks are exactly the unnormalized tube DFT values, so the
matrix-free implementation is "transform every tube, regroup slices" and the
dense permutation/Kronecker construction survives only as a test oracle.
TubeTransform generalizes the tube DFT, the group DFT of Z_n, to every t-SVD
transform that is a Kronecker product of DFT and skew-DFT factors.  A
transform argument is a key of TubeTransform.NAMES, a tuple of (kind, k)
factor pairs or a TubeTransform of the tube length, and from_name alone
resolves it.  TubeTransform transforms the last axis, where the tubes
are, and is the one seam into the transform domain (hat, unhat), the owner
of the packed state of real tubes, which only hat_state and unhat_state
enter and leave, and the one slice-SVD kernel, which takes only packed
states.  A state knows its kind, real or complex tubes (see hat_state), and
a real-tube state's layout is one slot table built with the transform.
Every singular-tube shrink, in the solvers and in prox_trace, factors and
rebuilds a packed state (svd_state, compose_state).  A solve keeps its
state's matrices in a KernelBuffer, one allocation whose bytes are both the
kernel's stacks of Fortran-ordered matrices (kernel_buffer(...).parts) and a
C-ordered scratch state, so the kernel factors them where the solve wrote
them; compose_state multiplies each product straight into the state it
returns.  In both, one matrix is one task, and _blas.run_lanes decides where
it runs.  The forward transform runs in place in its output; hat_state
enters the transform domain through it, and unhat_state leaves it, in the
same ROW_BLOCKS blocks of rows (entry for real tubes only), so neither
builds a stack-sized temporary.  Only a shrink's thin factorizations are
staged: its matrices of at least _blas.LANE_MIN_WORK multiply-adds that
LAPACK's gesdd bidiagonalizes as they are run gesdd's own stages (_lapack),
numpy's singular values bit for bit and a back-transform of only the
singular vectors the shrink keeps.  Every other SVD is one np.linalg.svd
call per matrix: a shrink's smaller matrices, those past gesdd's QR
threshold or in need of scaling, and all of them on numpy builds without the
ILP64 routines; the values-only SVDs of a solve's set-up, of inv and of
spectral_norm, which read hat_state's packed state (a 1 x 1 matrix's inv
reads the moduli of its spectrum); and slice_svd's full factorizations of
the same packed state, through the same kernel, for the t-SVD and the
singular-tube moduli.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _blas, _lapack

REAL = "real"
COMPLEX = "complex"

# Relative threshold below which a spectrum value, or a singular value of
# inv's block spectrum, is treated as a zero divisor.
SINGULAR_RTOL = 1e-12

UNNORMALIZED = "unnormalized"
UNITARY = "unitary"

# Blocks of rows in which hat_state and unhat_state move a matrix into
# and out of the transform domain: a complex block is at most an eighth of
# a real-tube state.
ROW_BLOCKS = 16

# Bounds, both inclusive, on the largest magnitude of float64 values whose
# squares, and sums of many of them, neither overflow nor underflow.
SAFE_RANGE = (2.0**-400, 2.0**400)


def scale_exponent(a, what=None):
    """0 when top, the largest magnitude of a float64 array a or of the real
    and imaginary parts of a complex128 one, is in SAFE_RANGE, zero or not
    finite; otherwise the e for which top * 2^-e is in [1/2, 1).  It reads
    a matrix's coefficients, at the entry of a function (see _scaled).  Given
    what, a nan or inf top (only such a value gives one) is a ValueError naming it."""
    values = a.view(np.float64)
    top = max(values.max(), -values.min())
    if what is not None and not math.isfinite(top):
        raise ValueError(f"{what} contains non-finite values")
    return 0 if top == 0 or SAFE_RANGE[0] <= top <= SAFE_RANGE[1] else math.frexp(top)[1]


def _scaled(A, what=None):
    """(A * 2^-e, e) with the e of scale_exponent(A.data, what): A itself
    when e is 0, else a scaled copy.  Every function that reads a matrix's
    magnitude calls it once, at its entry, and runs on a matrix whose
    transforms, squares and sums of squares neither overflow nor
    underflow; every step commutes with a power-of-two scale, so it scales
    its result back by 2^e (2^-e for an inverse), exactly.  An entry that
    needs finite input passes what, its name, and the same read checks it."""
    e = scale_exponent(A.data, what)
    return (A if e == 0 else HyperMatrix(_ldexp(A.data.copy(), -e), A.field)), e


def _ldexp(a, e):
    """a * 2^e: a float for a float, and in place for a float64 or complex128
    array, which it returns.  A value past the largest float becomes inf."""
    if np.ndim(a) == 0:
        try:
            return math.ldexp(a, e)
        except OverflowError:
            return math.copysign(math.inf, a)
    with np.errstate(over="ignore"):
        flat = a.view(np.float64)
        np.ldexp(flat, e, out=flat)
    return a


def _is_int(value):
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(name, value, low):
    """int(value) for an integer >= low (see _is_int), else ValueError naming name."""
    if not _is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_real(name, value, interval):
    """float(value) for a real number in interval, "[0, 1]" or "(0, inf)":
    a bracket closes its end.  Else ValueError naming name: a bool, a
    non-real value (a str, a complex, None) and nan are in no interval."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (low <= value if interval[0] == "[" else low < value)
            or not (value <= high if interval[-1] == "]" else value < high)):
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return float(value)


def _check_field(field):
    if field not in (REAL, COMPLEX):
        raise ValueError(f"field must be {REAL!r} or {COMPLEX!r}, got {field!r}")
    return field


def promote_fields(a, b):
    """Real with real stays real; anything involving complex is complex."""
    return REAL if a == REAL and b == REAL else COMPLEX


def _require(cls, **arguments):
    """TypeError naming the first of the keyword arguments that is not a cls,
    a class or a tuple of classes."""
    for name, value in arguments.items():
        if not isinstance(value, cls):
            kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
            raise TypeError(f"{name} must be a {kinds}, not {type(value).__name__}")


# What open() takes as a path, but a file descriptor, which open() would close.
_PATH = (str, bytes, os.PathLike)


def _numeric(name, value):
    """np.asarray(value) if its dtype is numeric (integer, float or complex),
    else TypeError naming name and the dtype."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iufc":
        raise TypeError(f"{name} must be numeric, not {arr.dtype}")
    return arr


@dataclass(frozen=True, init=False, eq=False, repr=False)
class HyperMatrix:
    """l x m matrix of polar n-complex or n-bicomplex entries.  It is a
    frozen dataclass, so its data and field cannot be rebound and no
    assignment skips the constructor's checks; the coefficients in data may
    be written.  Pickle and copy restore the instance dict."""

    data: np.ndarray
    field: str

    def __init__(self, data, field=None):
        arr = _numeric("data", data)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError("data must have shape (l, m, n) with l, m, n >= 1")
        if field is None:
            field = COMPLEX if np.iscomplexobj(arr) else REAL
        _check_field(field)
        if field == REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0):
                    raise ValueError("real field requires zero imaginary parts")
                arr = arr.real
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        else:
            arr = np.ascontiguousarray(arr, dtype=np.complex128)
        vars(self).update(data=arr, field=field)

    @classmethod
    def zeros(cls, l, m, n, field=REAL):
        dtype = np.float64 if field == REAL else np.complex128
        return cls(np.zeros((l, m, n), dtype=dtype), field)

    @classmethod
    def identity(cls, m, n, field=REAL):
        out = cls.zeros(m, m, n, field)
        out.data[np.arange(m), np.arange(m), 0] = 1.0
        return out

    @property
    def l(self):
        return self.data.shape[0]

    @property
    def m(self):
        return self.data.shape[1]

    @property
    def n(self):
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape[:2]

    def copy(self):
        return HyperMatrix(self.data.copy(), self.field)

    def __repr__(self):
        return f"HyperMatrix(l={self.l}, m={self.m}, n={self.n}, field={self.field!r})"

    def _require_same_shape(self, other):
        if self.data.shape != other.data.shape:
            raise ValueError(f"shape mismatch: {self.data.shape} vs {other.data.shape}")

    def __add__(self, other):
        if not isinstance(other, HyperMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return HyperMatrix(self.data + other.data, promote_fields(self.field, other.field))

    def __sub__(self, other):
        if not isinstance(other, HyperMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return HyperMatrix(self.data - other.data, promote_fields(self.field, other.field))

    def __neg__(self):
        return HyperMatrix(-self.data, self.field)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, np.integer, np.floating)):
            return HyperMatrix(self.data * float(scalar), self.field)
        if isinstance(scalar, (complex, np.complexfloating)):
            return HyperMatrix(self.data.astype(np.complex128) * scalar, COMPLEX)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.__mul__(1.0 / scalar)

    def __matmul__(self, other):
        if not isinstance(other, HyperMatrix):
            return NotImplemented
        return matmul(self, other)

    def conj_transpose(self):
        """Entry (i, k) is the tube-DFT algebra conjugate of A_ki: t_conj_transpose(self)."""
        return t_conj_transpose(self)

    @property
    def H(self):
        return self.conj_transpose()


@dataclass(frozen=True)
class SpectralMatrix:
    """Transform-domain form of a hypercomplex matrix.

    blocks has shape (n, l, m): frontal slice b holds the b-th block of the
    block-diagonalized adjoint.  normalization records whether the values are
    the raw tube-DFT values ("unnormalized", the circulant eigenvalues) or
    divided by sqrt(n) ("unitary"), so downstream scalings are applied
    exactly once.  It is frozen: no assignment skips __post_init__'s checks.
    """

    blocks: np.ndarray
    normalization: str = UNNORMALIZED

    def __post_init__(self):
        blocks = np.asarray(_numeric("blocks", self.blocks), np.complex128)
        object.__setattr__(self, "blocks", blocks)
        if blocks.ndim != 3 or min(blocks.shape) < 1:
            raise ValueError("blocks must have shape (n, l, m) with n, l, m >= 1")
        if self.normalization not in (UNNORMALIZED, UNITARY):
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def n(self):
        return self.blocks.shape[0]

    @property
    def l(self):
        return self.blocks.shape[1]

    @property
    def m(self):
        return self.blocks.shape[2]


def _factor_matrix(kind, k):
    """Dense matrix of one factor, ("dft", k) or ("skew", k)."""
    j, i = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    if kind == "skew":
        return np.exp(-1j * math.pi * i * (2 * j + 1) / k)
    # Exact entries for k <= 2 so Walsh-Hadamard factors are exactly +-1.
    if k == 1:
        return np.array([[1.0 + 0j]])
    if k == 2:
        return np.array([[1.0 + 0j, 1.0 + 0j], [1.0 + 0j, -1.0 + 0j]])
    return np.exp(-2j * math.pi * j * i / k)


def _wht_factors(n):
    """The factors of the Walsh-Hadamard transform of length n, a power of
    two: every factor ("dft", 2), or the one factor ("dft", 1) at n = 1."""
    if n & (n - 1):
        raise ValueError(f"Walsh-Hadamard length must be a power of two, got {n}")
    return (("dft", 2),) * (n.bit_length() - 1) or (("dft", 1),)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TubeTransform:
    """Invertible tube transform defining a t-SVD algebra: the Kronecker
    product of its factors, each a DFT ("dft", k) or a skew DFT
    ("skew", k), in the transform t-product family of Kernfeld, Kilmer and
    Aeron (LAA 2015).  The tube DFT is the one factor ("dft", n), the skew
    DFT the one factor ("skew", n), the DFT of the group Z_f1 x ... x Z_fr
    the factors ("dft", f1), ..., ("dft", fr), and Walsh-Hadamard has every
    factor ("dft", 2).

    It is the one seam into the transform domain: hat and unhat move a
    matrix of tubes to and from its (n, l, m) slice stack, hat_state and
    unhat_state, the only ways into and out of a packed state, move a
    matrix straight to and from it, and one slice-SVD kernel factors the
    matrices of that state.  A state's kind, real or complex tubes, is read
    from its data (see hat_state).  The tubes are on the last axis of every
    array it transforms.  from_name resolves every transform argument: a
    key of NAMES or a tuple of factor pairs to one shared instance, built
    complete so lanes may share it, and a TubeTransform to itself.  It is a
    frozen dataclass whose tables are immutable, so no caller can change a
    shared instance; equality is identity.
    """

    factors: tuple

    # The transform names, each mapped to its factors as a function of n.
    NAMES = {"dft": lambda n: (("dft", n),),
             "skew-dft": lambda n: (("skew", n),),
             "wht": _wht_factors}

    # The shared instances that from_name returns, by factors.
    _shared = {}
    _shared_lock = threading.Lock()

    def __init__(self, factors):
        factors = self._check(factors)
        lengths = tuple(k for _, k in factors)
        n = math.prod(lengths)
        vars(self).update(factors=factors, _lengths=lengths, n=n)
        # The slot table of a real-tube state (see _slots), in the kernel's
        # order of matrices: the (source, partner) pairs of conjugate slices
        # in ascending partner order, then the self-paired planes (b,).
        pair = self.conjugate_pairing()
        multi = np.unravel_index(np.arange(n), lengths)
        source = np.ravel_multi_index([-i % k for i, k in zip(multi, lengths)], lengths)
        flips = sum((i > 0) & (kind == "skew") for i, (kind, _) in zip(multi, factors))
        negated = np.flatnonzero(flips % 2)
        source.flags.writeable = negated.flags.writeable = False
        vars(self).update(_real_slots=(tuple((int(pair[b]), b) for b in range(n) if pair[b] < b),
                                       tuple((b,) for b in range(n) if pair[b] == b)),
                          _conjugation=(source, negated))   # see t_conj_transpose

    @classmethod
    def _check(cls, factors):
        """factors, a non-empty tuple of ("dft" | "skew", k) pairs with each
        k an integer >= 1 and not a bool, with every k made an int."""
        if not isinstance(factors, tuple) or not factors or not all(
                isinstance(f, tuple) and len(f) == 2 and f[0] in ("dft", "skew") for f in factors):
            raise ValueError(f"transform factors {factors!r} must be a tuple of one or more "
                             f"(kind, length) pairs of kind 'dft' or 'skew'")
        return tuple((kind, _check_int("transform length", k, 1)) for kind, k in factors)

    @classmethod
    def dft(cls, n):
        """The tube DFT of length n: from_name("dft", n)."""
        return cls.from_name("dft", n)

    @classmethod
    def from_name(cls, name, n):
        """The transform of length n that name spells, a key of NAMES or a
        tuple of factor pairs (see _check), as its shared instance, or name
        itself for a TubeTransform of length n; another length is a
        ValueError naming both.  Every transform argument resolves here."""
        n = _check_int("transform length", n, 1)
        if isinstance(name, str) and name not in cls.NAMES:
            raise ValueError(f"unknown transform {name!r}")
        factors = name.factors if isinstance(name, cls) else cls._check(
            cls.NAMES[name](n) if isinstance(name, str) else name)
        product = math.prod(k for _, k in factors)
        if product != n:
            raise ValueError(f"transform {name} has product {product}, not the tube length {n}")
        if isinstance(name, cls):
            return name
        with cls._shared_lock:
            if factors not in cls._shared:
                cls._shared[factors] = cls(factors)
            return cls._shared[factors]

    def __repr__(self):
        return f"TubeTransform({self.factors})"

    def forward(self, x, out=None):
        """Apply the transform along the last axis (unnormalized values).
        They are computed in place in out, a C-ordered array of x's shape
        and of np.fft.fft's dtype for x, or in a new one: no other
        temporary of their size is made."""
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise ValueError(f"axis length {x.shape[-1]} != transform length {self.n}")
        if out is None:
            out = np.empty(x.shape, np.result_type(x.dtype, 1j))
        out[...] = x
        self._apply(out, inverse=False)
        return out

    def inverse(self, y):
        """Exact inverse of forward."""
        y = np.asarray(y)
        if y.shape[-1] != self.n:
            raise ValueError(f"axis length {y.shape[-1]} != transform length {self.n}")
        return self._apply(y, inverse=True)

    def _apply(self, x, inverse):
        """One np.fft.fft per factor (np.fft.ifft for the inverse), along
        its axis of the tubes, last factor first: the calls of np.fft.fftn,
        without its argument handling.  A skew factor of length k multiplies
        by its twiddle exp(-i pi j / k), j = 0..k-1, before the FFT.  The
        forward transform runs in place in x; the inverse runs into new
        arrays, and multiplies by the conjugate twiddle after the FFT."""
        y = x.reshape(x.shape[:-1] + self._lengths)
        for axis in range(-1, -len(self.factors) - 1, -1):
            kind, k = self.factors[axis]
            if kind == "skew":
                twiddle = np.exp(-1j * math.pi * np.arange(k) / k)
                twiddle = twiddle.reshape((k,) + (1,) * (-1 - axis))
                if not inverse:
                    y *= twiddle
            y = np.fft.ifft(y, axis=axis) if inverse else np.fft.fft(y, axis=axis, out=y)
            if kind == "skew" and inverse:
                y *= np.conj(twiddle)
        return y.reshape(x.shape)

    def matrix(self, normalization=UNNORMALIZED):
        """Dense transform matrix, the Kronecker product of the factors'
        matrices; "unitary" divides by sqrt(n)."""
        M = functools.reduce(np.kron, (_factor_matrix(*f) for f in self.factors))
        if normalization == UNITARY:
            return M / math.sqrt(self.n)
        if normalization == UNNORMALIZED:
            return M
        raise ValueError(f"unknown normalization {normalization!r}")

    def conjugate_pairing(self):
        """Slice involution pi with spectrum[pi[b]] = conj(spectrum[b]) for
        real-coefficient tubes: index i of a factor axis of length k maps to
        -i mod k on a DFT axis and to k-1-i on a skew one."""
        multi = np.unravel_index(np.arange(self.n), self._lengths)
        mirror = tuple(k - 1 - i if kind == "skew" else (-i) % k
                       for i, (kind, k) in zip(multi, self.factors))
        return np.ravel_multi_index(mirror, self._lengths)

    def hat(self, A):
        """(n, l, m) transform-domain slice stack of a HyperMatrix."""
        return np.moveaxis(self.forward(A.data), 2, 0)

    def hat_state(self, A):
        """The packed state of A's slice stack hat(A): what a solve iterates
        on and what the slice-SVD kernel factors.  It is built with no
        temporary of the stack's size: the mirror of unhat_state.  Its kind
        is A's field, and the state's dtype records it.

        For complex tubes the state is the complex128 stack itself, hat(A),
        whose transform is computed in place, so it keeps hat's memory
        layout, tubes last, and its reductions run in the same order.  For
        real tubes it is n float64 planes, as many as the coefficients: a
        self-paired slice is real and is one plane, and a slice with a
        partner keeps its real part in its own plane and its imaginary part
        in its partner's (under the DFT, the values of rfft).  The partner
        slices are dropped.  Norms of the state take the Parseval weights
        of weights(state).  A real-tube state is filled in ROW_BLOCKS
        blocks of rows, each transformed in one complex scratch block and
        packed straight into the state.  Each tube is transformed as in one
        call on the whole matrix, so the bits do not depend on the block
        size."""
        if A.field == COMPLEX:
            return self.hat(A)
        l, m, n = A.data.shape
        state = np.empty((n, l, m))
        scratch = np.empty((-(-l // ROW_BLOCKS), m, n), np.complex128)
        for rows in _row_slices(l):
            block = self.forward(A.data[rows], scratch[:rows.stop - rows.start])
            for slot in itertools.chain(*self._real_slots):
                for b, plane in _planes_of(block[..., slot[0]], slot):
                    state[b, rows] = plane.real
        return state

    def unhat(self, blocks, field):
        """HyperMatrix of the given field whose slice stack is blocks, which
        are taken as complex slices whatever their dtype."""
        return self.unhat_state(np.asarray(blocks, np.complex128), field)

    def unhat_state(self, state, field):
        """The HyperMatrix of the given field whose packed state (see
        hat_state) is state: the inverse of hat_state.  Float64 planes are
        a real-tube state and a complex128 stack a complex-tube one; field
        is only the output's, and a real field keeps the real part.  It is
        built in ROW_BLOCKS blocks of rows, so that neither the slice stack
        of a real-tube state nor the inverse transform of a stack is ever
        built whole; a real-tube block's slice stack is its kernel matrices
        (kernel_buffer(...).parts) expanded with the partner slices
        (_expand).  Each row's tubes are transformed as in one call on the
        whole stack, so the bits do not depend on the block size."""
        l, m = state.shape[1:]
        out = np.empty((l, m, self.n), np.float64 if field == REAL else np.complex128)
        for rows in _row_slices(l):
            blocks = state[:, rows]
            if not np.iscomplexobj(blocks):
                blocks = self._expand(self.kernel_buffer(blocks).parts)
            data = self.inverse(np.moveaxis(blocks, 0, 2))
            out[rows] = data.real if field == REAL else data
        return HyperMatrix(out, field)

    def _slots(self, stacks):
        """The planes of a state that each matrix of the kernel's stacks
        holds, per stack (see kernel_buffer): for complex tubes' one stack,
        (b,) for slice b; for real tubes' two, the slot table _real_slots:
        (b, p) for a slice b whose partner p is its conjugate, with its real
        part in plane b and its imaginary part in plane p, then (b,) for a
        self-paired plane b."""
        return self._real_slots if len(stacks) == 2 else [[(b,) for b in range(self.n)]]

    def weights(self, state):
        """Parseval weights of a state's planes and of the rows of its
        singular values: for a state of float64 planes, which is real
        tubes, or (None, None) for a complex slice stack.  A plane or row
        of a slice with a partner stands for the partner too, so it counts
        twice in a squared norm."""
        if np.iscomplexobj(state):
            return None, None
        pairs, planes = self._real_slots
        return (np.array([1.0 if (b,) in planes else 2.0 for b in range(self.n)]),
                np.array([2.0] * len(pairs) + [1.0] * len(planes)))

    def kernel_buffer(self, state):
        """A KernelBuffer that holds a copy of the packed state state, in
        the stacks of its kind: one for a complex128 slice stack, two for
        float64 planes.  Its parts are the matrices of the state that the
        slice-SVD kernel factors, complex ones first, in stacks of
        Fortran-ordered matrices that the kernel may overwrite: for complex
        tubes the slices, for real tubes the slices with a partner, rebuilt
        bit for bit from their two planes, then the self-paired planes."""
        n, l, m = state.shape
        if np.iscomplexobj(state):
            flat = np.empty(n * l * m, np.complex128)
            parts = [flat.reshape(n, m, l).transpose(0, 2, 1)]
        else:
            flat = np.empty(n * l * m)
            cut = 2 * len(self._real_slots[0]) * l * m
            parts = [flat[:cut].view(np.complex128).reshape(-1, m, l).transpose(0, 2, 1),
                     flat[cut:].reshape(-1, m, l).transpose(0, 2, 1)]
        planes = [None] * n
        for stack, stack_slots in zip(parts, self._slots(parts)):
            for matrix, slot in zip(stack, stack_slots):
                for b, plane in _planes_of(matrix, slot):
                    planes[b] = plane
                    plane[...] = state[b]
        return KernelBuffer(parts, planes, flat.reshape(state.shape))

    def _expand(self, parts):
        """The full stack of slices in the order of kernel_buffer's parts,
        or of their factors.  For real tubes, whose parts are two stacks,
        this is the one place a partner slice is filled, with the conjugate
        of its source."""
        if len(parts) == 1:
            return parts[0]
        paired, planes = parts
        out = np.empty((self.n,) + planes.shape[1:], np.result_type(paired, planes))
        for matrix, (b, p) in zip(paired, self._real_slots[0]):
            out[b], out[p] = matrix, np.conj(matrix)
        for matrix, (b,) in zip(planes, self._real_slots[1]):
            out[b] = matrix
        return out

    def _svd(self, parts, compute_uv, full_matrices=False):
        """The one slice-SVD kernel: the SVD of every matrix of the stacks
        in parts, complex stacks first.  Returns s, the (matrices, k)
        singular values in parts order, and with compute_uv the lists of
        the stacks' U and Vh before and after it.

        Every matrix is one task, factor(j, i), with a call of its own, so
        the result does not depend on the lane count.  _blas.run_lanes
        decides where the tasks run, from the work of one matrix; complex
        matrices come first: a real one costs about half a complex one.

        With thin factors asked for, a stack of matrices of at least
        _blas.LANE_MIN_WORK multiply-adds that gesdd factors without a QR
        step or scaling (_lapack.direct, whose range test no nan or inf
        passes) runs only gesdd's first two stages (_lapack._factor), in the
        matrices of parts, which a KernelBuffer holds for it (its parts):
        its U entry lists the matrices' factored forms and its Vh entry is
        None.  Its singular values are np.linalg.svd's bit for bit.
        """
        l, m = parts[0].shape[1:]
        k = min(l, m)
        s = np.empty((sum(len(p) for p in parts), k))
        rows = _row_blocks(s, parts)
        large = l * m * k >= _blas.LANE_MIN_WORK
        stages = [compute_uv and not full_matrices and large and len(p) > 0 and _lapack.direct(p)
                  for p in parts]
        outs = [(r,) for r in rows]
        if compute_uv:
            outs = [([None] * len(p), r, None) if in_stages
                    else (np.empty((len(p), l, l if full_matrices else k), p.dtype), r,
                          np.empty((len(p), m if full_matrices else k, m), p.dtype))
                    for p, r, in_stages in zip(parts, rows, stages)]

        def factor(j, i):
            x = parts[j][i]
            if stages[j]:
                rows[j][i], outs[j][0][i] = _lapack._factor(x)
                return
            # np.linalg.svd may never return on a non-finite matrix.
            if not np.isfinite(x).all():
                raise np.linalg.LinAlgError("SVD did not converge")
            res = np.linalg.svd(x, full_matrices=full_matrices, compute_uv=compute_uv)
            for dst, src in zip(outs[j], res if compute_uv else (res,)):
                dst[i] = src

        _blas.run_lanes([functools.partial(factor, j, i)
                         for j, p in enumerate(parts) for i in range(len(p))], l * m * k)
        if not compute_uv:
            return s
        return [out[0] for out in outs], s, [out[2] for out in outs]

    def svd_state(self, state, compute_uv=True):
        """Thin SVD of the matrices of a packed state (see hat_state): an
        array, whose matrices are copied for the kernel, or a KernelBuffer
        that holds the state in its stacks, which are factored where they
        are and may be overwritten.  slice_svd factors the same matrices
        and returns the full stack's factors.

        For real tubes, a state of float64 planes or a buffer of two
        stacks, the self-paired planes are factored as real matrices and
        each slice with a partner as one complex matrix.  U and Vh are lists
        with an entry per stack: for real tubes the paired slices', then
        the self-paired planes', and for complex tubes the slices'.  s has
        a row per matrix, whose Parseval weights are weights(state)[1].  An
        entry is a stack of np.linalg.svd's factors, or, for large matrices
        that _svd factors in stages, the list of their factored forms in U
        and None in Vh: compose_state then builds only the singular vectors
        that a shrink keeps.
        """
        parts = state.parts if isinstance(state, KernelBuffer) else self.kernel_buffer(state).parts
        return self._svd(parts, compute_uv)

    def compose_state(self, U, s, Vh):
        """State of the products U[b] diag(s[b]) Vh[b]: the inverse of
        svd_state, after a shrink of s.  Only the leading singular columns
        up to the last nonzero one enter the products, and real planes
        multiply as real matrices.  Factors of two stacks are real tubes',
        whose state is float64 planes, and of one stack complex tubes',
        whose state is their complex128 slice stack.  A product that is one
        plane of the state is multiplied straight into it; a paired slice's
        complex product is split into its two planes.

        Every product is one task, put(j, i).  A matrix factored in stages
        is rebuilt by _lapack.product from the singular vectors up to its
        own last nonzero value.  This consumes it: a paired slice's product
        is multiplied into the bytes of its own reflectors, which both
        back-transforms have read by then, and its factored form is dropped
        from U.  Any other matrix is np.matmul of its truncated factors.
        As in _svd, _blas.run_lanes decides where the tasks run, from the
        work of one matrix."""
        live = np.flatnonzero(s.any(axis=0))
        k = live[-1] + 1 if live.size else 0
        rows = _row_blocks(s[:, np.newaxis, :k], U)
        shape = U[0][0].a.shape if Vh[0] is None else (U[0].shape[1], Vh[0].shape[2])
        slots = self._slots(U)
        state = np.empty((self.n,) + shape, np.float64 if len(U) == 2 else np.complex128)

        def put(j, i):
            """Product i of stack j into its state plane, or for a paired
            slice into a new matrix, or a staged one's reflectors, and then
            its two planes."""
            slot, f = slots[j][i], U[j][i]
            out = state[slot[0]] if len(slot) == 1 else None
            if Vh[j] is None:
                U[j][i] = None
                # A shrunk row is non-negative and non-increasing: its live
                # values are its leading nonzero ones.
                row = rows[j][i, 0]
                if out is None:
                    out = f.a.T.reshape(shape)   # the reflectors' bytes in C order
                out = _lapack.product(f, row[:np.count_nonzero(row)], out)
            else:
                out = np.matmul(f[:, :k] * rows[j][i], Vh[j][i, :k, :], out=out)
            if len(slot) == 2:
                state[slot[0]], state[slot[1]] = out.real, out.imag

        _blas.run_lanes([functools.partial(put, j, i) for j, u in enumerate(U)
                         for i in range(len(u))], shape[0] * shape[1] * min(shape))
        return state

    def slice_svd(self, state, compute_uv=True):
        """SVD of every slice of the (n, l, m) slice stack of a packed state
        (see hat_state; its dtype is its kind), with full factors, shaped
        as np.linalg.svd's: the full-stack SVD of tsvd and
        singular_moduli.

        As in svd_state, the kernel factors the matrices of the state: for
        real tubes one slice of each conjugate pair (conjugate_pairing()),
        and a self-paired slice as a real matrix.  The partner slice gets
        the conjugated factors.
        """
        parts = self.kernel_buffer(state).parts
        res = self._svd(parts, compute_uv, full_matrices=True)
        U, s, Vh = res if compute_uv else (None, res, None)
        s = self._expand(_row_blocks(s, parts))
        return (self._expand(U), s, self._expand(Vh)) if compute_uv else s


# One allocation that holds a packed state (see TubeTransform.hat_state) in two
# layouts over the same bytes: parts, the slice-SVD kernel's stacks of
# Fortran-ordered matrices, complex stack first (see kernel_buffer), and
# scratch, a C-ordered (n, l, m) array.  planes[b] is the view of state
# plane b in parts, so a state is written into the stacks plane by plane and
# factored there by svd_state.  Writing through one layout garbles the
# other, and the kernel may overwrite parts.
KernelBuffer = collections.namedtuple("KernelBuffer", "parts planes scratch")


def _planes_of(matrix, slot):
    """(plane, view) pairs of a matrix that holds the state planes slot
    (see TubeTransform._slots)."""
    return zip(slot, (matrix.real, matrix.imag)) if len(slot) == 2 else [(slot[0], matrix)]


def _row_slices(l):
    """Slices of l rows in at most ROW_BLOCKS consecutive blocks, each but
    the last ceil(l / ROW_BLOCKS) rows long."""
    step = -(-l // ROW_BLOCKS) or 1
    return [slice(lo, min(lo + step, l)) for lo in range(0, l, step)]


def _row_blocks(x, stacks):
    """x's rows in consecutive blocks, one as long as each of the stacks."""
    ends = itertools.accumulate(len(a) for a in stacks)
    return [x[end - len(a):end] for a, end in zip(stacks, ends)]


def adjoint(A):
    """Dense ln x mn adjoint: block (i, k) is the circulant of entry A_ik."""
    _require(HyperMatrix, A=A)
    l, m, n = A.data.shape
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    blocks = A.data[:, :, idx]            # (l, m, n, n)
    out = np.transpose(blocks, (0, 2, 1, 3)).reshape(l * n, m * n)
    return out


def stride_permutation(m, s):
    """Index map of the stride-by-s permutation of order m.

    Returns f with f[i] = i*s - (m-1)*floor(i*s/m); applying the permutation
    to a vector x yields x[f].  Requires s to divide m (s = m is allowed).
    """
    if _check_int("m", m, 1) % _check_int("s", s, 1) != 0:
        raise ValueError(f"invalid stride permutation size: s={s} does not divide m={m}")
    i = np.arange(m)
    return i * s - (m - 1) * ((i * s) // m)


def cft(A, normalization=UNNORMALIZED):
    """Circulant Fourier transform: block-diagonalize the adjoint of A.

    Implemented matrix-free as the DFT hat of A; block b entry (i, k) equals
    fft(A.data[i, k, :])[b].  Under "unitary" the blocks are divided by
    sqrt(n).
    """
    _require(HyperMatrix, A=A)
    blocks = TubeTransform.dft(A.n).hat(A)
    if normalization == UNITARY:
        blocks = blocks / math.sqrt(A.n)
    return SpectralMatrix(blocks, normalization)


def icft(S, field):
    """Inverse circulant Fourier transform: the matrix of the given field
    whose cft is S; a real field keeps the real part, as unhat does."""
    _require(SpectralMatrix, S=S)
    blocks = S.blocks
    if S.normalization == UNITARY:
        blocks = blocks * math.sqrt(S.n)
    return TubeTransform.dft(S.n).unhat(blocks, field)


def matmul(A, B, transform="dft"):
    """Hypercomplex matrix product, computed blockwise in the transform domain.

    Under the default DFT, entry (i, k) equals sum_r A_ir * B_rk with the
    circular-convolution scalar product; another transform gives the product
    of its algebra.  The slices multiply directly because the transform
    diagonalizes the tube product.
    """
    _require(HyperMatrix, A=A, B=B)
    if A.m != B.l or A.n != B.n:
        raise ValueError(
            f"dimension mismatch: ({A.l}x{A.m}, n={A.n}) @ ({B.l}x{B.m}, n={B.n})"
        )
    T = TubeTransform.from_name(transform, A.n)
    return T.unhat(T.hat(A) @ T.hat(B), promote_fields(A.field, B.field))


def t_conj_transpose(A, transform="dft"):
    """Conjugate transpose in the transform's algebra, a signed permutation of
    the coefficients: on each factor axis of length k, coefficient i is the
    conjugate of coefficient -i mod k, negated once per skew axis where i > 0."""
    _require(HyperMatrix, A=A)
    source, negated = TubeTransform.from_name(transform, A.n)._conjugation
    data = np.conj(np.transpose(A.data, (1, 0, 2))[:, :, source])
    data[:, :, negated] = -data[:, :, negated]
    return HyperMatrix(data, A.field)


def inv(A):
    """Inverse of a square hypercomplex matrix, blockwise in the spectral domain.

    Raises numpy.linalg.LinAlgError when the pooled block spectrum is
    singular relative to its largest singular value, and ValueError when a
    coefficient is nan or infinite.
    """
    _require(HyperMatrix, A=A)
    if A.l != A.m:
        raise ValueError("matrix inverse requires a square matrix")
    A, e = _scaled(A, "matrix inverse input")
    T = TubeTransform.dft(A.n)
    hat = T.hat(A)
    # One scope for the SVDs and the block inverse, so that BLAS runs both
    # on one thread, whatever the caller's count.
    with _blas.owned_cores():
        if A.l == 1:   # 1 x 1 blocks: their singular values are their moduli
            svals = np.abs(hat)
        else:
            # A complex state is hat itself: reuse it rather than transform again.
            svals = T.svd_state(hat if A.field == COMPLEX else T.hat_state(A), compute_uv=False)
        if svals.min() <= SINGULAR_RTOL * svals.max():
            raise np.linalg.LinAlgError("hypercomplex matrix is singular")
        hat = np.linalg.inv(hat)
    return HyperMatrix(_ldexp(T.unhat(hat, A.field).data, -e), A.field)


def inner(A, B):
    """Frobenius inner product Re tr(A B*) = sum of Re(a conj(b)) over all
    coefficients; equals the dot product of the vec isomorphisms."""
    _require(HyperMatrix, A=A, B=B)
    A._require_same_shape(B)
    return float(np.real(np.sum(A.data * np.conj(B.data))))


def frobenius(A):
    """Frobenius norm: Euclidean norm of all coefficients."""
    _require(HyperMatrix, A=A)
    A, e = _scaled(A)
    return _ldexp(float(np.linalg.norm(A.data)), e)


def unfold(A):
    """Slab isomorphism xi: real field gives [I_0 | I_1 | ... | I_{n-1}]
    (l x mn); complex field interleaves real and imaginary slabs per
    coefficient (l x 2mn), the order of the coefficients read as float64
    values.  The result never shares memory with A."""
    _require(HyperMatrix, A=A)
    return np.transpose(A.data.view(np.float64), (0, 2, 1)).copy().reshape(A.l, -1)


def vec(A):
    """Column-major vectorization of unfold(A)."""
    return unfold(A).ravel(order="F")


def spectral_norm(A, transform="dft"):
    """Operator norm of the adjoint: the largest block singular value.

    With a non-default tube transform the blocks of that transform are used
    instead of the DFT blocks.  Raises ValueError on non-finite input.
    """
    _require(HyperMatrix, A=A)
    T = TubeTransform.from_name(transform, A.n)
    A, e = _scaled(A, "spectral_norm input")
    return _ldexp(float(T.svd_state(T.hat_state(A), compute_uv=False).max()), e)


def max_modulus(A):
    """Largest entry modulus, the hypercomplex max-norm."""
    _require(HyperMatrix, A=A)
    A, e = _scaled(A)
    squares = np.square(A.data.real)
    if np.iscomplexobj(A.data):
        squares += np.square(A.data.imag)
    mods = squares.sum(axis=2)
    return _ldexp(float(np.sqrt(mods, out=mods).max()), e)
