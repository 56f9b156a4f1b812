"""Matrices over the polar n-complex and n-bicomplex algebras.

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
TubeTransform generalizes the tube DFT to every t-SVD transform and is the
one seam into the transform domain (hat, unhat) and the one slice-SVD kernel.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _blas
from .hyperalgebra import COMPLEX, REAL, PolarScalar, _check_field, promote_fields

UNNORMALIZED = "unnormalized"
UNITARY = "unitary"

# Relative imaginary-part threshold under which an inverse transform is
# considered real-valued.
_REAL_DETECT_RTOL = 1e-10


class HyperMatrix:
    """l x m matrix of polar n-complex or n-bicomplex entries."""

    __slots__ = ("data", "field")

    def __init__(self, data, field=None):
        arr = np.asarray(data)
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
        self.data = arr
        self.field = field

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

    def entry(self, i, k):
        return PolarScalar(self.data[i, k], self.field)

    def copy(self):
        return HyperMatrix(self.data.copy(), self.field)

    def __repr__(self):
        return f"HyperMatrix(l={self.l}, m={self.m}, n={self.n}, field={self.field!r})"

    def _require_same_shape(self, other):
        if self.data.shape != other.data.shape:
            raise ValueError(
                f"shape mismatch: {self.data.shape} vs {other.data.shape}"
            )

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
        """Entry (i, k) of the result is the algebra conjugate of A_ki."""
        # Conjugation reverses the tube indices 1..n-1 and conjugates values.
        swapped = np.transpose(self.data, (1, 0, 2))
        flipped = np.roll(swapped[:, :, ::-1], 1, axis=2)
        return HyperMatrix(np.conj(flipped), self.field)

    @property
    def H(self):
        return self.conj_transpose()


@dataclass
class SpectralMatrix:
    """Transform-domain form of a hypercomplex matrix.

    blocks has shape (n, l, m): frontal slice b holds the b-th block of the
    block-diagonalized adjoint.  normalization records whether the values are
    the raw tube-DFT values ("unnormalized", the circulant eigenvalues) or
    divided by sqrt(n) ("unitary"), so downstream scalings are applied
    exactly once.
    """

    blocks: np.ndarray
    normalization: str = UNNORMALIZED

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=np.complex128)
        if self.blocks.ndim != 3 or min(self.blocks.shape) < 1:
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


DFT = "dft"
SKEW_DFT = "skew_dft"
GROUP_DFT = "group_dft"


def _dft_matrix(n):
    # Exact entries for n <= 2 so Walsh-Hadamard factors are exactly +-1.
    if n == 1:
        return np.array([[1.0 + 0j]])
    if n == 2:
        return np.array([[1.0 + 0j, 1.0 + 0j], [1.0 + 0j, -1.0 + 0j]])
    k, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * math.pi * k * i / n)


class _CallCounts(threading.local):
    forward = 0
    inverse = 0


class TubeTransform:
    """Invertible tube transform defining a t-SVD algebra.

    It is the one seam into the transform domain: hat and unhat move a
    matrix of tubes to and from its (n, l, m) slice stack, slice_svd
    factors such a stack and slice_compose multiplies the factors back.
    """

    __slots__ = ("kind", "n", "factors", "_splits")

    # Transform names accepted by from_name, mapped to the constructor.
    NAMES = {"dft": "dft", "skew-dft": "skew_dft", "skew_dft": "skew_dft",
             "wht": "walsh_hadamard"}

    # Call counters used by operation-count instrumentation tests.  They are
    # per thread, so a solve on one of run_grid's workers counts only its own.
    _counts = _CallCounts()

    def __init__(self, kind, n, factors=None):
        if kind not in (DFT, SKEW_DFT, GROUP_DFT):
            raise ValueError(f"unknown transform kind {kind!r}")
        if n < 1:
            raise ValueError("transform length must be >= 1")
        if kind == GROUP_DFT:
            factors = tuple(int(f) for f in (factors or ()))
            if not factors or any(f < 1 for f in factors) or math.prod(factors) != n:
                raise ValueError(
                    f"group_dft factors {factors} must be positive with product {n}"
                )
        elif factors is not None:
            raise ValueError(f"{kind} takes no factors")
        self.kind = kind
        self.n = n
        self.factors = factors
        self._splits = None

    @classmethod
    def dft(cls, n):
        return cls(DFT, n)

    @classmethod
    def skew_dft(cls, n):
        return cls(SKEW_DFT, n)

    @classmethod
    def group_dft(cls, factors):
        factors = tuple(int(f) for f in factors)
        return cls(GROUP_DFT, math.prod(factors), factors)

    @classmethod
    def walsh_hadamard(cls, n):
        """group_dft with all factors 2; n must be a power of two."""
        if n < 1 or n & (n - 1):
            raise ValueError(f"Walsh-Hadamard length must be a power of two, got {n}")
        return cls.group_dft((2,) * (n.bit_length() - 1)) if n > 1 else cls.group_dft((1,))

    @classmethod
    def from_name(cls, name, n):
        """Resolve a CLI-style transform name (a key of NAMES)."""
        if name not in cls.NAMES:
            raise ValueError(f"unknown transform {name!r}")
        return getattr(cls, cls.NAMES[name])(n)

    def __repr__(self):
        extra = f", factors={self.factors}" if self.factors else ""
        return f"TubeTransform({self.kind!r}, n={self.n}{extra})"

    def _skew_twiddle(self, ndim, axis):
        shape = [1] * ndim
        shape[axis] = self.n
        return np.exp(-1j * math.pi * np.arange(self.n) / self.n).reshape(shape)

    def forward(self, x, axis=-1):
        """Apply the transform along ``axis`` (unnormalized values)."""
        TubeTransform._counts.forward += 1
        x = np.asarray(x)
        if x.shape[axis] != self.n:
            raise ValueError(f"axis length {x.shape[axis]} != transform length {self.n}")
        if self.kind == DFT:
            return np.fft.fft(x, axis=axis)
        if self.kind == SKEW_DFT:
            return np.fft.fft(x * self._skew_twiddle(x.ndim, axis), axis=axis)
        return self._group_apply(x, axis, inverse=False)

    def inverse(self, y, axis=-1):
        """Exact inverse of forward."""
        TubeTransform._counts.inverse += 1
        y = np.asarray(y)
        if y.shape[axis] != self.n:
            raise ValueError(f"axis length {y.shape[axis]} != transform length {self.n}")
        if self.kind == DFT:
            return np.fft.ifft(y, axis=axis)
        if self.kind == SKEW_DFT:
            return np.fft.ifft(y, axis=axis) * np.conj(self._skew_twiddle(y.ndim, axis))
        return self._group_apply(y, axis, inverse=True)

    def _group_apply(self, x, axis, inverse):
        moved = np.moveaxis(x, axis, -1)
        lead = moved.shape[:-1]
        reshaped = moved.reshape(lead + self.factors)
        axes = tuple(range(len(lead), len(lead) + len(self.factors)))
        if inverse:
            out = np.fft.ifftn(reshaped, axes=axes)
        else:
            out = np.fft.fftn(reshaped, axes=axes)
        return np.moveaxis(out.reshape(moved.shape), -1, axis)

    def matrix(self, normalization=UNNORMALIZED):
        """Dense transform matrix; "unitary" divides by sqrt(n)."""
        n = self.n
        if self.kind == DFT:
            M = _dft_matrix(n)
        elif self.kind == SKEW_DFT:
            k, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            M = np.exp(-1j * math.pi * i * (2 * k + 1) / n)
        else:
            M = np.array([[1.0 + 0j]])
            for f in self.factors:
                M = np.kron(M, _dft_matrix(f))
        if normalization == UNITARY:
            return M / math.sqrt(n)
        if normalization == UNNORMALIZED:
            return M
        raise ValueError(f"unknown normalization {normalization!r}")

    def conjugate_pairing(self):
        """Slice involution pi with spectrum[pi[b]] = conj(spectrum[b]) for
        real-coefficient tubes."""
        n = self.n
        if self.kind == DFT:
            return (-np.arange(n)) % n
        if self.kind == SKEW_DFT:
            return n - 1 - np.arange(n)
        multi = np.unravel_index(np.arange(n), self.factors)
        neg = tuple((-ix) % f for ix, f in zip(multi, self.factors))
        return np.ravel_multi_index(neg, self.factors)

    def hat(self, A):
        """(n, l, m) transform-domain slice stack of a HyperMatrix."""
        return np.moveaxis(self.forward(A.data, axis=2), 2, 0)

    def unhat(self, blocks, field):
        """HyperMatrix of the given field whose slice stack is blocks."""
        data = self.inverse(np.moveaxis(blocks, 0, 2), axis=2)
        return HyperMatrix(data.real if field == REAL else data, field)

    def _split(self, real):
        """(factored, partners, sources, self_paired): the slices a stack
        computes, the slices filled with the conjugates of slices sources,
        and the mask of the slices that are their own partner.

        For real-coefficient tubes slice pair[b] is the conjugate of slice b
        (conjugate_pairing()), so only one slice of each pair is computed.
        Both splits are built on first use and kept read-only.
        """
        if self._splits is None:
            slots = np.arange(self.n)
            pair = self.conjugate_pairing()
            partners = np.flatnonzero(pair < slots)
            splits = ((slots, slots[:0], slots[:0], np.zeros(self.n, bool)),
                      (np.flatnonzero(pair >= slots), partners, pair[partners], pair == slots))
            for part in splits[0] + splits[1]:
                part.flags.writeable = False
            self._splits = splits
        return self._splits[bool(real)]

    def slice_svd(self, blocks, real, full_matrices=False, compute_uv=True):
        """SVD of every slice of an (n, l, m) stack, shaped as np.linalg.svd's.

        real=True states that the stack is the hat of real-coefficient tubes,
        so slice pair[b] is the conjugate of slice b (conjugate_pairing()).
        Only one slice of each pair is factored, the real part of a
        self-paired one, and the partner gets the conjugated factors.

        Slices of at least _blas.LANE_MIN_WORK multiply-adds are one task
        each for _blas.run_lanes, complex slices first: the tasks run on
        min(POLARPCP_THREADS, usable CPUs, tasks) lanes with BLAS on one
        thread, or serially inside run_grid's trials.  Smaller slices are
        factored on the calling thread in one batched call per kind, which
        costs less than one call per slice.  A batched call gives each slice
        the bits of a call of its own, so the result does not depend on the
        lane count.
        """
        n, l, m = blocks.shape
        k = min(l, m)
        out = [np.empty((n, k))]
        if compute_uv:
            out = [np.empty((n, l, l if full_matrices else k), np.complex128), out[0],
                   np.empty((n, m if full_matrices else k, m), np.complex128)]
        factored, partners, sources, self_paired = self._split(real)

        def factor(group):
            part = blocks[group].real if self_paired[group[0]] else blocks[group]
            res = np.linalg.svd(part, full_matrices=full_matrices, compute_uv=compute_uv)
            for dst, src in zip(out, res if compute_uv else (res,)):
                dst[group] = src

        # A real slice costs about half a complex one, so complex ones go first.
        groups = [g for g in (factored[~self_paired[factored]], factored[self_paired[factored]])
                  if len(g)]
        work = l * m * k
        if work >= _blas.LANE_MIN_WORK:
            groups = [g[i:i + 1] for g in groups for i in range(len(g))]
        with _blas.owned_cores():
            _blas.run_lanes([functools.partial(factor, g) for g in groups], work)
        for dst in out:
            dst[partners] = np.conj(dst[sources])
        return tuple(out) if compute_uv else out[0]

    def slice_compose(self, U, s, Vh, real):
        """Stack of U[b] diag(s[b]) Vh[b]: the inverse of slice_svd, after a
        shrink of s.

        Only the leading singular columns up to the last nonzero one enter
        the products, and for real-coefficient tubes only the factored slices
        are multiplied; their partners get the conjugates.
        """
        live = np.flatnonzero(s.any(axis=0))
        k = live[-1] + 1 if live.size else 0
        factored, partners, sources, _ = self._split(real)
        out = np.empty((s.shape[0], U.shape[1], Vh.shape[2]), np.result_type(U, Vh))
        out[factored] = (U[factored, :, :k] * s[factored, np.newaxis, :k]) @ Vh[factored, :k, :]
        out[partners] = np.conj(out[sources])
        return out

    def factored_slices(self, real):
        """Number of slices slice_svd factors per stack."""
        return len(self._split(real)[0])

    @classmethod
    def reset_call_counts(cls):
        cls._counts.forward = 0
        cls._counts.inverse = 0

    @classmethod
    def call_counts(cls):
        """(forward, inverse) calls made on the calling thread since its reset."""
        return cls._counts.forward, cls._counts.inverse


def adjoint(A):
    """Dense ln x mn adjoint: block (i, k) is the circulant of entry A_ik."""
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
    if m < 1 or s < 1 or m % s != 0:
        raise ValueError(f"invalid stride permutation size: m={m}, s={s}")
    i = np.arange(m)
    return i * s - (m - 1) * ((i * s) // m)


def cft(A, normalization=UNNORMALIZED):
    """Circulant Fourier transform: block-diagonalize the adjoint of A.

    Implemented matrix-free as the DFT hat of A; block b entry (i, k) equals
    fft(A.data[i, k, :])[b].  Under "unitary" the blocks are divided by
    sqrt(n).
    """
    if normalization not in (UNNORMALIZED, UNITARY):
        raise ValueError(f"unknown normalization {normalization!r}")
    blocks = TubeTransform.dft(A.n).hat(A)
    if normalization == UNITARY:
        blocks = blocks / math.sqrt(A.n)
    return SpectralMatrix(blocks, normalization)


def icft(S):
    """Inverse circulant Fourier transform.

    Returns a real-field matrix when the spectrum is conjugate-symmetric
    within tolerance (i.e. the inverse DFT is real), complex otherwise.
    """
    blocks = S.blocks
    if S.normalization == UNITARY:
        blocks = blocks * math.sqrt(S.n)
    out = TubeTransform.dft(S.n).unhat(blocks, COMPLEX)
    scale = np.abs(out.data).max()
    if np.abs(out.data.imag).max() <= _REAL_DETECT_RTOL * max(1.0, scale):
        return HyperMatrix(out.data.real, REAL)
    return out


def matmul(A, B, transform=None):
    """Hypercomplex matrix product, computed blockwise in the transform domain.

    Under the default DFT, entry (i, k) equals sum_r A_ir * B_rk with the
    circular-convolution scalar product; another transform gives the product
    of its algebra.  The slices multiply directly because the transform
    diagonalizes the tube product.
    """
    if A.m != B.l or A.n != B.n:
        raise ValueError(
            f"dimension mismatch: ({A.l}x{A.m}, n={A.n}) @ ({B.l}x{B.m}, n={B.n})"
        )
    T = transform or TubeTransform.dft(A.n)
    return T.unhat(T.hat(A) @ T.hat(B), promote_fields(A.field, B.field))


def inv(A):
    """Inverse of a square hypercomplex matrix, blockwise in the spectral domain.

    Raises numpy.linalg.LinAlgError when the pooled block spectrum is
    singular relative to its largest singular value.
    """
    if A.l != A.m:
        raise ValueError("matrix inverse requires a square matrix")
    T = TubeTransform.dft(A.n)
    hat = T.hat(A)
    svals = T.slice_svd(hat, A.field == REAL, compute_uv=False)
    if svals.min() <= 1e-12 * svals.max():
        raise np.linalg.LinAlgError("hypercomplex matrix is singular")
    return T.unhat(np.linalg.inv(hat), A.field)


def inner(A, B):
    """Frobenius inner product Re tr(A B*) = sum of Re(a conj(b)) over all
    coefficients; equals the dot product of the vec isomorphisms."""
    if A.data.shape != B.data.shape:
        raise ValueError(f"shape mismatch: {A.data.shape} vs {B.data.shape}")
    return float(np.real(np.sum(A.data * np.conj(B.data))))


def frobenius(A):
    """Frobenius norm: Euclidean norm of all coefficients."""
    return float(np.linalg.norm(A.data))


def unfold(A):
    """Slab isomorphism xi: real field gives [I_0 | I_1 | ... | I_{n-1}]
    (l x mn); complex field interleaves real and imaginary slabs per
    coefficient (l x 2mn)."""
    if A.field == REAL:
        return np.concatenate([A.data[:, :, t] for t in range(A.n)], axis=1)
    slabs = []
    for t in range(A.n):
        slabs.append(A.data[:, :, t].real)
        slabs.append(A.data[:, :, t].imag)
    return np.concatenate(slabs, axis=1)


def vec(A):
    """Column-major vectorization of unfold(A)."""
    return unfold(A).ravel(order="F")


def spectral_norm(A, transform=None):
    """Operator norm of the adjoint: the largest block singular value.

    With a non-default tube transform the blocks of that transform are used
    instead of the DFT blocks.
    """
    T = transform or TubeTransform.dft(A.n)
    return float(T.slice_svd(T.hat(A), A.field == REAL, compute_uv=False).max())


def max_modulus(A):
    """Largest entry modulus, the hypercomplex max-norm."""
    mods = np.sqrt((A.data.real**2 + A.data.imag**2).sum(axis=2))
    return float(mods.max())


def check_finite(A, what):
    """Raise ValueError when a coefficient of A is nan or infinite."""
    if not np.all(np.isfinite(A.data.view(np.float64))):
        raise ValueError(f"{what} contains non-finite values")
