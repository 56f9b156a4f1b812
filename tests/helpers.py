"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the package's fast paths:
convolutions are direct double loops, adjoints are assembled blockwise,
reference solvers are plain-numpy IALM, and the PHT codec formats and parses
one value at a time, so the library is checked against code that cannot
share its bugs.  ialm_frequency_reference is the transform-domain IALM loop
as it stood before the solver variants shared one driver, on the full
complex slice stack; reference_slice_svd and reference_slice_compose are
the full-stack slice kernels it ran, as they stood before real tubes got a
packed state.  The driver must reproduce the loop bit for bit on complex
tubes and to 1e-12 relative on real ones.  reference_prox_trace is the
trace-norm prox on those full-stack kernels, as it stood before it ran on
the packed state, held to the same bars.  reference_prox_l1 is the l1
prox as it stood before it ran through tube_group_shrink, on a flat vector
of groups with np.add.reduceat; the package must stay within 1e-15
relative of it.  reference_svd_state and
reference_compose_state are the packed-state kernels as they stood before
large matrices were factored in stages; with the staged routines missing
the package must reproduce them bit for bit.  reference_parts,
reference_scatter and reference_unhat move a state between its layouts as
the package did before a solve kept its state in one kernel buffer and
left the transform domain a block of rows at a time; reference_hat and
reference_pack enter it as the package did before it entered a block of
rows at a time, with numpy's one-shot FFTs, and reference_unpack is the
whole slice stack of a state, which the package only builds a block of
rows at a time; reference_expand fills its partner slices.  They read
the layout of a real-tube state from reference_split, which builds it
from conjugate_pairing() alone.  ReferenceScalar is the standalone scalar
arithmetic that PolarScalar had before it became the 1 x 1 HyperMatrix.
raises_exactly expects an input check's exception type and message, and
run_python runs code that could hang in a subprocess under a timeout.
"""

import contextlib
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarpcp.hypermatrix as hm
from polarpcp import COMPLEX, REAL, HyperMatrix, PcpResult, PhtFormatError, PolarScalar, _blas
from polarpcp.hyperalgebra import AngleSet, SingularScalarError
from polarpcp.hypermatrix import SINGULAR_RTOL, _check_field, promote_fields
from polarpcp.prox import shrink_singular_values, tube_group_shrink
from polarpcp.simlab import embed, gen_low_rank_sparse


# Group-DFT factor pairs of the differential tests: Walsh-Hadamard for the
# powers of two, a mixed (("dft", 2), ("dft", 3)) group for n = 6.
GROUP_FACTORS = {n: tuple(("dft", k) for k in lengths) for n, lengths in
                 {1: (1,), 2: (2,), 3: (3,), 4: (2, 2), 5: (5,), 6: (2, 3), 7: (7,),
                  8: (2, 2, 2)}.items()}


def random_tube(rng, n, field):
    if field == REAL:
        return rng.standard_normal(n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_scalar(rng, n, field):
    return PolarScalar(random_tube(rng, n, field), field)


def random_hypermatrix(rng, l, m, n, field):
    if field == REAL:
        return HyperMatrix(rng.standard_normal((l, m, n)), field)
    data = rng.standard_normal((l, m, n)) + 1j * rng.standard_normal((l, m, n))
    return HyperMatrix(data, field)


def circ_conv(a, b):
    """Direct circular convolution (quadratic, no FFT)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    out = np.zeros(n, dtype=np.result_type(a, b))
    for i in range(n):
        for k in range(n):
            out[(i + k) % n] += a[i] * b[k]
    return out


def tube_product_direct(T, a, b):
    """Product of two tubes in the algebra that TubeTransform T
    diagonalizes, as a direct double loop: a tube index is a digit per
    factor axis, and the digits of a product add with a cyclic wrap on a
    DFT axis and a negacyclic one (e_i e_k = -e_{i+k-f} when i + k >= f) on
    a skew axis.  One DFT factor is cyclic convolution, one skew factor
    negacyclic convolution, and DFT factors f_1, ..., f_r convolution over
    the group Z_{f_1} x ... x Z_{f_r}."""
    a = np.asarray(a)
    b = np.asarray(b)
    kinds = [kind for kind, _ in T.factors]
    lengths = [f for _, f in T.factors]
    out = np.zeros(T.n, dtype=np.result_type(a, b))
    for i in range(T.n):
        for k in range(T.n):
            digits = np.add(np.unravel_index(i, lengths), np.unravel_index(k, lengths))
            wraps = sum(kind == "skew" and d >= f for kind, d, f in zip(kinds, digits, lengths))
            j = np.ravel_multi_index(tuple(digits % lengths), lengths)
            out[j] += (-1) ** wraps * a[i] * b[k]
    return out


def kronecker_transforms(max_n=8):
    """Every TubeTransform of length n <= max_n built from the raw
    constructor: each ordered factorization of n into lengths >= 2 (the
    length 1 for n = 1), with each factor a DFT or a skew DFT."""
    def factorizations(n):
        if n == 1:
            return [()]
        return [(d,) + rest for d in range(2, n + 1) if n % d == 0
                for rest in factorizations(n // d)]

    return [hm.TubeTransform(tuple(zip(kinds, lengths)))
            for n in range(1, max_n + 1)
            for lengths in (factorizations(n) if n > 1 else [(1,)])
            for kinds in itertools.product(("dft", "skew"), repeat=len(lengths))]


def hyper_matmul_direct(A, B):
    """Entrywise tube-convolution matrix product (no spectral shortcut)."""
    l, m = A.l, B.m
    dtype = np.complex128 if COMPLEX in (A.field, B.field) else np.float64
    data = np.zeros((l, m, A.n), dtype=dtype)
    for i in range(l):
        for k in range(m):
            for r in range(A.m):
                data[i, k] += circ_conv(A.data[i, r], B.data[r, k])
    return HyperMatrix(data)


def dense_permutation(index_map):
    return np.eye(index_map.size)[index_map]


def reference_pcp(X, lam, tol=1e-7, max_iters=1000, rho=1.5):
    """Plain-matrix IALM principal component pursuit (real or complex).

    Independent of the hypercomplex machinery; used to pin down the n = 1
    degeneration of the solvers.
    """
    X = np.asarray(X)
    norm2 = np.linalg.svd(X, compute_uv=False).max()
    Y = X / max(norm2, np.abs(X).max() / lam)
    S = np.zeros_like(X)
    mu = 1.25 / norm2
    Xnorm = np.linalg.norm(X)
    history = []
    for _ in range(max_iters):
        U, s, Vh = np.linalg.svd(X - S + Y / mu, full_matrices=False)
        s = np.maximum(s - 1.0 / mu, 0.0)
        L = (U * s) @ Vh
        Z = X - L + Y / mu
        mods = np.abs(Z)
        factor = np.zeros_like(mods)
        nz = mods > 0
        factor[nz] = np.maximum(1.0 - (lam / mu) / mods[nz], 0.0)
        S = Z * factor
        R = X - L - S
        Y = Y + mu * R
        r = np.linalg.norm(R) / Xnorm
        history.append(r)
        if r < tol:
            break
        mu *= rho
    return L, S, history


def _dual_scale(lam, specnorm, maxmod):
    return max(specnorm, maxmod / lam)


def _geometric(mu0, rho):
    mu = mu0
    while True:
        yield mu
        mu *= rho


def reference_split(T, real):
    """(factored, partners, sources, self_paired): the slices a stack
    computes, the slices filled with the conjugates of slices sources, in
    ascending order, and the mask of the slices that are their own partner.
    For real-coefficient tubes slice pair[b] is the conjugate of slice b
    (conjugate_pairing()), so only one slice of each pair is computed; for
    complex ones every slice is."""
    slots = np.arange(T.n)
    if not real:
        return slots, slots[:0], slots[:0], np.zeros(T.n, bool)
    pair = T.conjugate_pairing()
    partners = np.flatnonzero(pair < slots)
    return np.flatnonzero(pair >= slots), partners, pair[partners], pair == slots


def reference_slice_svd(T, blocks, real, full_matrices=False, compute_uv=True):
    """SVD of every slice of an (n, l, m) stack, shaped as np.linalg.svd's.

    real=True states that the stack is the hat of real-coefficient tubes,
    so slice pair[b] is the conjugate of slice b (conjugate_pairing()).
    Only one slice of each pair is factored, the real part of a
    self-paired one, and the partner gets the conjugated factors.  Each
    kind of slice, complex and self-paired, is factored in one batched
    call, which gives each slice the bits of a call of its own, with BLAS
    on one thread, as the package's kernel runs it.
    """
    n, l, m = blocks.shape
    k = min(l, m)
    out = [np.empty((n, k))]
    if compute_uv:
        out = [np.empty((n, l, l if full_matrices else k), np.complex128), out[0],
               np.empty((n, m if full_matrices else k, m), np.complex128)]
    factored, partners, sources, self_paired = reference_split(T, real)
    with _blas.owned_cores():
        for group in (factored[~self_paired[factored]], factored[self_paired[factored]]):
            if len(group):
                part = blocks[group].real if self_paired[group[0]] else blocks[group]
                res = np.linalg.svd(part, full_matrices=full_matrices, compute_uv=compute_uv)
                for dst, src in zip(out, res if compute_uv else (res,)):
                    dst[group] = src
    for dst in out:
        dst[partners] = np.conj(dst[sources])
    return tuple(out) if compute_uv else out[0]


def reference_slice_compose(T, U, s, Vh, real):
    """Stack of U[b] diag(s[b]) Vh[b]: the inverse of slice_svd, after a
    shrink of s.

    Only the leading singular columns up to the last nonzero one enter
    the products, and for real-coefficient tubes only the factored slices
    are multiplied; their partners get the conjugates.
    """
    live = np.flatnonzero(s.any(axis=0))
    k = live[-1] + 1 if live.size else 0
    factored, partners, sources, _ = reference_split(T, real)
    out = np.empty((s.shape[0], U.shape[1], Vh.shape[2]), np.result_type(U, Vh))
    out[factored] = (U[factored, :, :k] * s[factored, np.newaxis, :k]) @ Vh[factored, :k, :]
    out[partners] = np.conj(out[sources])
    return out


def reference_parts(T, state, real):
    """The kernel's stacks of a state, as TubeTransform._parts made them
    before they shared their bytes with a scratch state: complex matrices
    first, each stack of Fortran-ordered matrices."""
    def fortran_stack(count, dtype):
        return np.empty((count,) + state.shape[:0:-1], dtype).transpose(0, 2, 1)

    if not real:
        slices = fortran_stack(len(state), np.complex128)
        slices[...] = state
        return [slices]
    _, partners, sources, self_paired = reference_split(T, True)
    paired = fortran_stack(len(sources), np.complex128)
    paired.real, paired.imag = state[sources], state[partners]
    planes = fortran_stack(self_paired.sum(), np.float64)
    planes[...] = state[self_paired]
    return [paired, planes]


def reference_scatter(T, parts):
    """The real-tube state of reference_parts-ordered matrices."""
    _, partners, sources, self_paired = reference_split(T, True)
    paired, planes = parts
    state = np.empty((T.n,) + planes.shape[1:])
    state[sources], state[partners] = paired.real, paired.imag
    state[self_paired] = planes
    return state


def reference_svd_state(T, state, compute_uv=True):
    """TubeTransform.svd_state as it stood before large matrices were
    factored in stages: np.linalg.svd on every matrix of the state, or of
    the stacks of a solve's KernelBuffer, which it leaves as they are, in
    one batched call per stack with BLAS on one thread, as the package's
    kernel runs it.  A float64 state is real tubes' packed planes."""
    parts = (state.parts if isinstance(state, hm.KernelBuffer)
             else reference_parts(T, state, not np.iscomplexobj(state)))
    res = []
    with _blas.owned_cores():
        for p in parts:
            res.append(np.linalg.svd(p, full_matrices=False, compute_uv=compute_uv))
    if not compute_uv:
        return np.concatenate(res)
    U, s, Vh = zip(*res)
    return list(U), np.concatenate(s), list(Vh)


def reference_compose_state(T, U, s, Vh):
    """TubeTransform.compose_state as it stood before large matrices were
    factored in stages: one batched product per stack of factors, of which
    real tubes have two."""
    live = np.flatnonzero(s.any(axis=0))
    k = live[-1] + 1 if live.size else 0
    rows = hm._row_blocks(s[:, np.newaxis, :k], U)
    products = [(u[:, :, :k] * r) @ vh[:, :k, :] for u, r, vh in zip(U, rows, Vh)]
    return reference_scatter(T, products) if len(products) == 2 else products[0]


def low_rank_plus_sparse(rng, l, m, n, field, rank, density):
    """X = L + S with L of tube rank at most rank and S supported on about
    density of the entries."""
    U = random_hypermatrix(rng, l, rank, n, field)
    V = random_hypermatrix(rng, m, rank, n, field)
    L = U @ V.conj_transpose() * (1.0 / math.sqrt(l * m))
    mask = rng.random((l, m)) < density
    noise = random_hypermatrix(rng, l, m, n, field)
    S = HyperMatrix(noise.data * mask[:, :, None], field)
    return L + S, L, S


def scale_instance(embedding):
    """The 30x30 instance of the extreme-scale tests: two rank-2 matrices
    from seeds 0 and 1, embedded as a real 4-tube or a complex 2-tube."""
    (M1, _, _), (M2, _, _) = (gen_low_rank_sparse(30, 2, 0.05, seed) for seed in (0, 1))
    return embed(M1, M2, embedding)


def overflow_instance(embedding):
    """scale_instance(embedding) with its first tube set to four copies of
    its largest coefficient magnitude, and the k for which 2^k puts that
    coefficient in [2^1023, 2^1024).  The largest modulus of the scaled
    input, twice that coefficient, is then past the largest float."""
    X = scale_instance(embedding)
    coeffs = X.data.view(np.float64)
    top = np.abs(coeffs).max()
    coeffs.reshape(X.l, X.m, -1)[0, 0] = top
    return X, 1024 - math.frexp(top)[1]


def fft_overflow_instance():
    """A real 12x10x4 standard-normal matrix (seed 0) with its first tube
    set to four copies of its largest coefficient magnitude, scaled so that
    coefficient is 1.5 * 2^1022.  Every coefficient is finite, but the
    tube's first DFT value, 1.5 * 2^1024, overflows, and so do the first two
    singular-tube moduli: its Frobenius norm is past the largest float."""
    x = np.random.default_rng(0).standard_normal((12, 10, 4))
    top = np.abs(x).max()
    x[0, 0] = top
    return HyperMatrix(x * (1.5 * 2.0**1022 / top))


def fft_overflow_representable(l=12, m=10, field=REAL):
    """An l x m x 4 standard-normal matrix (seed 0, complex with standard-
    normal imaginary parts) scaled by 2^990, with its first tube set to four
    copies of 1.5 * 2^1022.  That tube's first DFT value, 1.5 * 2^1024,
    overflows, but the t-SVD factors and singular-tube moduli are finite."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((l, m, 4))
    if field == COMPLEX:
        x = x + 1j * rng.standard_normal(x.shape)
    x *= 2.0**990
    x[0, 0] = 1.5 * 2.0**1022
    return HyperMatrix(x, field)


def run_python(code, *args, flags=(), timeout=10):
    """python [flags] -c code args in a subprocess, with the package on
    PYTHONPATH and text output captured: for a call that could hang, which
    the timeout ends."""
    path = [str(Path(hm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))


def ldexp(A, k):
    """A * 2^k, with each real and imaginary part scaled exactly: a complex
    product with 2^k could change the sign of a zero."""
    return HyperMatrix(np.ldexp(A.data.view(np.float64), k).view(A.data.dtype), A.field)


def reference_hat(T, A):
    """TubeTransform.hat as it stood before its transform ran in place: the
    slice stack of numpy's one-shot FFTs of A's tubes over their factor
    axes, moved in front, after the axis of each skew factor of length f is
    multiplied by its twiddle exp(-i pi j / f)."""
    lengths = tuple(f for _, f in T.factors)
    grid = A.data.reshape(A.data.shape[:2] + lengths)
    for axis, (kind, f) in enumerate(T.factors):
        if kind == "skew":
            twiddle = np.exp(-1j * math.pi * np.arange(f) / f)
            grid = grid * twiddle.reshape((f,) + (1,) * (len(lengths) - 1 - axis))
    data = np.fft.fftn(grid, axes=tuple(range(2, grid.ndim))).reshape(A.data.shape)
    return np.moveaxis(data, 2, 0)


def reference_pack(T, blocks, real):
    """The packed state of a slice stack, built from reference_parts'
    layout: a paired slice's real part in its own plane and its imaginary
    part in its partner's."""
    if not real:
        return blocks
    _, _, sources, self_paired = reference_split(T, True)
    return reference_scatter(T, [blocks[sources], blocks[self_paired].real])


def reference_expand(T, parts):
    """The full stack of reference_parts-ordered slices, or of their
    factors: for real tubes, whose parts are two stacks, the partner slices
    are filled with the conjugates of their sources."""
    if len(parts) == 1:
        return parts[0]
    _, partners, sources, self_paired = reference_split(T, True)
    paired, planes = parts
    full = np.empty((T.n,) + planes.shape[1:], np.result_type(paired, planes))
    full[sources], full[partners], full[self_paired] = paired, np.conj(paired), planes
    return full


def reference_unpack(T, state, real):
    """The slice stack of a packed state, the inverse of reference_pack."""
    return reference_expand(T, reference_parts(T, state, True)) if real else state


def reference_unhat(T, blocks, field):
    """TubeTransform.unhat as it stood before it took blocks of rows: one
    inverse transform of the whole stack."""
    data = T.inverse(np.moveaxis(blocks, 0, 2))
    return HyperMatrix(data.real if field == REAL else data, field)


def factored_slices(T, real):
    """The matrices the slice-SVD kernel factors per state: one per slice
    for complex tubes, and for real tubes one per orbit of the conjugate
    pairing (a self-paired slice, or a slice and its partner)."""
    if not real:
        return T.n
    return int(np.count_nonzero(T.conjugate_pairing() >= np.arange(T.n)))


def reference_prox_trace(Z, lam, transform=None, counts=None):
    """Trace-norm prox on the full complex slice stack: grouped shrink of
    the singular tubes with the sqrt(n) factor of unnormalized transforms.
    Like the naive solver's low-rank step, it adds its two tube transforms
    and the matrices the kernel would factor to counts."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    T = transform or hm.TubeTransform.dft(Z.n)
    real = Z.field == REAL
    if counts is not None:
        counts.update(tube_transforms=2, slice_svds=factored_slices(T, real))
    U, s, Vh = reference_slice_svd(T, T.hat(Z), real)
    s2 = shrink_singular_values(s, lam * math.sqrt(Z.n), grouped=True)
    return reference_unhat(T, reference_slice_compose(T, U, s2, Vh, real), Z.field)


def reference_prox_l1(Z, lam):
    """Entrywise l1 prox on a flat vector: each entry's coefficients, read
    as float64 values, are one contiguous group, whose squared norm
    np.add.reduceat sums over the group offsets, and np.repeat spreads the
    factors (1 - lam/norm)_+ back over the groups.  No rescale."""
    values = Z.data.reshape(-1).view(np.float64)
    size = values.size // (Z.l * Z.m)
    norms = np.sqrt(np.add.reduceat(values * values, np.arange(Z.l * Z.m) * size))
    factors = np.zeros_like(norms)
    nz = norms > 0
    factors[nz] = np.maximum(1.0 - lam / norms[nz], 0.0)
    out = values * np.repeat(factors, size)
    return HyperMatrix(out.view(Z.data.dtype).reshape(Z.data.shape), Z.field)


def ialm_frequency_reference(X, cfg, grouped):
    """Transform-domain IALM with its own loop: grouped=True is polar PCP,
    grouped=False is tensor RPCA."""
    T = hm.TubeTransform.from_name(cfg.transform, X.n)
    real = X.field == REAL
    lam = cfg.lam(X)
    sqrt_n = math.sqrt(X.n)
    maxmod = hm.max_modulus(X)

    Xhat = T.hat(X)
    specnorm = float(reference_slice_svd(T, Xhat, real, compute_uv=False).max())
    Yhat = Xhat / _dual_scale(lam, specnorm, maxmod)   # Y_1 is proportional to X
    Shat = np.zeros_like(Xhat)
    Lhat = np.zeros_like(Xhat)
    Xnorm = np.linalg.norm(Xhat)

    mus = _geometric(1.25 / specnorm, cfg.rho_mu)
    history, mu_hist = [], []
    converged = False
    iterations = 0
    for mu in mus:
        if iterations >= cfg.max_iters:
            break
        iterations += 1
        Zhat = Xhat - Shat + Yhat / mu
        U, s, Vh = reference_slice_svd(T, Zhat, real)
        s = shrink_singular_values(s, (sqrt_n if grouped else 1.0) / mu, grouped)
        Lhat = reference_slice_compose(T, U, s, Vh, real)
        Shat = tube_group_shrink(Xhat - Lhat + Yhat / mu, lam * sqrt_n / mu)
        Rhat = Xhat - Lhat - Shat
        Yhat = Yhat + mu * Rhat
        r = float(np.linalg.norm(Rhat) / Xnorm)
        history.append(r)
        mu_hist.append(mu)
        if r < cfg.tol:
            converged = True
            break

    slices = factored_slices(T, real)
    return PcpResult(
        L=reference_unhat(T, Lhat, X.field),
        S=reference_unhat(T, Shat, X.field),
        iterations=iterations,
        residual_history=np.array(history),
        converged=converged,
        lam=lam,
        mu_history=np.array(mu_hist),
        stats={
            "slice_svds": slices * iterations,
            "setup_slice_svds": slices,
            "tube_transforms": 3,   # forward X, inverse L and S
        },
    )


def write_pht_per_value(A, path):
    """PHT v1 writer that formats one numpy scalar per line."""
    l, m, n = A.data.shape
    lines = [f"PHT 1 {l} {m} {n} {A.field}"]
    if A.field == REAL:
        for v in A.data.reshape(-1):
            lines.append(f"{v:.17g}")
    else:
        for v in A.data.reshape(-1):
            lines.append(f"{v.real:.17g} {v.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_pht_per_value(path):
    """PHT v1 reader that splits each line and parses it with float()."""
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        header = first.split()
        if len(header) != 6 or header[0] != "PHT" or header[1] != "1":
            raise PhtFormatError(f"bad PHT header in {path}")
        try:
            l, m, n = int(header[2]), int(header[3]), int(header[4])
        except ValueError as exc:
            raise PhtFormatError(f"bad PHT dimensions in {path}") from exc
        field = header[5]
        if field not in (REAL, COMPLEX) or min(l, m, n) < 1:
            raise PhtFormatError(f"bad PHT header in {path}")
        count = l * m * n
        width = 1 if field == REAL else 2
        if 2 * count * width - 1 > os.fstat(fh.fileno()).st_size - len(first):
            raise PhtFormatError(f"PHT header in {path} declares more values than the file holds")
        values = np.empty(count * width, dtype=np.float64)
        pos = 0
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != width or pos >= count * width:
                raise PhtFormatError(f"bad PHT data line in {path}: {line.strip()!r}")
            try:
                for p in parts:
                    values[pos] = float(p)
                    pos += 1
            except ValueError as exc:
                raise PhtFormatError(f"bad PHT data line in {path}: {line.strip()!r}") from exc
        if pos != count * width:
            raise PhtFormatError(
                f"wrong number of PHT data values in {path}: got {pos}, want {count * width}"
            )
    if field == REAL:
        data = values.reshape(l, m, n)
    else:
        data = values.view(np.complex128).reshape(l, m, n)
    return HyperMatrix(data, field)


class ReferenceScalar:
    """PolarScalar with its own field coercion, FFT product and inverse,
    conjugation flip and circulant index."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field=None):
        arr = np.asarray(coeffs)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a one-dimensional sequence with n >= 1 entries")
        if field is None:
            field = COMPLEX if np.iscomplexobj(arr) else REAL
        _check_field(field)
        if field == REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0):
                    raise ValueError("real field requires coefficients with zero imaginary part")
                arr = arr.real
            arr = arr.astype(np.float64)
        else:
            arr = arr.astype(np.complex128)
        self.coeffs = arr
        self.field = field

    @classmethod
    def unit(cls, n, k=0, field=REAL):
        """The basis element e_k of K_n or CK_n (e_0 is the identity)."""
        if not 0 <= k < n:
            raise ValueError(f"unit index {k} out of range for n={n}")
        coeffs = np.zeros(n, dtype=np.float64 if field == REAL else np.complex128)
        coeffs[k] = 1.0
        return cls(coeffs, field)

    @classmethod
    def one(cls, n, field=REAL):
        return cls.unit(n, 0, field)

    @property
    def n(self):
        return self.coeffs.size

    @property
    def spectrum(self):
        """Unnormalized DFT of the coefficient tube (circulant eigenvalues)."""
        return np.fft.fft(self.coeffs)

    def __repr__(self):
        return f"ReferenceScalar(n={self.n}, field={self.field!r}, coeffs={self.coeffs!r})"

    def _coerce(self, other):
        """Lift a plain number to this algebra, or return None."""
        if isinstance(other, (int, float, np.integer, np.floating)):
            return ReferenceScalar.unit(self.n, 0, self.field) * float(other)
        if isinstance(other, (complex, np.complexfloating)):
            coeffs = np.zeros(self.n, dtype=np.complex128)
            coeffs[0] = other
            return ReferenceScalar(coeffs, COMPLEX)
        return None

    def __add__(self, other):
        if not isinstance(other, ReferenceScalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")
        return ReferenceScalar(self.coeffs + other.coeffs, promote_fields(self.field, other.field))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ReferenceScalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return ReferenceScalar(-self.coeffs, self.field)

    def __mul__(self, other):
        if isinstance(other, ReferenceScalar):
            if other.n != self.n:
                raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")
            field = promote_fields(self.field, other.field)
            prod = np.fft.ifft(np.fft.fft(self.coeffs) * np.fft.fft(other.coeffs))
            return ReferenceScalar(prod.real if field == REAL else prod, field)
        if isinstance(other, (int, float, np.integer, np.floating)):
            return ReferenceScalar(self.coeffs * float(other), self.field)
        if isinstance(other, (complex, np.complexfloating)):
            return ReferenceScalar(self.coeffs.astype(np.complex128) * other, COMPLEX)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self):
        """Algebra conjugation: the circulant representation of the result is
        the conjugate transpose of this scalar's representation, i.e.
        coefficient i maps to conj(a_{(n-i) mod n})."""
        flipped = np.roll(self.coeffs[::-1], 1)
        return ReferenceScalar(np.conj(flipped), self.field)

    def modulus(self):
        """Euclidean norm of the coefficient tube."""
        return float(np.linalg.norm(self.coeffs))

    __abs__ = modulus

    def inverse(self):
        """Multiplicative inverse via the reciprocal spectrum.

        Raises SingularScalarError when any spectrum value has modulus at or
        below SINGULAR_RTOL times the largest one (zero divisors exist, e.g.
        1 + e_1 in K_2).
        """
        spec = np.fft.fft(self.coeffs)
        mags = np.abs(spec)
        if mags.min() <= SINGULAR_RTOL * mags.max():
            raise SingularScalarError(
                "scalar is singular: spectrum contains a (near-)zero value"
            )
        inv = np.fft.ifft(1.0 / spec)
        return ReferenceScalar(inv.real if self.field == REAL else inv, self.field)

    def to_circulant(self):
        """The n x n circulant matrix with entry (i, k) = a_{(i-k) mod n}."""
        n = self.n
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        return self.coeffs[idx]

    def angles(self):
        """Angular decomposition of a real-field scalar.

        Uses the unitary DFT A = fft(coeffs)/sqrt(n).  Azimuthal angles come
        from A_k = |A_k| exp(-j phi_k); planar angles are atan2(|A_1|, |A_k|);
        the polar angles are atan2(sqrt(2)|A_1|, A_0) and, for even n,
        atan2(sqrt(2)|A_1|, A_{n/2}).  Degenerate spectra fall back to the
        atan2 conventions (zero A_k gives phi_k = 0).
        """
        if self.field != REAL:
            raise ValueError("angles are defined for real-field scalars only")
        n = self.n
        A = np.fft.fft(self.coeffs) / math.sqrt(n)
        mags = np.abs(A)
        half = (n + 1) // 2
        a1 = mags[1] if n > 1 else 0.0
        azimuthal = np.array(
            [(-np.angle(A[k])) % (2 * math.pi) for k in range(1, half)], dtype=np.float64
        )
        planar = np.array(
            [math.atan2(a1, mags[k]) for k in range(2, half)], dtype=np.float64
        )
        polar_plus = math.atan2(math.sqrt(2) * a1, A[0].real)
        polar_minus = None
        if n % 2 == 0:
            polar_minus = math.atan2(math.sqrt(2) * a1, A[n // 2].real)
        return AngleSet(azimuthal, planar, polar_plus, polar_minus)


def reference_inner(p, q):
    """Scalar product Re(p conj(q)) = sum_i Re(a_i conj(b_i)).

    Real, symmetric, and bilinear over the reals; satisfies
    inner(p, p) == modulus(p)**2.
    """
    if not isinstance(p, ReferenceScalar) or not isinstance(q, ReferenceScalar):
        raise TypeError("inner expects two ReferenceScalar operands")
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: n={p.n} vs n={q.n}")
    return float(np.real(np.sum(p.coeffs * np.conj(q.coeffs))))


@contextlib.contextmanager
def raises_exactly(kind, message):
    """Expect an exception of type kind itself, not of a subclass, whose
    message is exactly message."""
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
        yield info
    assert info.type is kind
