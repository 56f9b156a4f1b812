"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the package's fast paths:
convolutions are direct double loops, adjoints are assembled blockwise,
reference solvers are plain-numpy IALM, and the PHT codec formats and parses
one value at a time, so the library is checked against code that cannot
share its bugs.
"""

import os

import numpy as np

from polarpcp import COMPLEX, REAL, HyperMatrix, PhtFormatError, PolarScalar


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
