"""gesdd's direct path in stages, so a low-rank step builds only the singular
vectors that its shrink keeps.

LAPACK's ?gesdd factors a matrix that is not much taller than wide or much
wider than tall, and whose largest modulus needs no scaling, in three
stages: a Householder bidiagonalization (?gebrd), the divide-and-conquer SVD
of the real bidiagonal (dbdsdc; Gu & Eisenstat, SIAM J. Matrix Anal. Appl.
16, 1995), and the back-transform of all min(l, m) singular vectors by the
reflectors (?ormbr, ?unmbr).  factor makes gesdd's first two calls, with
workspace that gives the same blocking, so its singular values are
np.linalg.svd's bit for bit: on a copy of its matrix, or, as _factor, on a
Fortran-ordered matrix that its reflectors overwrite.  product makes the
third on the k leading singular vectors only and returns U_k diag(s_k) Vh_k.

The routines are the ILP64 ones of the LAPACK that numpy.linalg loads
(_blas.library()).  Where they are missing (Accelerate, for example),
direct() is False and callers keep np.linalg.svd.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import math

import numpy as np

from . import _blas

_INT = ctypes.c_int64

# Routine: (pointer arguments, hidden Fortran string lengths).
_SIGNATURES = {"dgebrd": (11, 0), "zgebrd": (11, 0), "dbdsdc": (14, 2),
               "dormbr": (14, 3), "zunmbr": (14, 3)}

# gesdd scales a matrix whose largest modulus lies outside [_SMALL, _BIG]:
# sqrt(dlamch('S')) / dlamch('P') and its inverse.
_SMALL = math.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps
_BIG = 1.0 / _SMALL


@functools.cache
def routines():
    """The LAPACK routines by name, or None if any is missing."""
    lib = _blas.library()
    if lib is None:
        return None
    found = {}
    for name, (pointers, strings) in _SIGNATURES.items():
        for symbol in (f"scipy_{name}_64_", f"{name}_64_"):
            routine = getattr(lib, symbol, None)
            if routine is not None:
                break
        else:
            return None
        routine.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * strings
        routine.restype = None
        found[name] = routine
    return found


def direct(stack):
    """True when gesdd would bidiagonalize every matrix of an (p, l, m)
    stack as it is: neither side reaches gesdd's QR (LQ) threshold,
    floor(11 min/6) for real matrices and floor(17 min/9) for complex
    ones, and each matrix's largest modulus needs no scaling."""
    if routines() is None:
        return False
    short, long_ = sorted(stack.shape[1:])
    if long_ >= (short * 17 // 9 if np.iscomplexobj(stack) else short * 11 // 6):
        return False
    top = np.abs(stack).max(axis=(1, 2))
    return bool(np.all((top >= _SMALL) & (top <= _BIG)))


# A matrix after gesdd's first two stages: the reflectors of ?gebrd (a, tauq,
# taup) and the singular vectors of the bidiagonal (u, vt).
Factored = collections.namedtuple("Factored", "a tauq taup u vt")


def _names(dtype):
    """(bidiagonalization, back-transform, P's transpose flag) for a dtype."""
    return ("zgebrd", "zunmbr", b"C") if dtype == np.complex128 else ("dgebrd", "dormbr", b"T")


def _call(name, *args):
    """Call a routine with Python ints by reference, arrays and None by
    address, then INFO and the hidden lengths of its character arguments.
    Raises numpy.linalg.LinAlgError unless INFO is 0."""
    info = _INT()
    pointers = [ctypes.byref(_INT(a)) if isinstance(a, int)
                else a.__array_interface__["data"][0] if isinstance(a, np.ndarray) else a
                for a in args]
    strings = [1] * sum(isinstance(a, bytes) for a in args)
    routines()[name](*pointers, ctypes.byref(info), *strings)
    if info.value:
        raise np.linalg.LinAlgError("SVD did not converge")


@functools.cache
def _gebrd_lwork(dtype, l, m):
    """?gebrd's optimal workspace.  gesdd gives it at least as much, and
    the blocking, and so the bits, depend on having it."""
    work = np.zeros(1, dtype)
    _call(_names(dtype)[0], l, m, None, l, None, None, None, None, work, -1)
    return int(work[0].real)


@functools.cache
def _mbr_lwork(dtype, l, m):
    """Workspace of both back-transforms of an l x m matrix, for any k."""
    _, name, trans = _names(dtype)
    r = min(l, m)
    q, p = np.zeros(1, dtype), np.zeros(1, dtype)
    _call(name, b"Q", b"L", b"N", l, r, m, None, l, None, None, l, q, -1)
    _call(name, b"P", b"R", trans, r, m, r, None, l, None, None, r, p, -1)
    return int(max(q[0].real, p[0].real))


def factor(a):
    """(s, f) of an l x m matrix on gesdd's direct path (see direct): its
    singular values, bit for bit those of np.linalg.svd(a), and its
    factored form for product.  a is left as it is.  Raises
    numpy.linalg.LinAlgError when a is not finite, where LAPACK would print
    an error."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("SVD did not converge")
    return _factor(np.array(a, np.result_type(a, np.float64), order="F"))


def _factor(x):
    """factor on a Fortran-ordered float64 or complex128 matrix x, which
    the reflectors overwrite and the factored form keeps.  x must be
    finite: the slice-SVD kernel stages only what direct's range test passed."""
    if x.dtype not in (np.float64, np.complex128) or not x.flags.f_contiguous:
        raise ValueError("_factor needs a Fortran-ordered float64 or complex128 matrix")
    l, m = x.shape
    r = min(l, m)
    s, e = np.empty(r), np.empty(max(r - 1, 1))
    tauq, taup = np.empty(r, x.dtype), np.empty(r, x.dtype)
    lwork = _gebrd_lwork(x.dtype, l, m)
    _call(_names(x.dtype)[0], l, m, x, l, s, e, tauq, taup, np.empty(lwork, x.dtype), lwork)
    u, vt = np.empty((r, r), order="F"), np.empty((r, r), order="F")
    _call("dbdsdc", b"U" if l >= m else b"L", b"I", r, s, e, u, r, vt, r, None, None,
          np.empty(3 * r * r + 4 * r), np.empty(8 * r, np.int64))
    return s, Factored(x, tauq, taup, u, vt)


def product(f, s, out=None):
    """(U_k * s) @ Vh_k in C order for the k = len(s) leading singular
    values of a factored matrix f: gesdd's back-transform on k singular
    vectors instead of min(l, m).  It is multiplied into out, an l x m
    array of f's dtype, if one is given; out may be f's own reflectors,
    which are read before it is written."""
    l, m = f.a.shape
    k, r = len(s), len(f.u)
    if k == 0:
        if out is None:
            return np.zeros((l, m), f.a.dtype)
        out[...] = 0
        return out
    _, name, trans = _names(f.a.dtype)
    lwork = _mbr_lwork(f.a.dtype, l, m)
    work = np.empty(lwork, f.a.dtype)
    uk = np.zeros((l, k), f.a.dtype, order="F")
    uk[:r] = f.u[:, :k]
    _call(name, b"Q", b"L", b"N", l, k, m, f.a, l, f.tauq, uk, l, work, lwork)
    vk = np.zeros((k, m), f.a.dtype, order="F")
    vk[:, :r] = f.vt[:k]
    _call(name, b"P", b"R", trans, k, m, r, f.a, l, f.taup, vk, k, work, lwork)
    uk *= s
    return np.matmul(uk, vk, out=out)
