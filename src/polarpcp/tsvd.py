"""Transform-parameterized tensor singular value decomposition.

The t-SVD transforms every tube, SVDs each frontal slice, and inverse
transforms the factors.  The transform, a Kronecker product of DFT and
skew-DFT factors, determines the algebra, the tensor product of its
factors' algebras: a DFT factor of length f gives the circulant product of
Z_f and a skew one the skew-circulant (planar) product.  So the tube DFT
gives the circulant (polar n-complex) product, the skew DFT the
skew-circulant one, and the DFT of a finite abelian group Z_f1 x ... x Z_fr
that group's algebra; the Walsh-Hadamard transform has every factor 2.
Every transform= takes a key of TubeTransform.NAMES ("dft" by default), a
tuple of (kind, k) factor pairs or a TubeTransform, which from_name resolves.

Every transform is applied in the eigenvalue convention (unnormalized
forward, exact inverse), which is the convention under which pointwise
products of slices equal the algebra's tube product with no extra scaling.
The unitary variant, the unnormalized matrix divided by sqrt(n), is exposed
through ``matrix()`` for analysis and tests.

tsvd and singular_moduli scale their input once, at their entry
(hypermatrix._scaled), so neither the transform nor the squares of the
singular values overflow or underflow, and scale S and the moduli back.

``TubeTransform`` (the transform seam and slice-SVD kernel), the blockwise
product ``t_matmul`` and ``t_conj_transpose`` are re-exported from ``hypermatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypermatrix import HyperMatrix, TubeTransform, _ldexp, _require, _scaled, promote_fields
from .hypermatrix import matmul as t_matmul, t_conj_transpose  # noqa: F401


@dataclass(frozen=True)
class TSVDFactors:
    """t-SVD factor triple with an f-diagonal middle factor.

    moduli holds singular_moduli of the factored tensor when tsvd built the
    factors, from the slice singular values it computed; None otherwise.
    For an l x m S, U is l x l and V m x m.  transform is any transform
    argument of the factors' tube length, kept as the TubeTransform that
    from_name resolves it to.  It is frozen: no assignment skips these
    checks.
    """

    U: HyperMatrix
    S: HyperMatrix
    V: HyperMatrix
    transform: TubeTransform
    moduli: np.ndarray | None = None

    def __post_init__(self):
        _require(HyperMatrix, U=self.U, S=self.S, V=self.V)
        if not self.U.n == self.S.n == self.V.n:
            raise ValueError(f"U, S and V must have one tube length, "
                             f"got {self.U.n}, {self.S.n} and {self.V.n}")
        l, m = self.S.shape
        for name, factor, size in (("U", self.U, l), ("V", self.V, m)):
            if factor.shape != (size, size):
                raise ValueError(f"{name} must be {size} x {size} for S of shape {l} x {m}, "
                                 f"got {factor.l} x {factor.m}")
        object.__setattr__(self, "transform", TubeTransform.from_name(self.transform, self.U.n))


def tsvd(A, transform="dft"):
    """Decompose A = U * S * V^* in the transform's algebra.

    Each transform-domain slice is SVD'd with descending singular values and
    the tubes are paired by index across slices.  For real-field input the
    slice-SVD kernel's conjugate pairing makes the factors come out real.
    """
    _require(HyperMatrix, A=A)
    T = TubeTransform.from_name(transform, A.n)
    A, e = _scaled(A, "t-SVD input")
    l, m, n = A.data.shape
    Uh, s, Vh = T.slice_svd(T.hat_state(A))
    # Each stack is freed before the next is built; Vh is conjugated in place.
    U = T.unhat(Uh, A.field)
    del Uh
    V = T.unhat(np.transpose(np.conj(Vh, out=Vh), (0, 2, 1)), A.field)
    del Vh
    Sh = np.zeros((n, l, m), dtype=np.complex128)
    diag = np.arange(min(l, m))
    Sh[:, diag, diag] = s
    S = HyperMatrix(_ldexp(T.unhat(Sh, A.field).data, e), A.field)
    return TSVDFactors(U, S, V, T, _ldexp(_tube_moduli(s, n), e))


def singular_moduli(A, transform="dft"):
    """Moduli of the singular tubes, sorted descending (tsvd(A).moduli
    without the singular vectors)."""
    _require(HyperMatrix, A=A)
    T = TubeTransform.from_name(transform, A.n)
    A, e = _scaled(A, "t-SVD input")
    return _ldexp(_tube_moduli(T.slice_svd(T.hat_state(A), compute_uv=False), T.n), e)


def _tube_moduli(svals, n):
    """The i-th singular tube collects the i-th slice singular values of the
    (n, k) array svals, so its modulus is sqrt(sum_b sigma_i(slice_b)^2 / n);
    the squares sum to the squared Frobenius norm."""
    return np.sqrt((svals * svals).sum(axis=0) / n)


def reconstruct(F):
    """Multiply the factors back: U * S * V^* in the transform's algebra."""
    _require(TSVDFactors, F=F)
    T = F.transform
    Lh = T.hat(F.U) @ T.hat(F.S) @ np.conj(np.transpose(T.hat(F.V), (0, 2, 1)))
    field = promote_fields(promote_fields(F.U.field, F.S.field), F.V.field)
    return T.unhat(Lh, field)
