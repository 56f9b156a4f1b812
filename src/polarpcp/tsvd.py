"""Transform-parameterized tensor singular value decomposition.

The t-SVD transforms every tube, SVDs each frontal slice, and inverse
transforms the factors.  The transform determines the algebra: the DFT gives
the circulant (polar n-complex) product, the skew DFT the skew-circulant
(planar) product, and Kronecker products of DFT matrices the commutative
group algebras (the Walsh-Hadamard transform when every factor is 2).

Every transform is applied in the eigenvalue convention (unnormalized
forward, exact inverse), which is the convention under which pointwise
products of slices equal the algebra's tube product with no extra scaling.
The unitary variant, the unnormalized matrix divided by sqrt(n), is exposed
through ``matrix()`` for analysis and tests.

``TubeTransform`` (the transform seam and slice-SVD kernel) and the blockwise
product ``t_matmul`` live in ``hypermatrix`` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyperalgebra import REAL, promote_fields
from .hypermatrix import DFT, GROUP_DFT, SKEW_DFT, HyperMatrix, TubeTransform, check_finite  # noqa: F401
from .hypermatrix import matmul as t_matmul  # noqa: F401


@dataclass
class TSVDFactors:
    """t-SVD factor triple with an f-diagonal middle factor.

    moduli holds singular_moduli of the factored tensor when tsvd built the
    factors, from the slice singular values it computed; None otherwise.
    """

    U: HyperMatrix
    S: HyperMatrix
    V: HyperMatrix
    transform: TubeTransform
    moduli: np.ndarray | None = None


def tsvd(A, transform=None):
    """Decompose A = U * S * V^* in the transform's algebra.

    Each transform-domain slice is SVD'd with descending singular values and
    the tubes are paired by index across slices.  For real-field input the
    slice-SVD kernel's conjugate pairing makes the factors come out real.
    """
    check_finite(A, "t-SVD input")
    T = transform or TubeTransform.dft(A.n)
    l, m, n = A.data.shape
    Uh, s, Vh = T.slice_svd(T.hat(A), A.field == REAL, full_matrices=True)
    Sh = np.zeros((n, l, m), dtype=np.complex128)
    diag = np.arange(min(l, m))
    Sh[:, diag, diag] = s
    V = T.unhat(np.conj(np.transpose(Vh, (0, 2, 1))), A.field)
    return TSVDFactors(T.unhat(Uh, A.field), T.unhat(Sh, A.field), V, T, _tube_moduli(s, n))


def singular_moduli(A, transform=None):
    """Moduli of the singular tubes, sorted descending (tsvd(A).moduli
    without the singular vectors)."""
    check_finite(A, "t-SVD input")
    T = transform or TubeTransform.dft(A.n)
    return _tube_moduli(T.slice_svd(T.hat(A), A.field == REAL, compute_uv=False), T.n)


def _tube_moduli(svals, n):
    """The i-th singular tube collects the i-th slice singular values of the
    (n, k) array svals, so its modulus is sqrt(sum_b sigma_i(slice_b)^2 / n);
    the squares sum to the squared Frobenius norm."""
    return np.sqrt((svals * svals).sum(axis=0) / n)


def reconstruct(F):
    """Multiply the factors back: U * S * V^* in the transform's algebra."""
    T = F.transform
    Lh = T.hat(F.U) @ T.hat(F.S) @ np.conj(np.transpose(T.hat(F.V), (0, 2, 1)))
    field = promote_fields(promote_fields(F.U.field, F.S.field), F.V.field)
    return T.unhat(Lh, field)


def t_conj_transpose(A, transform=None):
    """Conjugate transpose in the transform's algebra: slices are
    conjugate-transposed in the transform domain."""
    T = transform or TubeTransform.dft(A.n)
    return T.unhat(np.conj(np.transpose(T.hat(A), (0, 2, 1))), A.field)
