"""Scalar arithmetic for the polar n-complex and n-bicomplex algebras.

A polar n-complex number is a tube of n real coefficients attached to the
cyclic units e_i e_k = e_{(i+k) mod n}; allowing complex coefficients gives
the polar n-bicomplex algebra.  Multiplication is circular convolution of
coefficient tubes, so every scalar is an n x n circulant, that is, a 1 x 1
hypercomplex matrix: PolarScalar is that matrix and uses the algebra of
hypermatrix, the base module, which holds the field vocabulary and whose
TubeTransform owns the DFT convention.  The angle decomposition alone uses
the unitary DFT, the tube DFT divided by sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hypermatrix as hm


class SingularScalarError(ZeroDivisionError):
    """Raised when inverting a zero divisor (some DFT spectrum value vanishes)."""


@dataclass(frozen=True)
class AngleSet:
    """Angular part of a polar n-complex number.

    azimuthal holds phi_1..phi_{ceil(n/2)-1} in [0, 2pi), planar holds
    psi_1..psi_{ceil(n/2)-2} in [0, pi/2], polar_plus is theta_+ in [0, pi]
    and polar_minus is theta_- (present only when n is even).
    """

    azimuthal: np.ndarray
    planar: np.ndarray
    polar_plus: float
    polar_minus: float | None


class PolarScalar:
    """One element of K_n (real coefficients) or CK_n (complex coefficients).

    It is the 1 x 1 HyperMatrix of its coefficient tube and uses that
    matrix's algebra.  The coefficients are always a copy of those given.
    """

    __slots__ = ("_matrix",)

    def __init__(self, coeffs, field=None):
        arr = np.array(hm._numeric("coeffs", coeffs))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a one-dimensional sequence with n >= 1 entries")
        self._matrix = hm.HyperMatrix(arr[np.newaxis, np.newaxis], field)

    @classmethod
    def unit(cls, n, k=0, field=hm.REAL):
        """The basis element e_k of K_n or CK_n (e_0 is the identity)."""
        if not hm._is_int(k) or not 0 <= k < hm._check_int("n", n, 1):
            raise ValueError(f"unit index {k} out of range for n={n}")
        coeffs = np.zeros(n)
        coeffs[k] = 1.0
        return cls(coeffs, field)

    @classmethod
    def one(cls, n, field=hm.REAL):
        return cls.unit(n, 0, field)

    @property
    def coeffs(self):
        return self._matrix.data[0, 0]

    @property
    def field(self):
        return self._matrix.field

    @property
    def n(self):
        return self._matrix.n

    @property
    def spectrum(self):
        """Unnormalized DFT of the coefficient tube (circulant eigenvalues)."""
        return hm.TubeTransform.dft(self.n).forward(self.coeffs)

    def __repr__(self):
        return f"PolarScalar(n={self.n}, field={self.field!r}, coeffs={self.coeffs!r})"

    def __add__(self, other):
        if isinstance(other, PolarScalar):
            return _scalar(self._matrix + other._matrix)
        # A plain number lifts to that multiple of the identity.
        lifted = hm.HyperMatrix.identity(1, self.n, self.field).__mul__(other)
        return lifted if lifted is NotImplemented else _scalar(self._matrix + lifted)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _scalar(-self._matrix)

    def __mul__(self, other):
        if isinstance(other, PolarScalar):
            return _scalar(hm.matmul(self._matrix, other._matrix))
        product = self._matrix.__mul__(other)
        return product if product is NotImplemented else _scalar(product)

    __rmul__ = __mul__

    def conj(self):
        """Algebra conjugation: the circulant representation of the result is
        the conjugate transpose of this scalar's representation, i.e.
        coefficient i maps to conj(a_{(n-i) mod n})."""
        return _scalar(self._matrix.H)

    def modulus(self):
        """Euclidean norm of the coefficient tube."""
        return hm.frobenius(self._matrix)

    __abs__ = modulus

    def inverse(self):
        """Multiplicative inverse, the inverse of the 1 x 1 matrix.

        Raises SingularScalarError when any spectrum value has modulus at or
        below SINGULAR_RTOL times the largest one (zero divisors exist, e.g.
        1 + e_1 in K_2), and ValueError when a coefficient is nan or infinite.
        """
        try:
            return _scalar(hm.inv(self._matrix))
        except np.linalg.LinAlgError:
            raise SingularScalarError(
                "scalar is singular: spectrum contains a (near-)zero value"
            ) from None

    def to_circulant(self):
        """The n x n circulant matrix with entry (i, k) = a_{(i-k) mod n}."""
        return hm.adjoint(self._matrix)

    def angles(self):
        """Angular decomposition of a real-field scalar.

        Uses the unitary DFT A = spectrum/sqrt(n).  Azimuthal angles come
        from A_k = |A_k| exp(-j phi_k); planar angles are atan2(|A_1|, |A_k|);
        the polar angles are atan2(sqrt(2)|A_1|, A_0) and, for even n,
        atan2(sqrt(2)|A_1|, A_{n/2}).  Degenerate spectra fall back to the
        atan2 conventions (zero A_k gives phi_k = 0).
        """
        if self.field != hm.REAL:
            raise ValueError("angles are defined for real-field scalars only")
        n = self.n
        A = self.spectrum / math.sqrt(n)
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


def _scalar(matrix):
    """The PolarScalar of a 1 x 1 HyperMatrix."""
    return PolarScalar(matrix.data[0, 0], matrix.field)


def inner(p, q):
    """Scalar product Re(p conj(q)) = sum_i Re(a_i conj(b_i)).

    Real, symmetric, and bilinear over the reals; satisfies
    inner(p, p) == modulus(p)**2.
    """
    hm._require(PolarScalar, p=p, q=q)
    return hm.inner(p._matrix, q._matrix)
