"""Proximity operators for the hypercomplex l1 and trace norms.

Both reduce to grouped soft thresholding.  The entrywise l1 prox puts every
entry's coefficients (real and imaginary parts interleaved, exactly the slab
isomorphism order) into one group; the trace-norm prox applies the same
shrinkage to singular tubes, where the i-th group gathers the i-th singular
value of every transform-domain slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperalgebra import REAL
from .hypermatrix import HyperMatrix, TubeTransform


@dataclass
class GroupedVector:
    """Flat real vector partitioned into contiguous groups.

    offsets holds the start index of each group; offsets[0] must be 0 and the
    implicit final boundary is len(values).
    """

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.values.ndim != 1 or self.offsets.ndim != 1 or self.offsets.size == 0:
            raise ValueError("values and offsets must be non-empty 1-d arrays")
        if self.offsets[0] != 0 or np.any(np.diff(self.offsets) <= 0):
            raise ValueError("offsets must start at 0 and be strictly increasing")
        if self.offsets[-1] >= self.values.size:
            raise ValueError("offsets must leave a non-empty final group")

    @property
    def sizes(self):
        return np.diff(np.append(self.offsets, self.values.size))

    def group_norms(self):
        return np.sqrt(np.add.reduceat(self.values * self.values, self.offsets))


def _shrink_factors(norms, lam):
    factors = np.zeros_like(norms)
    nz = norms > 0
    factors[nz] = np.maximum(1.0 - lam / norms[nz], 0.0)
    return factors


def group_soft_threshold(z, lam):
    """Group lasso prox: scale each group by (1 - lam/||z_g||)_+ with zero
    groups mapping to zero."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    factors = _shrink_factors(z.group_norms(), lam)
    return GroupedVector(z.values * np.repeat(factors, z.sizes), z.offsets.copy())


def soft_threshold_real(x, lam):
    """Scalar soft threshold sign(x) * max(|x| - lam, 0), vectorized."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _entry_components(Z):
    """View the coefficient tensor as an (lm, components-per-entry) float
    array in slab order; complex128 memory is re/im interleaved, which is
    exactly that order."""
    lm = Z.l * Z.m
    flat = np.ascontiguousarray(Z.data.reshape(lm, Z.n))
    if Z.field == REAL:
        return flat
    return flat.view(np.float64)


def prox_l1(Z, lam):
    """Entrywise hypercomplex l1 prox: z -> (1 - lam/|z|)_+ z with |z| the
    entry modulus.  Delegates to group_soft_threshold with one group per
    entry, so the two agree bit for bit."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    comps = _entry_components(Z)
    lm, width = comps.shape
    gv = GroupedVector(comps.ravel(), np.arange(lm, dtype=np.intp) * width)
    out = group_soft_threshold(gv, lam).values.reshape(lm, width)
    if Z.field != REAL:
        out = out.view(np.complex128)
    return HyperMatrix(out.reshape(Z.data.shape), Z.field)


def shrink_singular_values(svals, tau, grouped=True):
    """Shrink an (n_slices, r) array of per-slice singular values.

    grouped=True applies (1 - tau/||s_i||)_+ to the i-th cross-slice group;
    grouped=False soft-thresholds each value independently.  A single slice
    degenerates to the plain soft threshold exactly, so both modes coincide
    there.
    """
    if not grouped or svals.shape[0] == 1:
        return np.maximum(svals - tau, 0.0)
    factors = _shrink_factors(np.sqrt((svals * svals).sum(axis=0)), tau)
    return svals * factors[np.newaxis, :]


def tube_group_shrink(stack, tau):
    """Grouped shrink of an (n, l, m) transform-domain stack where each tube
    (the fiber across the leading axis) is one group."""
    norms = np.sqrt((stack.real**2 + stack.imag**2).sum(axis=0))
    return stack * _shrink_factors(norms, tau)[np.newaxis]


def prox_trace(Z, lam, transform=None):
    """Hypercomplex trace-norm prox: shrink every singular tube's modulus by
    lam and reconstruct.

    In the transform domain the tube modulus is the cross-slice Euclidean
    norm divided by sqrt(n), so the grouped threshold carries a sqrt(n)
    factor; this is the only place the unnormalized-transform scaling enters.
    """
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    T = transform or TubeTransform.dft(Z.n)
    U, s, Vh = T.slice_svd(T.hat(Z), Z.field == REAL)
    s2 = shrink_singular_values(s, lam * math.sqrt(Z.n), grouped=True)
    return T.unhat((U * s2[:, np.newaxis, :]) @ Vh, Z.field)
