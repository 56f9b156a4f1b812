"""Proximity operators for the hypercomplex l1 and trace norms.

Both are one grouped soft threshold, tube_group_shrink, which scales each
group by (1 - tau/||group||)_+ with the groups along the leading axis.  The
entrywise l1 prox moves every entry's coefficients, read as float64 values
(real and imaginary parts interleaved, the slab isomorphism order), to that
axis; the trace-norm prox shrinks the singular tubes, where the i-th group
gathers the i-th singular value of every transform-domain slice; and a
solve's sparse step shrinks the entry tubes of its packed state.

The trace norm that prox_trace shrinks, the sum of the singular-tube
moduli, is not a norm and not convex: the i-th singular tube groups the
i-th largest singular value of every slice, and for complex 2-tubes whose
DFT slices are X = (diag(1, 0), diag(1, 0)) and Y = (diag(1, 0),
diag(0, 1)) it is 1 for X and for Y but 2.288 for X + Y, so IALM's
convergence theory does not cover the polar solves (see solvers).

The grouped shrink is still this function's exact global prox.  (1) The
extended von Neumann inequality bounds <L, Z> by the sum over slices b and
ranks i of sigma_bi(L) sigma_bi(Z), each slice's values sorted, under the
Parseval weights; (2) so for fixed values, L with Z's singular vectors is
optimal.  (3) Without the constraint that each slice's values stay sorted,
a group lasso separable over the rows i is left, solved by scaling row i
of Z's values by (1 - tau/|sigma_i(Z)|)_+; (4) these factors do not
increase with i, so the relaxed solution is sorted, feasible and optimal.

Both proxes commute with a power-of-two scale of the input and the
threshold.  Each scales its input and threshold once, at its entry
(hypermatrix._scaled), so the squares in the group norms neither overflow
nor underflow, and scales the result back exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ._blas import owned_cores
from .hypermatrix import HyperMatrix, TubeTransform, _check_real, _ldexp, _require, _scaled


def _shrink_factors(norms, lam):
    """(1 - lam/norm)_+ for every norm, and 0 for a zero norm, computed in
    the array norms."""
    nz = norms > 0
    np.divide(lam, norms, out=norms, where=nz)
    np.subtract(1.0, norms, out=norms, where=nz)
    return np.maximum(norms, 0.0, out=norms)


def prox_l1(Z, lam):
    """Entrywise hypercomplex l1 prox: z -> (1 - lam/|z|)_+ z with |z| the
    entry modulus, the Euclidean norm of the entry's coefficients read as
    float64 values.  Raises ValueError on non-finite input."""
    _require(HyperMatrix, Z=Z)
    _check_real("threshold lam", lam, "[0, inf]")
    Z, e = _scaled(Z, "prox_l1 input")
    return HyperMatrix(_ldexp(_prox_l1(Z, _ldexp(lam, -e)).data, e), Z.field)


def _prox_l1(Z, lam):
    """prox_l1 with no rescale: the naive solver's sparse step.  Each
    entry's coefficients, read as float64 values, are one group of
    tube_group_shrink, moved to the leading axis and back."""
    out = tube_group_shrink(np.moveaxis(Z.data.view(np.float64), -1, 0), lam)
    return HyperMatrix(np.moveaxis(out, 0, -1).view(Z.data.dtype), Z.field)


def shrink_singular_values(svals, tau, grouped=True, weights=None):
    """Shrink an (n_slices, r) array of per-slice singular values.

    grouped=True applies (1 - tau/||s_i||)_+ to the i-th cross-slice group,
    whose squared norm takes the optional per-slice weights;
    grouped=False soft-thresholds each value independently.  A single slice
    degenerates to the plain soft threshold exactly, so both modes coincide
    there; a row stands for as many slices as its weight.
    """
    slices = svals.shape[0] if weights is None else weights.sum()
    if not grouped or slices == 1:
        return np.maximum(svals - tau, 0.0)
    return tube_group_shrink(svals, tau, weights)


def tube_group_shrink(stack, tau, weights=None):
    """The one grouped soft threshold: scale each group of an (n, ...)
    stack, a fiber across the leading axis, by (1 - tau/||group||)_+, and
    a zero group to zero.  The groups are a packed state's tubes, the
    singular tubes of shrink_singular_values, or prox_l1's entries.
    weights, one per slice, scale the slices' squares in the group norms:
    the Parseval weights of a real-tube solver state
    (TubeTransform.hat_state); without them the norms add the squared
    planes in order along the leading axis.  The squares are computed in
    the output array, the only stack-sized allocation, laid out as stack
    is."""
    out = np.empty_like(stack)
    if weights is None:
        if np.iscomplexobj(stack):
            # The squares of the real and of the imaginary parts fill the
            # two halves of a complex output's bytes.
            halves = out.view(np.float64).reshape(2, *stack.shape)
            squares = np.square(stack.real, out=halves[0])
            squares += np.square(stack.imag, out=halves[1])
        else:
            squares = np.square(stack, out=out)
        norms = squares[0].copy()
        for plane in squares[1:]:
            norms += plane
    else:
        squares = np.multiply(stack, stack, out=out).reshape(len(weights), -1)
        norms = (weights @ squares).reshape(stack.shape[1:])
    np.sqrt(norms, out=norms)
    return np.multiply(stack, _shrink_factors(norms, tau)[np.newaxis], out=out)


def prox_trace(Z, lam, transform="dft"):
    """Hypercomplex trace-norm prox: shrink every singular tube's modulus by
    lam and reconstruct.

    It is the polar solve's low-rank step in a round trip from the
    coefficients: enter the packed state (TubeTransform.hat_state), factor
    it, shrink the singular tubes with the Parseval row weights of a
    real-tube state, and leave the state of the products (unhat_state).
    The tube modulus is the cross-slice Euclidean norm of the unnormalized
    transform divided by sqrt(n), so the grouped threshold carries a
    sqrt(n) factor.  Raises ValueError on non-finite input.
    """
    _require(HyperMatrix, Z=Z)
    _check_real("threshold lam", lam, "[0, inf]")
    T = TubeTransform.from_name(transform, Z.n)
    Z, e = _scaled(Z, "prox_trace input")
    with owned_cores():
        out = _prox_trace(Z, _ldexp(lam, -e), T)
    return HyperMatrix(_ldexp(out.data, e), Z.field)


def _prox_trace(Z, lam, T, counts=None):
    """prox_trace with no rescale and no scope of its own: the naive
    solver's low-rank step, run in the solve's scope, which adds its two
    tube transforms and its factored matrices to the solve's counts."""
    state = T.hat_state(Z)
    row_weights = T.weights(state)[1]
    U, s, Vh = T.svd_state(state)
    del state
    if counts is not None:
        counts.update(tube_transforms=2, slice_svds=len(s))
    s = shrink_singular_values(s, lam * math.sqrt(Z.n), True, row_weights)
    return T.unhat_state(T.compose_state(U, s, Vh), Z.field)
