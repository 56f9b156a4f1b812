"""Inexact augmented-Lagrange-multiplier principal component pursuit.

Solves min ||L||_* + lambda ||S||_1 s.t. X = L + S over a hypercomplex
matrix, where the trace norm sums singular-tube moduli and the l1 norm sums
entry moduli.  One IALM driver (Lin, Chen & Ma, arXiv:1009.5055) runs every
variant, and a variant is one row of VARIANTS: the state the loop iterates
on and the pair of steps that state takes.  A variant has one name, the
one that SolverConfig, the CLI, a grid and report.json all use.

* "polar" (the default): the state is the packed slice stack
  T.hat_state(X), so tubes are transformed only on entry and exit.  For
  complex tubes that is the (n, l, m) complex stack.  For real tubes it is
  n float64 planes, as many as X has coefficients: a self-paired slice is
  one real plane, and one slice of each conjugate pair is two, its real and
  imaginary parts.  Its norms take Parseval weights: a plane of a paired
  slice counts twice.  The low-rank step is one slice-SVD kernel call (real
  planes as real matrices, paired slices as complex ones), a grouped shrink
  of the singular tubes and a product back from the singular columns that
  survive it; the sparse step shrinks each tube as one group.  Large slices
  that gesdd bidiagonalizes directly are factored in gesdd's stages, whose
  back-transform then builds only the surviving singular vectors; the rest
  keep np.linalg.svd (see hypermatrix);
* "tensor-rpca": the same state and sparse step, but the low-rank step
  soft-thresholds each slice's singular values independently (the
  slice-wise nuclear norm, no tube grouping).  It is a tube-grouped hybrid,
  not the TRPCA of Lu et al. (arXiv:1804.03728): that pairs the slice-wise
  nuclear norm with the entrywise l1 at lambda = 1/sqrt(max(l, m) n), where
  this variant keeps polar's tube-grouped l1 at lambda = c/sqrt(max(l, m));
* "naive": the state is the coefficient tensor X.data and the steps are the
  coefficient-domain proxes prox_trace and prox_l1.  It is a library-only
  reference, which the CLI and grids do not offer (simlab.VARIANTS).

Every shrink is one grouped soft threshold, prox.tube_group_shrink: of the
packed state's tubes, of the singular tubes, and of prox_l1's entries.

The grouped objective of "polar" and "naive", the polar trace norm, is
neither a norm nor convex (see prox), and IALM's convergence theory
(Lin, Chen & Ma) covers only the convex tensor-RPCA objective.  So a polar
solve's `converged` only means that its primal residual
||D - L - S|| / ||D|| fell below tol, not that L and S minimize it.

A polar or tensor-RPCA solve holds the data term D, the dual Y, one
kernel buffer (hypermatrix.KernelBuffer) and L or S.  D enters the
transform domain with no stack-sized temporary (TubeTransform.hat_state).
The buffer's bytes are both the slice-SVD kernel's stacks of Fortran-ordered
matrices and a C-ordered scratch state.  Each iteration writes D - S + Y/mu
into the stacks plane by plane and frees S; the kernel factors the stacks
in place, and compose_state multiplies L straight into a new state,
dropping each factored form once its product is written.  The scratch
array then takes D - L + Y/mu, from which the sparse step computes S (its
squares in S's own array), and the residual, which is scaled and added to
Y in place.  So the solve's memory peaks in LAPACK's factor phase: D, Y,
the buffer, the bidiagonal SVD's singular vectors and its workspace on
each lane; the compose that follows holds less.  The input is read only,
and a caller that keeps no reference to it hands it over: the solve frees
it once D is built, as `polarpcp decompose` and simlab.run_trial do.  D, Y
and the buffer are freed before L and S leave the transform domain, a
block of rows at a time (TubeTransform.unhat_state).  "naive" iterates on
the coefficients with a plain scratch array, and its D is the caller's
X.data.

The solve scales its input once, at its entry (hypermatrix._scaled), so
the loop's squares neither overflow nor underflow: a scaled copy takes the
input's place, so a handed-over input is freed at every scale, and L, S and
the mu history are scaled back exactly.

SolverConfig holds only what a caller sets: c, tol, max_iters, rho_mu, the
variant and the tube transform, which the solve resolves with
TubeTransform.from_name.  It is frozen: its fields are checked once, when
it is built, and no assignment gets past them.  lambda is c/sqrt(max(l, m))
with c = 1 by default; the dual variable starts at
X / max(||X||_2, ||X||_inf / lambda) and mu grows geometrically by rho_mu
from mu_0 = 1.25 / ||X||_2, which keeps sum mu_{k+1}/mu_k^2 finite as the
convergence theory of the convex objective requires.

A solve owns the cores: it runs with BLAS on one thread (the caller's count
is restored when it returns or raises), and its slice SVDs and staged
back-transforms of 64x64 and up run on min(POLARPCP_THREADS, usable CPUs,
factored slices) lanes, or on the trial's lane inside run_grid.  Results do
not depend on either count.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hypermatrix as hm
from ._blas import owned_cores
from .hypermatrix import HyperMatrix, TubeTransform, _check_int, _check_real, _require
from .prox import _prox_l1, _prox_trace, shrink_singular_values, tube_group_shrink


@dataclass(frozen=True)
class SolverConfig:
    """The frozen settings of a solve: lambda = c / sqrt(max(l, m)), the
    stopping rule (tol, max_iters), the growth rho_mu of mu, the variant (a
    key of VARIANTS: "polar", "tensor-rpca" or "naive"), and the tube
    transform, a key of TubeTransform.NAMES or a tuple of ("dft" | "skew", k)
    factor pairs such as (("dft", 2), ("dft", 3)) (see
    TubeTransform.from_name).  Change one with dataclasses.replace."""

    c: float = 1.0
    tol: float = 1e-7
    max_iters: int = 1000
    rho_mu: float = 1.5
    variant: str = "polar"
    transform: str | tuple[tuple[str, int], ...] = "dft"

    def __post_init__(self):
        for name, interval in (("c", "(0, inf)"), ("tol", "(0, inf)"), ("rho_mu", "(1, inf)")):
            _check_real(name, getattr(self, name), interval)
        _check_int("max_iters", self.max_iters, 1)
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not isinstance(self.transform, str):
            TubeTransform._check(self.transform)
        elif self.transform not in TubeTransform.NAMES:
            raise ValueError(f"unknown transform {self.transform!r}")

    def lam(self, X):
        return self.c / math.sqrt(max(X.l, X.m))


@dataclass
class PcpResult:
    """Decomposition X ~ L + S with convergence diagnostics."""

    L: HyperMatrix
    S: HyperMatrix
    iterations: int
    residual_history: np.ndarray
    converged: bool
    lam: float
    mu_history: np.ndarray
    stats: dict = field(default_factory=dict)


def residual(X, L, S):
    """Relative feasibility residual ||X - L - S||_F / ||X||_F (absolute when
    X is zero)."""
    _require(HyperMatrix, X=X, L=L, S=S)
    num = hm.frobenius(X - L - S)
    den = hm.frobenius(X)
    return num / den if den > 0 else num


def mu_schedule(X, cfg=None):
    """Geometric penalty sequence mu_0, mu_0*rho, mu_0*rho^2, ..."""
    _require(HyperMatrix, X=X)
    cfg = SolverConfig() if cfg is None else cfg
    _require(SolverConfig, cfg=cfg)
    specnorm = hm.spectral_norm(X, cfg.transform)
    if specnorm <= 0:
        raise ValueError("mu schedule undefined for a zero matrix")
    return _geometric(cfg, specnorm)


def _geometric(cfg, specnorm):
    """mu_k = mu_0 rho_mu^k with mu_0 = 1.25 / ||X||_2."""
    mu = 1.25 / specnorm
    while True:
        yield mu
        mu *= cfg.rho_mu


def pcp_ialm(X, cfg=None):
    """Principal component pursuit for hypercomplex matrices.

    Iterates L <- prox_trace(X - S + Y/mu, 1/mu), S <- prox_l1(X - L + Y/mu,
    lam/mu), Y <- Y + mu (X - L - S) with geometric mu, stopping when the
    relative residual drops below cfg.tol.  cfg.variant picks the state and
    the pair of steps (see the module docstring).  Non-convergence is
    reported via the converged flag, not an exception; for the non-convex
    polar objective that flag only certifies the residual.  Every variant
    runs here: pcp_ialm(X, SolverConfig(variant="tensor-rpca")).  X is only
    read; a caller that holds no other reference to it hands it over, and
    a polar or tensor-RPCA solve frees it after its set-up, at every
    scale: an X whose largest coefficient is outside [2^-400, 2^400] is
    scaled once into a copy.  mu_history is scaled back: it holds inf
    where mu passes the largest float, for an X below about 1e-305.

    The stats are this solve's own counts, made at its calls: the matrices
    the slice-SVD kernel factored in the loop and in the set-up, and the
    tube transforms (3, or 1 + 2 per iteration for "naive").
    """
    _require(HyperMatrix, X=X)
    cfg = SolverConfig() if cfg is None else cfg
    _require(SolverConfig, cfg=cfg)
    X, e = hm._scaled(X, "solver input")   # solve X * 2^-e; a handed-over X is freed here
    lam = cfg.lam(X)
    field = X.field
    # This solve's work, counted at its own calls: its stats.
    counts = collections.Counter(slice_svds=0, setup_slice_svds=0, tube_transforms=0)
    if not X.data.any():
        zero = HyperMatrix.zeros(X.l, X.m, X.n, field)
        return PcpResult(zero, zero.copy(), 1, np.array([0.0]), True, lam, np.array([]),
                         dict(counts))
    maxmod = hm.max_modulus(X)
    T = TubeTransform.from_name(cfg.transform, X.n)

    state, low_rank, sparse = VARIANTS[cfg.variant]
    history, mu_hist = [], []
    with owned_cores():
        D = T.hat_state(X)
        # The Parseval weights of D's kind, which the steps and _norm read.
        plane_weights, row_weights = T.weights(D)
        buf = T.kernel_buffer(D)
        s = T.svd_state(buf, compute_uv=False)
        counts.update(tube_transforms=1, setup_slice_svds=len(s))
        specnorm = float(s.max())
        if state == "packed":
            Z, planes = buf.scratch, buf.planes
        else:
            D, plane_weights, row_weights = X.data, None, None
            # C order: _norm reduces in memory order, so the residual's bits
            # depend on the scratch array's layout.
            buf = Z = planes = np.empty(D.shape, D.dtype)
        X = None   # the loop reads D: a handed-over input is freed here
        Y = D / max(specnorm, maxmod / lam)   # Y_1 is proportional to X
        S = np.zeros_like(D)
        Dnorm = _norm(D, plane_weights)
        for mu in itertools.islice(_geometric(cfg, specnorm), cfg.max_iters):
            _fill(planes, D, S, Y, mu)
            L = S = None   # the steps replace both: free them for the SVD
            L = low_rank(T, buf, mu, row_weights, counts)
            _fill(Z, D, L, Y, mu)
            S = sparse(T, Z, lam, mu, plane_weights)
            np.subtract(D, L, out=Z)
            Z -= S
            history.append(float(_norm(Z, plane_weights) / Dnorm))
            Z *= mu
            Y += Z
            mu_hist.append(mu)
            if history[-1] < cfg.tol:
                break
        del D, Y, Z, buf, planes
        leave = T.unhat_state if state == "packed" else HyperMatrix
        L = leave(L, field)   # L and S leave one at a time
        S = leave(S, field)
        counts["tube_transforms"] += 2 * (state == "packed")

    # Every step commutes with the scale: undo it, exactly.
    hm._ldexp(L.data, e)
    hm._ldexp(S.data, e)
    return PcpResult(
        L=L,
        S=S,
        iterations=len(history),
        residual_history=np.array(history),
        converged=history[-1] < cfg.tol,
        lam=lam,
        mu_history=hm._ldexp(np.array(mu_hist), -e),
        stats=dict(counts),
    )


def _fill(planes, A, B, Y, mu):
    """planes[b] = A[b] - B[b] + Y[b] / mu, plane by plane: the temporaries
    are planes, and a plane is computed in C order before it is written
    into a Fortran-ordered kernel stack."""
    for plane, a, b, y in zip(planes, A, B, Y):
        values = a - b
        values += y / mu
        plane[...] = values


def _norm(A, weights):
    """||A||_F, each plane's squares weighted by its Parseval weight, if any."""
    if weights is None:
        return np.linalg.norm(A)
    return math.sqrt(weights @ np.einsum("bij,bij->b", A, A))


def _svt(T, buf, tau, grouped, row_weights, counts):
    """Factor buf, shrink its singular values by tau (grouped or not), multiply back."""
    U, s, Vh = T.svd_state(buf)
    counts["slice_svds"] += len(s)
    return T.compose_state(U, shrink_singular_values(s, tau, grouped, row_weights), Vh)


def _tube_shrink(T, Z, lam, mu, plane_weights):
    return tube_group_shrink(Z, lam * math.sqrt(T.n) / mu, plane_weights)


# name -> (state: "packed", T.hat_state(X), or "coefficients", X.data; low-rank
# step; sparse step).  The names are the ones the CLI, a grid and report.json
# use.  Each step computes its own threshold and looks its prox up in this
# module's globals when called: perfbench/tracer.py and tests replace them.
VARIANTS = {
    "polar": ("packed",
              lambda T, A, mu, w, counts: _svt(T, A, math.sqrt(T.n) / mu, True, w, counts),
              _tube_shrink),
    "tensor-rpca": ("packed",
                    lambda T, A, mu, w, counts: _svt(T, A, 1.0 / mu, False, w, counts),
                    _tube_shrink),
    "naive": ("coefficients",
              lambda T, Z, mu, w, counts: _prox_trace(HyperMatrix(Z), 1.0 / mu, T, counts).data,
              lambda T, Z, lam, mu, w: _prox_l1(HyperMatrix(Z), lam / mu).data),
}
