"""Inexact augmented-Lagrange-multiplier principal component pursuit.

Solves min ||L||_* + lambda ||S||_1 s.t. X = L + S over a hypercomplex
matrix, where the trace norm sums singular-tube moduli and the l1 norm sums
entry moduli.  Three variants:

* "naive": alternates the coefficient-domain trace-norm and l1 proxes;
* "frequency": keeps all state in the transform domain, so one iteration
  costs one slice-SVD kernel call plus elementwise work and tubes are only
  transformed on entry and exit.  The kernel factors n slices, or one per
  conjugate pair for real tubes;
* tensor RPCA: same loop but the low-rank step soft-thresholds each slice's
  singular values independently (slice-wise nuclear norm, no tube grouping).

lambda defaults to c/sqrt(max(l, m)) with c = 1; the dual variable starts at
X / max(||X||_2, ||X||_inf / lambda) and mu grows geometrically from
1.25 / ||X||_2, which keeps sum mu_{k+1}/mu_k^2 finite as the convergence
theory requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hypermatrix as hm
from .hyperalgebra import REAL
from .hypermatrix import HyperMatrix, TubeTransform
from .prox import prox_l1, prox_trace, shrink_singular_values, tube_group_shrink

NAIVE = "naive"
FREQUENCY = "frequency"
TENSOR_RPCA = "tensor_rpca"


@dataclass
class SolverConfig:
    """Parameters shared by all solver variants."""

    c: float = 1.0
    tol: float = 1e-7
    max_iters: int = 1000
    rho_mu: float = 1.5
    mu0: float | None = None        # None -> mu0_scale / ||X||_2
    mu0_scale: float = 1.25
    variant: str = FREQUENCY
    transform: str = "dft"
    transform_factors: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("c", "tol", "mu0", "mu0_scale"):
            value = getattr(self, name)
            if value is not None and (not (value > 0) or not math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.rho_mu > 1) or not math.isfinite(self.rho_mu):
            raise ValueError("rho_mu must be finite and exceed 1")
        if self.variant not in (NAIVE, FREQUENCY, TENSOR_RPCA):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.transform not in TubeTransform.NAMES:
            raise ValueError(f"unknown transform {self.transform!r}")

    def resolve_transform(self, n):
        if self.transform_factors is not None:
            return TubeTransform.group_dft(self.transform_factors)
        return TubeTransform.from_name(self.transform, n)

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
    num = hm.frobenius(X - L - S)
    den = hm.frobenius(X)
    return num / den if den > 0 else num


def mu_schedule(X, cfg=None):
    """Geometric penalty sequence mu_0, mu_0*rho, mu_0*rho^2, ..."""
    cfg = cfg or SolverConfig()
    if cfg.mu0 is not None:
        mu0 = cfg.mu0
    else:
        sn = hm.spectral_norm(X, cfg.resolve_transform(X.n))
        if sn <= 0:
            raise ValueError("mu schedule undefined for a zero matrix")
        mu0 = cfg.mu0_scale / sn
    return _geometric(mu0, cfg.rho_mu)


def _geometric(mu0, rho):
    mu = mu0
    while True:
        yield mu
        mu *= rho


def _check_input(X):
    if not isinstance(X, HyperMatrix):
        raise TypeError("solver input must be a HyperMatrix")
    hm.check_finite(X, "solver input")


def _trivial_result(X, lam):
    zero = HyperMatrix.zeros(X.l, X.m, X.n, X.field)
    return PcpResult(
        L=zero,
        S=zero.copy(),
        iterations=1,
        residual_history=np.array([0.0]),
        converged=True,
        lam=lam,
        mu_history=np.array([]),
        stats={"slice_svds": 0, "setup_slice_svds": 0, "tube_transforms": 0},
    )


def pcp_ialm(X, cfg=None):
    """Principal component pursuit for hypercomplex matrices.

    Iterates L <- prox_trace(X - S + Y/mu, 1/mu), S <- prox_l1(X - L + Y/mu,
    lam/mu), Y <- Y + mu (X - L - S) with geometric mu, stopping when the
    relative residual drops below cfg.tol.  Non-convergence is reported via
    the converged flag, not an exception.
    """
    cfg = cfg or SolverConfig()
    _check_input(X)
    if cfg.variant == TENSOR_RPCA:
        return tensor_rpca(X, cfg)
    if not X.data.any():
        return _trivial_result(X, cfg.lam(X))
    if cfg.variant == NAIVE:
        return _ialm_naive(X, cfg)
    return _ialm_frequency(X, cfg, grouped=True)


def tensor_rpca(X, cfg=None):
    """Tensor RPCA baseline: slice-wise singular value thresholding for the
    low-rank step, identical sparse step."""
    cfg = cfg or SolverConfig()
    _check_input(X)
    if not X.data.any():
        return _trivial_result(X, cfg.lam(X))
    return _ialm_frequency(X, cfg, grouped=False)


def _dual_scale(lam, specnorm, maxmod):
    return max(specnorm, maxmod / lam)


def _ialm_frequency(X, cfg, grouped):
    T = cfg.resolve_transform(X.n)
    real = X.field == REAL
    lam = cfg.lam(X)
    sqrt_n = math.sqrt(X.n)
    maxmod = hm.max_modulus(X)

    Xhat = T.hat(X)
    specnorm = float(T.slice_svd(Xhat, real, compute_uv=False).max())
    Yhat = Xhat / _dual_scale(lam, specnorm, maxmod)   # Y_1 is proportional to X
    Shat = np.zeros_like(Xhat)
    Lhat = np.zeros_like(Xhat)
    Xnorm = np.linalg.norm(Xhat)

    mus = _geometric(cfg.mu0 if cfg.mu0 is not None else cfg.mu0_scale / specnorm,
                     cfg.rho_mu)
    history, mu_hist = [], []
    converged = False
    iterations = 0
    for mu in mus:
        if iterations >= cfg.max_iters:
            break
        iterations += 1
        Zhat = Xhat - Shat + Yhat / mu
        U, s, Vh = T.slice_svd(Zhat, real)
        s = shrink_singular_values(s, (sqrt_n if grouped else 1.0) / mu, grouped)
        Lhat = (U * s[:, np.newaxis, :]) @ Vh
        Shat = tube_group_shrink(Xhat - Lhat + Yhat / mu, lam * sqrt_n / mu)
        Rhat = Xhat - Lhat - Shat
        Yhat = Yhat + mu * Rhat
        r = float(np.linalg.norm(Rhat) / Xnorm)
        history.append(r)
        mu_hist.append(mu)
        if r < cfg.tol:
            converged = True
            break

    slices = T.factored_slices(real)
    return PcpResult(
        L=T.unhat(Lhat, X.field),
        S=T.unhat(Shat, X.field),
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


def _ialm_naive(X, cfg):
    T = cfg.resolve_transform(X.n)
    lam = cfg.lam(X)
    specnorm = hm.spectral_norm(X, T)
    Y = X / _dual_scale(lam, specnorm, hm.max_modulus(X))
    S = HyperMatrix.zeros(X.l, X.m, X.n, X.field)
    L = S.copy()
    Xnorm = hm.frobenius(X)

    mus = _geometric(cfg.mu0 if cfg.mu0 is not None else cfg.mu0_scale / specnorm,
                     cfg.rho_mu)
    history, mu_hist = [], []
    converged = False
    iterations = 0
    for mu in mus:
        if iterations >= cfg.max_iters:
            break
        iterations += 1
        L = prox_trace(X - S + Y / mu, 1.0 / mu, T)
        S = prox_l1(X - L + Y / mu, lam / mu)
        R = X - L - S
        Y = Y + R * mu
        r = hm.frobenius(R) / Xnorm
        history.append(r)
        mu_hist.append(mu)
        if r < cfg.tol:
            converged = True
            break

    slices = T.factored_slices(X.field == REAL)
    return PcpResult(
        L=L,
        S=S,
        iterations=iterations,
        residual_history=np.array(history),
        converged=converged,
        lam=lam,
        mu_history=np.array(mu_hist),
        stats={
            "slice_svds": slices * iterations,
            "setup_slice_svds": slices,
            "tube_transforms": 2 * iterations + 1,  # per-iteration prox round trips
        },
    )
