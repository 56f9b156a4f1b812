"""Synthetic low-rank + sparse recovery experiments.

Each trial draws two complex matrices M = X Y* + S (X, Y with i.i.d.
complex-normal entries of total variance 1/m, S with Bernoulli support and
uniformly random unit-modulus phases), embeds the pair into one hypercomplex
matrix, runs principal component pursuit with lambda = 1/sqrt(m), and calls
a part recovered when the relative error of its low-rank estimate beats a
threshold.  A grid runner sweeps (rank, density) cells and emits success
fractions as CSV.  Both embeddings lay out the complex stack [M1, M2]:
polar2bicomplex as complex 2-tubes, polar4complex as its float64 view.

All randomness is derived from (base seed, embedding, rank, density, trial,
instance) through counter-based Philox streams, not OS entropy, so results
are reproducible and independent of the lane count.  run_grid hands its trials
to _blas.run_lanes, with no bound on their work, so they always run on the
lanes: min(POLARPCP_THREADS, usable CPUs, trials) threads with BLAS on one
thread, the caller's count restored when it returns or raises.  The count is
process-wide, so other threads of the process also see single-threaded BLAS
while a grid runs.  Each trial's slice SVDs stay on the trial's lane.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from ._blas import run_lanes
from .hypermatrix import (_PATH, COMPLEX, REAL, HyperMatrix, _check_int, _check_real, _is_int,
                          _numeric, _require)
from .solvers import SolverConfig, pcp_ialm

POLAR4COMPLEX = "polar4complex"
POLAR2BICOMPLEX = "polar2bicomplex"
EMBEDDINGS = (POLAR4COMPLEX, POLAR2BICOMPLEX)
# Each embedding's field and tube length, in the one layout of embed.
_LAYOUTS = {POLAR4COMPLEX: (REAL, 4), POLAR2BICOMPLEX: (COMPLEX, 2)}
PARTS = ("M1", "M2")
# The rows of solvers.VARIANTS that a grid and the CLI offer; "naive" is a
# library-only reference.
VARIANTS = ("polar", "tensor-rpca")

_GRID_FRACTIONS = tuple(round(0.02 * i, 2) for i in range(1, 11))


# The per-value checks that TrialSpec, run_trial and gen_low_rank_sparse share.
def _check_rank(r, m):
    """int(r) for an integer rank r in (0, m]."""
    if not _is_int(r) or not 0 < r <= m:
        raise ValueError(f"rank r={r!r} is not an integer in (0, m={m}]")
    return int(r)


def _check_density(rho):
    """float(rho) for a density rho in [0, 1]."""
    return _check_real("density rho", rho, "[0, 1]")


def _check_part(part):
    """part, one of PARTS, else ValueError naming part."""
    if part not in PARTS:
        raise ValueError(f"part must be one of {PARTS}, got {part!r}")
    return part


def _check_embedding(embedding):
    if embedding not in EMBEDDINGS:
        raise ValueError(f"unknown embedding {embedding!r}")
    return embedding


def _grid_axis(field, values, check, what):
    """The tuple of check(v) for each v of TrialSpec's grid axis field, of
    values each a what: any collection but a str, non-empty, no repeats."""
    # np.iterable is False for a scalar, None and a 0-d array.
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise TypeError(f"{field} must be a collection of values, not {type(values).__name__}")
    axis = tuple(check(v) for v in values)
    if not axis:
        raise ValueError(f"at least one {what} is required")
    if len(set(axis)) < len(axis):
        # A repeated value would solve its cells again and repeat their rows.
        raise ValueError(f"the {what} axis repeats a value: {axis}")
    return axis


@dataclass(frozen=True)
class TrialSpec:
    """Configuration of a phase-transition experiment.  Each grid axis
    (ranks, rhos, epsilons, embeddings) takes any collection or iterator,
    kept as a tuple; a str or a scalar is a TypeError."""

    m: int = 100
    ranks: tuple[int, ...] | None = None
    rhos: tuple[float, ...] | None = None
    epsilons: tuple[float, ...] = (0.1, 0.05, 0.01)
    embeddings: tuple[str, ...] = EMBEDDINGS
    trials: int = 10
    seed: int = 0
    variant: str = "polar"

    def __post_init__(self):
        for name, low in (("m", 1), ("trials", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), low)
        # Below m = 48 some fractions round to the same rank: keep one.
        ranks = self.ranks if self.ranks is not None else dict.fromkeys(
            max(1, round(f * self.m)) for f in _GRID_FRACTIONS)
        rhos = self.rhos if self.rhos is not None else _GRID_FRACTIONS
        for field, values, check, what in (
                ("ranks", ranks, lambda r: _check_rank(r, self.m), "rank"),
                ("rhos", rhos, _check_density, "density"),
                ("epsilons", self.epsilons,
                 lambda eps: _check_real("threshold epsilon", eps, "(0, 1)"), "threshold"),
                ("embeddings", self.embeddings, _check_embedding, "embedding")):
            object.__setattr__(self, field, _grid_axis(field, values, check, what))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def _instance_rng(seed, embedding, r, rho, trial, instance):
    """Philox stream keyed by every coordinate of the draw."""
    key = (
        EMBEDDINGS.index(embedding),
        int(r),
        int(round(rho * 1e9)),
        int(trial),
        int(instance),
    )
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def gen_low_rank_sparse(m, r, rho, seed):
    """Draw one instance of the low-rank + sparse model.

    Returns (M, L0, S0) with L0 = X Y* for m x r complex-normal X, Y of total
    entry variance 1/m, and S0 supported on i.i.d. Bernoulli(rho) cells with
    unit-modulus uniformly-phased values.  ``seed`` is a numpy Generator
    or an integer >= 0, so every draw can be repeated.
    """
    _check_rank(r, _check_int("m", m, 1))
    _check_density(rho)
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(_check_int("seed", seed, 0)))
    scale = 1.0 / math.sqrt(2 * m)
    X = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) * scale
    Y = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) * scale
    L0 = X @ Y.conj().T
    support = rng.random((m, m)) < rho
    phases = np.exp(2j * math.pi * rng.random((m, m)))
    S0 = np.where(support, phases, 0.0 + 0.0j)
    return L0 + S0, L0, S0


def embed(M1, M2, mode):
    """Combine two complex matrices into one hypercomplex matrix.

    Both stack [M1, M2] along the tube: polar2bicomplex as complex 2-tubes,
    polar4complex as their float64 view [Re M1, Im M1, Re M2, Im M2].  M1
    and M2 are numeric matrices of one shape: bool or str is a TypeError.
    """
    field, _ = _LAYOUTS[_check_embedding(mode)]
    M1, M2 = _numeric("M1", M1), _numeric("M2", M2)
    if M1.shape != M2.shape or M1.ndim != 2:
        raise ValueError("embed expects two complex matrices of equal shape")
    data = np.stack([M1, M2], axis=2).astype(np.complex128, copy=False)
    return HyperMatrix(data.view(np.float64) if field == REAL else data, field)


def extract(H, mode):
    """Invert embed exactly: both embeddings read H's data as the complex
    stack [M1, M2], with no arithmetic, so every value keeps its bits,
    signed zeros, infinities and nans included."""
    _require(HyperMatrix, H=H)
    field, n = _LAYOUTS[_check_embedding(mode)]
    if H.field != field or H.n != n:
        raise ValueError(f"{mode} extraction needs a {field} {n}-tube matrix")
    stack = H.data.view(np.complex128)
    return stack[:, :, 0].copy(), stack[:, :, 1].copy()


@dataclass(frozen=True)
class TrialOutcome:
    """Relative low-rank recovery errors of one trial's two parts."""

    error_m1: float
    error_m2: float

    def error(self, part):
        """The error of part, "M1" or "M2"; any other part is a ValueError."""
        return self.error_m1 if _check_part(part) == "M1" else self.error_m2

    def success(self, epsilon, part):
        return self.error(part) < epsilon


def run_trial(spec, r, rho, embedding, trial):
    """Generate, embed, decompose, and score one trial.  Only the two
    low-rank truths are kept; the embedded matrix is handed to the solver,
    which frees it after its set-up."""
    _require(TrialSpec, spec=spec)
    _check_rank(r, spec.m)
    _check_density(rho)
    _check_embedding(embedding)
    _check_int("trial", trial, 0)
    truths = []

    def draw(inst):
        M, L0, _ = gen_low_rank_sparse(
            spec.m, r, rho, _instance_rng(spec.seed, embedding, r, rho, trial, inst))
        truths.append(L0)
        return M

    result = pcp_ialm(embed(draw(0), draw(1), embedding), SolverConfig(variant=spec.variant))
    (L1, L2), (L01, L02) = extract(result.L, embedding), truths
    e1 = np.linalg.norm(L1 - L01) / np.linalg.norm(L01)
    e2 = np.linalg.norm(L2 - L02) / np.linalg.norm(L02)
    return TrialOutcome(float(e1), float(e2))


@dataclass(frozen=True)
class CellResult:
    """All trial outcomes of one (embedding, rank, density) cell."""

    embedding: str
    r: int
    rho: float
    outcomes: tuple[TrialOutcome, ...]
    runtime: float

    def successes(self, epsilon, part):
        _check_part(part)
        return sum(o.success(epsilon, part) for o in self.outcomes)


@dataclass(frozen=True)
class GridResult:
    """The cells of a grid: exactly one CellResult of spec.trials
    TrialOutcomes per (embedding, r, rho) of spec's grid, in any order.
    write_csv reads what a caller passes it, so the constructor checks it:
    a spec that is no TrialSpec or a cells that is no tuple is a TypeError,
    and cells of another grid a ValueError naming cells."""

    spec: TrialSpec
    cells: tuple[CellResult, ...]

    def __post_init__(self):
        _require(TrialSpec, spec=self.spec)
        _require(tuple, cells=self.cells)
        spec = self.spec
        grid = {(emb, r, rho) for emb in spec.embeddings for r in spec.ranks for rho in spec.rhos}
        if (len(self.cells) != len(grid)
                or not all(isinstance(c, CellResult) and isinstance(c.outcomes, tuple)
                           and len(c.outcomes) == spec.trials
                           and all(isinstance(o, TrialOutcome) for o in c.outcomes)
                           for c in self.cells)
                or {(c.embedding, c.r, c.rho) for c in self.cells} != grid):
            raise ValueError(f"cells must hold one CellResult of {spec.trials} TrialOutcomes "
                             f"for each of the {len(grid)} (embedding, r, rho) of the spec's grid")

    def cell(self, embedding, r, rho):
        for c in self.cells:
            if c.embedding == embedding and c.r == r and c.rho == rho:
                return c
        raise KeyError((embedding, r, rho))

    def fraction(self, embedding, r, rho, epsilon, part):
        c = self.cell(embedding, r, rho)
        return c.successes(epsilon, part) / len(c.outcomes)


def run_grid(spec):
    """Run every (embedding, rank, density) cell of the grid.

    Each trial is one task for _blas.run_lanes, of unbounded work, so the
    trials run on the lanes whatever _blas.LANE_MIN_WORK is.  Outcomes are
    stored and aggregated by cell and trial index, so the output does not
    depend on which lane ran which trial.
    """
    _require(TrialSpec, spec=spec)
    cells = [
        (emb, r, rho) for emb in spec.embeddings for r in spec.ranks for rho in spec.rhos
    ]
    jobs = [(cell, t) for cell in cells for t in range(spec.trials)]
    finished = [None] * len(jobs)

    def work(index):
        (emb, r, rho), t = jobs[index]
        start = time.perf_counter()
        outcome = run_trial(spec, r, rho, emb, t)
        finished[index] = (outcome, time.perf_counter() - start)

    run_lanes([functools.partial(work, i) for i in range(len(jobs))])
    out = []
    for i, (emb, r, rho) in enumerate(cells):
        done = finished[i * spec.trials:(i + 1) * spec.trials]
        out.append(CellResult(emb, r, rho, tuple(o for o, _ in done), sum(e for _, e in done)))
    return GridResult(spec, tuple(out))


def write_csv(grid, path):
    """Emit success counts, one row per (embedding, r, rho, epsilon, part)."""
    _require(GridResult, grid=grid)
    _require(_PATH, path=path)
    spec = grid.spec
    rows = sorted(((cell.embedding, cell.r, cell.rho, eps, part, cell.successes(eps, part),
                    spec.trials, spec.seed)
                   for cell in grid.cells for eps in spec.epsilons for part in PARTS),
                  key=lambda row: row[:5])
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["embedding", "r", "rho", "epsilon", "part", "successes", "trials", "seed"])
        writer.writerows(rows)
