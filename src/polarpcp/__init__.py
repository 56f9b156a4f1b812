"""Polar n-complex and n-bicomplex linear algebra, transform-parameterized
t-SVD, hypercomplex proximity operators, and principal component pursuit."""

from .hyperalgebra import AngleSet, PolarScalar, SingularScalarError
from .hypermatrix import (
    COMPLEX,
    REAL,
    HyperMatrix,
    SpectralMatrix,
    adjoint,
    cft,
    frobenius,
    icft,
    max_modulus,
    spectral_norm,
    stride_permutation,
    unfold,
    vec,
)
from .pht import PhtFormatError, read_pht, write_pht
from .prox import prox_l1, prox_trace
from .simlab import (
    GridResult,
    TrialSpec,
    embed,
    extract,
    gen_low_rank_sparse,
    run_grid,
    run_trial,
    write_csv,
)
from .solvers import (
    PcpResult,
    SolverConfig,
    mu_schedule,
    pcp_ialm,
    residual,
)
from .tsvd import (
    TSVDFactors,
    TubeTransform,
    reconstruct,
    singular_moduli,
    t_conj_transpose,
    t_matmul,
    tsvd,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSet",
    "COMPLEX",
    "GridResult",
    "HyperMatrix",
    "PcpResult",
    "PhtFormatError",
    "PolarScalar",
    "REAL",
    "SingularScalarError",
    "SolverConfig",
    "SpectralMatrix",
    "TSVDFactors",
    "TrialSpec",
    "TubeTransform",
    "adjoint",
    "cft",
    "embed",
    "extract",
    "frobenius",
    "gen_low_rank_sparse",
    "icft",
    "max_modulus",
    "mu_schedule",
    "pcp_ialm",
    "prox_l1",
    "prox_trace",
    "read_pht",
    "reconstruct",
    "residual",
    "run_grid",
    "run_trial",
    "singular_moduli",
    "spectral_norm",
    "stride_permutation",
    "t_conj_transpose",
    "t_matmul",
    "tsvd",
    "unfold",
    "vec",
    "write_csv",
    "write_pht",
]
