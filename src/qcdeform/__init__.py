"""Norm-controlled quasiconformal deformations of holomorphic functions.

The package turns a small prescribed change of a holomorphic function (a
handful of Taylor coefficients plus the Hilbert-space norm) into an explicit
quasiconformal map of the plane realizing it, and ships the surrounding
toolkit: disk-supported Cauchy/Beurling transforms, Beltrami solves by
Neumann iteration, truncated-series Schwarzian calculus with inversion at
infinity, growth-norm rational approximation by boundary double poles, and
extremum searches over zero-free functions.
"""

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ConvergenceError,
    DilatationBoundError,
    DivergenceError,
    EvaluationDomainError,
    IllConditionedBasisError,
    QcdeformError,
    ResolutionError,
    SingularDivisionError,
    SingularKernelError,
)
from .series import HoloSeries, RecoveredSeries, coeffs_from_circle_samples, sample_circle
from .quadrature import PolarGrid, polar_grid
from .spaces import (
    SpaceSpec,
    bergman,
    bp_norm,
    dirichlet,
    estimate_embedding_constant,
    from_radial_measure,
    hardy,
    hilbert_inner,
    hilbert_norm,
    monomial_bp_sup,
)
from .transforms import Density, Disk, asymptotic_T, beurling_Pi, cauchy_T, cauchy_chi, pairing
from .beltrami import MapReport, NeumannResult, QcMap, build_map, solve_neumann, verify_map
from .deform import (
    DeformationProblem,
    DeformationResult,
    build_mu0,
    linearized_init,
    solve_deformation,
)
from .schwarzian import (
    a_from_b,
    a_leading_from_b,
    covering_radius,
    invert_expansion,
    schwarzian_of,
    solve_schwarz,
)
from .ratfit import DoublePoleRational, FitResult, error_curve, fit_double_poles
from .extremal import FamilySpec, SearchRecord, Thm2Report, check_thm2_consistency, hsz_search

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "RunConfig",
    "QcdeformError",
    "EvaluationDomainError",
    "SingularDivisionError",
    "ResolutionError",
    "SingularKernelError",
    "IllConditionedBasisError",
    "DivergenceError",
    "ConvergenceError",
    "DilatationBoundError",
    "HoloSeries",
    "RecoveredSeries",
    "sample_circle",
    "coeffs_from_circle_samples",
    "PolarGrid",
    "polar_grid",
    "SpaceSpec",
    "hardy",
    "bergman",
    "dirichlet",
    "from_radial_measure",
    "hilbert_norm",
    "hilbert_inner",
    "bp_norm",
    "monomial_bp_sup",
    "estimate_embedding_constant",
    "Disk",
    "Density",
    "pairing",
    "cauchy_chi",
    "cauchy_T",
    "asymptotic_T",
    "beurling_Pi",
    "NeumannResult",
    "solve_neumann",
    "QcMap",
    "build_map",
    "MapReport",
    "verify_map",
    "DeformationProblem",
    "DeformationResult",
    "build_mu0",
    "linearized_init",
    "solve_deformation",
    "schwarzian_of",
    "solve_schwarz",
    "invert_expansion",
    "a_from_b",
    "a_leading_from_b",
    "covering_radius",
    "DoublePoleRational",
    "FitResult",
    "fit_double_poles",
    "error_curve",
    "SearchRecord",
    "hsz_search",
    "FamilySpec",
    "Thm2Report",
    "check_thm2_consistency",
]
