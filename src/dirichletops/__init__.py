"""Certified norm bounds for composition operators on the Hardy space of
Dirichlet series, for affine-like symbols phi(s) = c1 + c2 q^(-s)."""

from __future__ import annotations

__version__ = "0.1.0"

from .bounds import (
    ApproxNumberBound, NormBoundReport, approx_number_bound, kernel_lower_bound,
    norm_bounds, schur_radius,
)
from .errors import (
    BracketingError, BudgetExhaustedError, DomainError, InvalidSymbolError,
    MatrixSizeError, NonCompactError,
)
from .special_functions import (
    CertifiedValue, GridCheck, PrecisionBudget, VerificationReport, crossing_root,
    log_moment_sum, lower_bound_f, lower_bound_g, lower_bound_h, verification_suite,
    zeta,
)
from .symbol import (
    DirichletSymbol, FixedPointResult, SymbolClass, fixed_point, spectrum_formula,
)

__all__ = [
    "ApproxNumberBound", "BracketingError", "BudgetExhaustedError",
    "CertifiedValue", "DirichletSymbol", "DomainError", "FixedPointResult",
    "GridCheck", "InvalidSymbolError", "MatrixSizeError", "NonCompactError",
    "NormBoundReport", "NormEstimate", "PrecisionBudget", "SchurCertificate",
    "SingularSpectrum", "SymbolClass", "TruncatedMatrix", "VerificationReport",
    "__version__", "approx_number_bound", "build_matrix", "crossing_root",
    "fixed_point", "kernel_lower_bound", "log_moment_sum", "lower_bound_f",
    "lower_bound_g", "lower_bound_h", "norm_bounds", "operator_norm_estimate",
    "read_matrix", "schur_certificate", "schur_radius", "singular_values",
    "spectrum_formula", "tail_bounds", "verification_suite", "write_matrix", "zeta",
]


def __getattr__(name: str):
    # names of __all__ not bound above are the matrix layer's: it, and with
    # it numpy, loads on first use of one of them
    if name in __all__:
        from . import operator_matrix

        return getattr(operator_matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
