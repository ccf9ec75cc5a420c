"""Exact and extended-precision evaluation of generalized hypergeometric
series at unit argument, with closed-form verification tools."""

from .numeric_core import (
    Scalar,
    SphereValue,
    EvalContext,
    DEFAULT_CONTEXT,
    scalar,
    gamma,
    pochhammer,
    pochhammer_sphere,
    gamma_ratio,
    HypersumError,
    UnsupportedExactError,
    PoleError,
    IndeterminateError,
    PrecisionMixError,
    DivergentSeriesError,
    ConvergenceError,
    InvalidParametersError,
    WorkBudgetError,
    IdentityAssertionError,
)
from .hyper_series import (
    HypParams,
    SeriesKind,
    SeriesClassification,
    EvalResult,
    classify,
    term,
    eval_at_1,
    pfq,
)
from .classical_identities import (
    gauss_series_converges,
    gauss_closed_form,
    pochhammer_multiplication_split,
    askey_ismail_lhs,
    askey_ismail_rhs,
    askey_ismail_validity,
    terminating_2f1_limit,
)
from .ramanujan_sum import (
    RamanujanParams,
    PolynomialInZ,
    s_closed_form,
    s_direct,
    s_integer_form,
    recast_params,
    s_polynomial,
    inner_sum_E,
    finite_difference_check,
    eq6_prefactor,
)
from .verifier import (
    Verdict,
    IdentityReport,
    compare,
    verify_theorem,
    verify_point,
    counterexample_eq9,
    sweep,
    summarize,
    brute_force_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "SphereValue", "EvalContext", "DEFAULT_CONTEXT",
    "scalar", "gamma", "pochhammer", "pochhammer_sphere", "gamma_ratio",
    "HypersumError", "UnsupportedExactError", "PoleError",
    "IndeterminateError", "PrecisionMixError", "DivergentSeriesError",
    "ConvergenceError", "InvalidParametersError", "WorkBudgetError",
    "IdentityAssertionError",
    "HypParams", "SeriesKind", "SeriesClassification", "EvalResult",
    "classify", "term", "eval_at_1", "pfq",
    "gauss_series_converges", "gauss_closed_form",
    "pochhammer_multiplication_split", "askey_ismail_lhs", "askey_ismail_rhs",
    "askey_ismail_validity", "terminating_2f1_limit",
    "RamanujanParams", "PolynomialInZ", "s_closed_form", "s_direct",
    "s_integer_form", "recast_params", "s_polynomial", "inner_sum_E",
    "finite_difference_check", "eq6_prefactor",
    "Verdict", "IdentityReport", "compare", "verify_theorem", "verify_point",
    "counterexample_eq9", "sweep", "summarize", "brute_force_oracle",
    "__version__",
]
