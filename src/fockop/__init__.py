"""Exact Toeplitz/Hankel operator calculator on weighted entire-function spaces."""

from .arith import MultiIndex, RadicalCoefficient
from .analysis import (
    ExponentReport,
    PredictedRate,
    RateKind,
    RaySpec,
    SingleOperatorKind,
    Verdict,
    VerdictCase,
    classify_hankel_product,
    classify_single,
    classify_toeplitz_product,
    fit_exponent,
    geometric_ts,
    norm_squared_samples,
    predicted_exponent,
)
from .errors import FockopError, InputError, InternalInvariantError, SymbolSyntaxError
from .operators import (
    BasisExpansion,
    Composition,
    HankelProductOp,
    OperatorExpr,
    SpaceParams,
    ToeplitzOp,
    apply_operator,
    basis_coefficient,
    hankel_coeff_closed_form,
    hankel_product_apply,
    monomial_inner,
    parse_operator,
    toeplitz_apply,
    toeplitz_mono_apply,
)
from .oracle import OracleEstimate
from .symbols import SymbolPolynomial, parse_symbol

__version__ = "0.1.0"

__all__ = [
    "MultiIndex", "RadicalCoefficient",
    "ExponentReport", "PredictedRate", "RateKind", "RaySpec", "SingleOperatorKind",
    "Verdict", "VerdictCase", "classify_hankel_product", "classify_single",
    "classify_toeplitz_product", "fit_exponent", "geometric_ts",
    "norm_squared_samples", "predicted_exponent",
    "FockopError", "InputError", "InternalInvariantError", "SymbolSyntaxError",
    "BasisExpansion", "Composition", "HankelProductOp", "OperatorExpr",
    "SpaceParams", "ToeplitzOp", "apply_operator", "basis_coefficient",
    "hankel_coeff_closed_form", "hankel_product_apply",
    "monomial_inner", "parse_operator", "toeplitz_apply", "toeplitz_mono_apply",
    "OracleEstimate",
    "SymbolPolynomial", "parse_symbol",
]
