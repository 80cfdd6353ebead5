"""Exact Toeplitz/Hankel operator calculator on weighted entire-function spaces."""

from .arith import (
    ComponentwiseOrder,
    FactorialRatio,
    GaussianRational,
    MultiIndex,
    RadicalCoefficient,
    multiindex_compare,
    radical_normalize,
)
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
    default_ray,
    fit_exponent,
    geometric_ts,
    hankel_vector_norm_sq,
    norm_squared_samples,
    predicted_exponent,
)
from .errors import (
    DimensionMismatchError,
    FockopError,
    InputError,
    InternalInvariantError,
    MultiIndexError,
    RadicandMismatchError,
    SymbolSyntaxError,
    ValidityRangeError,
)
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
    matrix_entry,
    monomial_inner,
    parse_operator,
    toeplitz_apply,
    toeplitz_mono_apply,
)
from .oracle import OracleConfig, OracleEstimate, OracleMethod, oracle_inner, oracle_toeplitz_coeff
from .symbols import GradedPiece, SymbolPolynomial, graded_decompose, parse_symbol

__version__ = "0.1.0"

__all__ = [
    "ComponentwiseOrder", "FactorialRatio", "GaussianRational", "MultiIndex",
    "RadicalCoefficient", "multiindex_compare", "radical_normalize",
    "ExponentReport", "PredictedRate", "RateKind", "RaySpec", "SingleOperatorKind",
    "Verdict", "VerdictCase", "classify_hankel_product", "classify_single",
    "classify_toeplitz_product", "default_ray", "fit_exponent", "geometric_ts",
    "hankel_vector_norm_sq", "norm_squared_samples", "predicted_exponent",
    "DimensionMismatchError", "FockopError", "InputError", "InternalInvariantError",
    "MultiIndexError", "RadicandMismatchError", "SymbolSyntaxError",
    "ValidityRangeError",
    "BasisExpansion", "Composition", "HankelProductOp", "OperatorExpr",
    "SpaceParams", "ToeplitzOp", "apply_operator", "basis_coefficient",
    "hankel_coeff_closed_form", "hankel_product_apply", "matrix_entry",
    "monomial_inner", "parse_operator", "toeplitz_apply", "toeplitz_mono_apply",
    "OracleConfig", "OracleEstimate", "OracleMethod", "oracle_inner",
    "oracle_toeplitz_coeff",
    "GradedPiece", "SymbolPolynomial", "graded_decompose", "parse_symbol",
]
