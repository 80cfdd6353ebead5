"""The package's public surface: ``__all__`` and the README's library example."""

import re
from pathlib import Path

import fockop
from fockop import analysis, arith, operators, oracle, symbols

README = Path(__file__).resolve().parents[1] / "README.md"

# Names that were deleted because nothing in the program used them, or
# because another name does their work.
DELETED = [
    (arith, "ComponentwiseOrder"),
    (arith, "multiindex_compare"),
    (arith, "radical_normalize"),
    (arith, "GAUSSIAN_ONE"),
    (arith.MultiIndex, "__radd__"),
    (arith, "FactorialRatio"),
    (arith, "GaussianRational"),
    (arith.RadicalCoefficient, "normalize"),
    (arith.RadicalCoefficient, "rational"),
    (symbols, "GradedPiece"),
    (symbols, "GradedDecomposition"),
    (symbols, "graded_decompose"),
    (symbols.SymbolPolynomial, "is_holomorphic"),
    (symbols.SymbolPolynomial, "scaled"),
    (operators, "matrix_entry"),
    (operators, "hankel_product_target"),
    (operators.BasisExpansion, "zero"),
    (analysis.RaySpec, "alphas"),
    (oracle.OracleConfig, "workers"),
]


def test_every_exported_name_resolves_once():
    assert len(fockop.__all__) == len(set(fockop.__all__))
    for name in fockop.__all__:
        assert getattr(fockop, name) is not None, name


def test_deleted_names_stay_deleted():
    left = [name for owner, name in DELETED if name in vars(owner) or name in fockop.__all__]
    assert not left


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None, "README has no python block under '## Library'"
    exec(compile(block.group(1), "README.md", "exec"), {})
