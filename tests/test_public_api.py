"""The package's public surface: ``__all__``, the errors it raises and the
README's library example."""

import argparse
import ast
import builtins
import inspect
import re
from fractions import Fraction
from pathlib import Path

import fockop
from fockop import analysis, arith, cli, errors, operators, oracle, symbols, verify

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
SOURCE = Path(fockop.__file__).resolve().parent
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# Names that were deleted because nothing in the program used them, or
# because another name does their work.
DELETED = [
    (arith, "ComponentwiseOrder"),
    (arith, "multiindex_compare"),
    (arith, "radical_normalize"),
    (arith, "GAUSSIAN_ONE"),
    (arith.MultiIndex, "__radd__"),
    (arith.MultiIndex, "unit"),
    (arith, "FactorialRatio"),
    (arith, "GaussianRational"),
    (arith.RadicalCoefficient, "normalize"),
    (arith.RadicalCoefficient, "rational"),
    (arith.RadicalCoefficient, "to_complex"),
    (arith.RadicalCoefficient, "__sub__"),
    (arith, "run_square_free_split"),
    (arith, "RUN_SPLIT_CACHE_SIZE"),
    (arith, "sqrt_of_split_ratio"),
    (symbols, "GradedPiece"),
    (symbols, "GradedDecomposition"),
    (symbols, "graded_decompose"),
    (symbols.SymbolPolynomial, "is_holomorphic"),
    (symbols.SymbolPolynomial, "scaled"),
    (symbols.SymbolPolynomial, "from_terms"),
    (symbols.SymbolPolynomial, "__neg__"),
    (symbols.SymbolPolynomial, "__sub__"),
    (symbols, "_merged"),
    (symbols, "Fraction"),
    (symbols, "dataclass"),
    (symbols, "_is_digit"),
    (symbols, "_IMAGINARY_UNIT"),
    (symbols._Parser, "variable"),
    (symbols._Parser, "constant"),
    (symbols._Parser, "parse_factor"),
    (symbols._Parser, "parse_base"),
    (symbols._Parser, "_variable_index"),
    (operators, "matrix_entry"),
    (operators, "hankel_product_target"),
    (operators, "_sqrt_transition_factors"),
    (operators, "_mono_rule"),
    (operators, "expansion_sub"),
    (operators, "_sqrt_transition"),
    (operators.BasisExpansion, "zero"),
    (operators.BasisExpansion, "_coeffs"),
    (operators.SpaceParams, "_hash"),
    (analysis.RaySpec, "alphas"),
    (analysis, "hankel_vector_norm_sq"),
    (analysis, "ratio_stabilization"),
    (analysis, "default_ray"),
    (analysis.ExponentReport, "samples"),
    (analysis.ExponentReport, "predicted_exponent"),
    (analysis, "_verdict"),
    (oracle, "OracleConfig"),
    (oracle, "MIN_QUAD_TOL"),
    (oracle, "QUADRATURE_CACHE_SIZE"),
    (oracle.OracleEstimate, "method"),
    (oracle.OracleEstimate, "error_bound"),
    (oracle, "OracleMethod"),
    (oracle, "oracle_inner"),
    (oracle, "oracle_toeplitz_coeff"),
    (oracle, "_basis_constant_sq"),
    (errors, "MultiIndexError"),
    (errors, "DimensionMismatchError"),
    (errors, "ValidityRangeError"),
    (errors, "RadicandMismatchError"),
    (cli, "_env_override"),
]

# Parameters (and a constructor's fields) that were deleted: each only
# handed the caller's own value back, or no caller set it.
DELETED_PARAMETERS = [
    (verify.verify_oracle_monte_carlo, "sigmas"),
    (verify.verify_oracle_monte_carlo, "cfg"),
    (analysis.fit_exponent, "predicted"),
]

# Functions and methods that no module of the package but ``__init__``
# loads by name: the library's own entry points.  Anything else that
# nothing in the package reaches belongs in the tests' reference or
# nowhere.
LIBRARY_ONLY = {
    "arith.RadicalCoefficient.abs_sq": "|c|^2 of a coefficient, read by library callers and the tests",
    "analysis.predicted_exponent": "the Stirling-predicted rate a caller compares a fit with; "
    "the tests' rate checks read it",
    "operators.toeplitz_mono_apply": "one basis action read from toeplitz_apply; the benchmark tracer wraps it",
    "operators.hankel_coeff_closed_form": "one closed-form case read from the monomial-basis walk; "
    "the benchmark tracer wraps it",
    "verify.ClosedFormSweep.vanishing_as_stated": "the spec's vanishing claim, which a strict xfail pins",
}

# What ``oracle`` may import from the package: the multi-index and space
# types, the dimension check and any error.  Anything of the exact engine
# (``monomial_inner``, ``_norm_ratio``, ``RadicalCoefficient``) would make
# the oracle check the engine against itself.
ORACLE_IMPORTS = {"arith.MultiIndex", "arith.check_same_dimension", "operators.SpaceParams"}

# What ``tests/reference.py`` may not import: the package's parser classes.
# A reference parser that inherited their cursor, product bound or operator
# productions would change with the parser it checks.
REFERENCE_FORBIDDEN_IMPORTS = {"symbols._Parser", "operators._OperatorParser"}

# What ``verify`` may not import from the engine: its composition route is
# ``hankel_product_apply``, the function ``apply_operator`` runs for every
# ``HP(...; ...)`` the CLI applies, not a basis action called directly.
VERIFY_FORBIDDEN_IMPORTS = {"operators.toeplitz_apply", "operators._add_image"}

# Parameters that the CLI's flags set: the grids of the verify sweeps, the
# oracle's seed and sample count, and the t values of ``--t``.  The CLI
# states each default once; a default here would be a second copy.
CLI_SETTINGS = [
    (verify.verify_orthonormality, ("n_values", "m_values", "max_order")),
    (verify.sweep_hankel_closed_form, ("n_values", "m_values", "max_component", "max_alpha")),
    (verify.verify_oracle_deterministic, ("m_values", "max_order")),
    (verify.verify_oracle_monte_carlo, ("n", "m_values", "max_order", "seed", "samples")),
    (oracle._mc_inner, ("seed", "samples")),
    (analysis.geometric_ts, ("lo", "hi", "factor")),
]

# The package's ``functools`` caches, each with the hits it was measured to
# get on seed-1 benchmark operations, every cache cleared before each one.
# A new cache joins this table with its measured hits; one that no command
# hits only holds memory.
CACHED = {
    "arith.square_free_split": "267 hits of 761 lookups over 600 cli-queries operations",
    "oracle.gamma_integral_quadrature": "180 hits of 216 lookups over 3 oracle-mc operations",
}

# Builtin exceptions the package may raise: ``NotImplementedError`` marks
# the abstract ``OperatorExpr.dimension``.
ALLOWED_BUILTIN_RAISES = {"NotImplementedError"}


def test_every_exported_name_resolves_once():
    assert len(fockop.__all__) == len(set(fockop.__all__))
    for name in fockop.__all__:
        assert getattr(fockop, name) is not None, name


def test_deleted_names_stay_deleted():
    # only a module's name could be re-exported: a deleted field or method
    # may share its name with an exported function
    left = [
        name for owner, name in DELETED
        if name in vars(owner)
        or name in getattr(owner, "__dataclass_fields__", {})
        or (inspect.ismodule(owner) and name in fockop.__all__)
    ]
    assert not left


def test_every_function_is_reached_from_the_package_or_listed():
    loaded = set()
    defined = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    assert len(defined) > 100
    assert sorted(qualified for qualified, name in defined if name not in loaded) == sorted(LIBRARY_ONLY)


def test_benchmark_tracer_names_resolve_on_the_package():
    # bench/run.py::install_tracer wraps these and stops when one is gone;
    # read without importing or running the harness
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    (install,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "install_tracer"]
    modules = {
        alias.name
        for node in ast.walk(install)
        if isinstance(node, ast.ImportFrom) and node.module == "fockop"
        for alias in node.names
    }
    owners = {name: getattr(fockop, name) for name in modules}
    missing = []
    resolved = 0
    for node in ast.walk(install):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in owners:
            resolved += 1
            if not hasattr(owners[node.value.id], node.attr):
                missing.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "patch_method":
            owner, attr = node.args[1], node.args[2].value
            cls = getattr(owners.get(owner.value.id), owner.attr, None)
            if cls is None or attr not in vars(cls):
                missing.append(f"{owner.value.id}.{owner.attr}.{attr}")
    assert resolved > 15
    assert missing == []


def test_deleted_parameters_stay_deleted():
    left = [f"{fn.__name__}({name})" for fn, name in DELETED_PARAMETERS if name in inspect.signature(fn).parameters]
    assert left == []


def test_cli_settings_have_no_library_default():
    defaulted = [
        f"{fn.__name__}({name})"
        for fn, names in CLI_SETTINGS
        for name in names
        if inspect.signature(fn).parameters[name].default is not inspect.Parameter.empty
    ]
    assert defaulted == []


def test_package_reads_no_environment_variable():
    # every setting has one source, a flag or an argument
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb"):
                found.append(f"{path.name}:{node.lineno} reads os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [
                    f"{path.name}:{node.lineno} imports os.{alias.name}"
                    for alias in node.names
                    if alias.name in ("environ", "environb", "getenv", "getenvb")
                ]
    assert found == []


def test_every_cache_has_a_measured_reason():
    cached = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        cached.append(f"{path.stem}.{node.name}")
    assert sorted(cached) == sorted(CACHED)


def package_imports(path):
    """``module.name`` for every name the file imports from fockop."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "fockop"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "fockop":
                    continue
            found += [f"{module}.{alias.name}" for alias in node.names]
    return found


def test_oracle_shares_no_code_with_the_exact_engine():
    imports = package_imports(SOURCE / "oracle.py")
    assert imports
    assert [name for name in imports if name not in ORACLE_IMPORTS and not name.startswith("errors.")] == []


def test_reference_parser_shares_no_parser_code_with_the_package():
    imports = package_imports(REFERENCE)
    assert imports
    assert REFERENCE_FORBIDDEN_IMPORTS.isdisjoint(imports)


def test_verify_composes_through_the_cli_hankel_product_route(monkeypatch):
    imports = package_imports(SOURCE / "verify.py")
    assert "operators.hankel_product_apply" in imports
    assert VERIFY_FORBIDDEN_IMPORTS.isdisjoint(imports)
    # apply_operator runs that same function, on the symbols' non-holomorphic
    # parts: g's, and the conj(f) and conj(f)*g the operator built once
    calls = []
    real = operators.hankel_product_apply

    def spy(f, g, v, **built):
        calls.append((f, g, built))
        return real(f, g, v, **built)

    monkeypatch.setattr(operators, "hankel_product_apply", spy)
    f = symbols.parse_symbol("z1*conj(z2) + z2^2 - 3", 2)
    g = symbols.parse_symbol("conj(z1)^2 + 2*z1*z2 + i", 2)
    f_nh, g_nh = symbols.parse_symbol("z1*conj(z2)", 2), symbols.parse_symbol("conj(z1)^2", 2)
    assert (f.holomorphic_split()[1], g.holomorphic_split()[1]) == (f_nh, g_nh)
    op = operators.HankelProductOp(f, g)
    operators.apply_operator(op, operators.BasisExpansion.basis_vector(operators.SpaceParams(2, 1), (2, 3)))
    assert calls == [(f, g_nh, {"f_conj": op.left_conj, "f_conj_g": op.left_conj_right})]
    assert op.left_conj == f_nh.conjugate() and op.left_conj_right == f_nh.conjugate() * g_nh
    assert (op.left, op.right) == (f, g)


def test_apply_operator_runs_the_module_toeplitz_apply(monkeypatch):
    # bench/run.py's tracer wraps the module-global toeplitz_apply; every
    # T(...) apply_operator runs, alone or composed, goes through it
    calls = []
    real = operators.toeplitz_apply

    def spy(f, v):
        calls.append(f)
        return real(f, v)

    monkeypatch.setattr(operators, "toeplitz_apply", spy)
    f = symbols.parse_symbol("z1*conj(z2) + z2^2 - 3", 2)
    g = symbols.parse_symbol("conj(z1)^2 + 2*z1*z2 + i", 2)
    v = operators.BasisExpansion.basis_vector(operators.SpaceParams(2, 1), (2, 3))
    T, HP, C = operators.ToeplitzOp, operators.HankelProductOp, operators.Composition
    assert operators.apply_operator(T(f), v) == real(f, v)
    assert calls == [f]
    calls.clear()
    assert operators.apply_operator(C(T(f), T(g)), v) == real(f, real(g, v))
    assert calls == [g, f]
    calls.clear()
    operators.apply_operator(C(HP(f, g), T(g)), v)
    assert calls == [g]


def parser_actions(parser, prog):
    """(command, action) for every action of ``parser`` and its subparsers."""
    for action in parser._actions:
        yield prog, action
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_actions(sub, f"{prog} {name}")


def test_command_line_numbers_have_one_reader():
    # int(), float() and Fraction() read spaces, '_' and other scripts'
    # digits; every integer flag goes through cli._int_arg, and so through
    # cli._parse_int
    actions = list(parser_actions(cli.build_parser(), "fockop"))
    loose = [
        f"{prog} {'/'.join(action.option_strings) or action.dest}: {action.type.__name__}"
        for prog, action in actions
        if action.type in (int, float, Fraction)
    ]
    assert loose == []
    assert sum(action.type is cli._int_arg for _, action in actions) >= 10


def action_fields(action):
    return (
        action.option_strings, action.dest, action.type, action.default,
        action.choices, action.required, action.help,
    )


def test_each_command_builds_only_its_own_arguments():
    full = list(parser_actions(cli.build_parser(), "fockop"))
    for name in cli._COMMANDS:
        prog = f"fockop {name}"
        one = list(parser_actions(cli.build_parser(name), "fockop"))
        # the top-level parser, and the subcommand's own arguments alone
        assert {p for p, _ in one} == {"fockop", prog}
        assert [action_fields(a) for p, a in one if p == prog] == [action_fields(a) for p, a in full if p == prog]
        (subparsers,) = [a for p, a in one if isinstance(a, argparse._SubParsersAction)]
        (every,) = [a for p, a in full if p == "fockop" and isinstance(a, argparse._SubParsersAction)]
        assert list(subparsers.choices) == [name]
        assert subparsers.choices[name].get_default("handler") is every.choices[name].get_default("handler")


def test_package_raises_only_its_own_errors():
    builtin_errors = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = target.id if isinstance(target, ast.Name) else None
            if name in builtin_errors and name not in ALLOWED_BUILTIN_RAISES:
                found.append(f"{path.name}:{node.lineno} raises {name}")
    assert not found


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None, "README has no python block under '## Library'"
    exec(compile(block.group(1), "README.md", "exec"), {})
