import hashlib
import io
import json
import sys
import warnings
from fractions import Fraction

import pytest

from fockop.cli import main
from fockop.operators import MAX_OPERATOR_FACTORS
from fockop.symbols import MAX_SYMBOL_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_canonicalizes(capsys):
    code, out = run(capsys, "parse", "-n", "1", "-f", "z + z", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["canonical"] == "2*z"


def test_parse_error_exits_2(capsys):
    code = main(["parse", "-n", "1", "-f", "z1 + $"])
    err = capsys.readouterr().err
    assert code == 2
    assert "position" in err


def test_unknown_flag_exits_2(capsys):
    code = main(["parse", "-n", "1", "-f", "z", "--bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --bogus\n"


def test_classify_hankel_product_bounded(capsys):
    code, out = run(
        capsys,
        "classify",
        "hankel-product",
        "-n", "1", "-m", "0",
        "-f", "z+2*conj(z)",
        "-g", "z^3-conj(z)",
        "--format", "json",
    )
    assert code == 0
    verdict = json.loads(out)["outputs"]["verdict"]
    assert verdict["bounded"] is True
    assert verdict["case"] == "N1ConjugateLinear"


def test_classify_toeplitz_product_unbounded(capsys):
    code, out = run(
        capsys,
        "classify", "toeplitz-product",
        "-n", "2", "-m", "1", "-f", "z1", "-g", "1",
        "--format", "json",
    )
    assert code == 0
    verdict = json.loads(out)["outputs"]["verdict"]
    assert verdict["bounded"] is False


def test_classify_product_requires_second_symbol(capsys):
    code = main(["classify", "hankel-product", "-n", "1", "-f", "z"])
    assert code == 2


def test_apply_reports_expansion(capsys):
    code, out = run(
        capsys,
        "apply", "-n", "1", "-m", "0",
        "--op", "HP(conj(z); conj(z))",
        "--alpha", "5",
        "--format", "json",
    )
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["expansion"] == [
        {"alpha": "5", "coeff": {"rational": "1", "radicand": "1"}}
    ]
    assert outputs["squared_norm"] == "1"


# ``apply --format json`` stdout as the per-contribution radical engine
# printed it: (alpha, rational, radicand) per term, the squared norm and
# the sha256 of the whole stdout.
@pytest.mark.parametrize("n, m, op, alpha, expansion, squared_norm, digest", [
    ("1", "1000", "T(z^3 + (1+i)*conj(z)) * T(z - 2)", "5",
     [("4", "-2-2*i", "1005"), ("5", "1006+1006*i", "1"), ("8", "-24", "7091294"),
      ("9", "12", "7155115646")],
     "1034423270480", "f53ef96ae9ea4ff7c0bd6c5d2d0744dee7fd1af1ab9934211b394508d85ce73a"),
    ("2", "6", "T((1/2-3*i)*z1*conj(z2)) * T(z1*z2 - i*conj(z2)^2 + 2)", "3|2",
     [("4|1", "26/7-156/7*i", "2"), ("5|2", "5/2-15*i", "65")],
     "3146221/196", "2032a97b7353d49e0e3a9b0e493ef9a4cb9e951868b3bae1056a64f5f26e2321"),
    ("2", "3", "HP(conj(z1)*z2 + 1; conj(z2)^2 + z1)", "2|4",
     [("3|1", "-3/28", "210")],
     "135/56", "a47c1248b3ed3a8ba061d8ceaa21f596976c507f3e41baf4acbcf1ccffd5f49d"),
    ("3", "40", "T(z1 + z2*conj(z3) - z3^2) * HP(conj(z1); z2*conj(z3))", "1|2|3",
     [("2|3|4", "56/33", "1870"), ("2|4|1", "-560/9", "1"), ("3|3|2", "-28/9", "30")],
     "8506400/891", "48dfecd5815cf0d5edbd88554ee9a5d78cd69c58da259fdbc57db874593248bb"),
])
def test_apply_json_stdout_is_pinned(capsys, n, m, op, alpha, expansion, squared_norm, digest):
    code, out = run(capsys, "apply", "-n", n, "-m", m, "--op", op, "--alpha", alpha, "--format", "json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    terms = [(t["alpha"], t["coeff"]["rational"], t["coeff"]["radicand"]) for t in outputs["expansion"]]
    assert terms == expansion
    assert outputs["squared_norm"] == squared_norm
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ``norms`` CSV stdout of dense operators, pinned by its sha256 as the
# engine printed it when ``HP`` still acted on the whole symbols: both
# Hankel products' symbols have holomorphic and constant terms, which
# ``HankelProductOp`` now drops before it applies the product.
@pytest.mark.parametrize("n, m, op, t, digest", [
    ("2", "6",
     "HP(3/4*z1*conj(z1)^2 - 3 + i + 2*conj(z1)*conj(z2) - i*z1 + 2*z2*conj(z1)*conj(z2) + (1-2*i)*z2; "
     "3*conj(z2) - 3 - 3/4*z2*conj(z1) - i*z1*conj(z2) - 1/2*z2*conj(z2)^2 - i*z2)",
     "40:44:linear:2", "3da264405541803ffeda7aba7f679a50bc0f23f67897f8d6fa790cef449c58e8"),
    ("3", "12",
     "HP(3*conj(z1) - (1-2*i)*z3 + 1/2*z1*conj(z1) - (1-2*i)*z2*z3*conj(z3) + 1 + 1/2*z3*conj(z2)*conj(z3); "
     "3/4 - (1-2*i)*z3*conj(z3) - 3*z3*conj(z3)^2 + 2*conj(z2)^2 - 1 - 1/2*z1*z2 - conj(z3))",
     "50:52:linear:1", "d24b23bc367948c4c4b90ca6a4a7419226150bd0e023d44f0d03fde4f4338c8c"),
    ("3", "9",
     "T(i + (1-2*i) + 3 + 3/4*conj(z1)*conj(z3) - 3/4*z1*z2^2 - 1/2*z3) * "
     "T(3/4*z1*z2*z3 - (1-2*i)*conj(z2)^2*conj(z3) + 2 - 5/3*z3^2*conj(z3) - 1/2 + 3/4*conj(z2)*conj(z3)^2)",
     "64:70:linear:3", "6c854d20506c3225be76a16c2e79dab80b5ad99659a0d93a82b06f6009770709"),
    ("2", "11",
     "HP(5/3*conj(z1) - 2*z1*conj(z1) + 5/3*conj(z1) + (1-2*i)*z1^2 - i*z1*z2*conj(z2) + 2; "
     "2*z1 - i*z1*z2*conj(z1) - 3/4 - 3*conj(z1)*conj(z2) - 3) * "
     "T(2*z2*conj(z1)^2 - 2*z1*conj(z1)*conj(z2) + (1-2*i) - 3 - i*z1^2*z2)",
     "30:34:linear:2", "4e543519636e4834ff1ea2056ec313dfa1ce54b45a1d627ee7306abf2c22b50f"),
])
def test_dense_norms_csv_stdout_is_pinned(capsys, n, m, op, t, digest):
    code, out = run(capsys, "norms", "-n", n, "-m", m, "--op", op, "--t", t)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_norms_then_fit_round_trip(capsys, tmp_path):
    code, out = run(
        capsys,
        "norms", "-n", "1", "-m", "0",
        "--op", "T(z*conj(z)) * T(z*conj(z))",
        "--ray", "ones", "--base", "0",
        "--t", "64:4096:geometric",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,alpha,squared_norm"
    assert lines[1] == f"64,64,{65 ** 4}"
    csv_path = tmp_path / "norms.csv"
    csv_path.write_text(out)

    code, fit_out = run(capsys, "fit", str(csv_path), "--predicted", "2", "--format", "json")
    assert code == 0
    outputs = json.loads(fit_out)["outputs"]
    assert abs(outputs["fitted_exponent"] - 2.0) <= 0.05
    assert outputs["predicted_exponent"] == "2"


def test_norms_default_base_uses_validity_range(capsys):
    code, out = run(
        capsys,
        "norms", "-n", "1", "-m", "0",
        "--op", "HP(conj(z)^2; conj(z)^2)",
        "--t", "4:8:linear:4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    # base (4,), so t=4 lands on alpha=8 with exact value (4*8+2)^2
    assert lines[1] == f"4,8,{34 ** 2}"


def test_norms_jobs_deterministic(capsys):
    args = [
        "norms", "-n", "1", "-m", "2",
        "--op", "T(z + conj(z))",
        "--t", "64:512:geometric",
    ]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_reports_are_byte_identical(capsys):
    args = [
        "classify", "hankel-compact", "-n", "1", "-m", "3",
        "-f", "z^5+7*conj(z)", "--format", "json",
    ]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_orthonormality_small(capsys):
    code, out = run(
        capsys,
        "verify", "orthonormality", "-n", "1,2", "-m", "0,1", "--max-order", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["passed"] is True


def test_verify_closed_form_small(capsys):
    code, out = run(
        capsys,
        "verify", "hankel-closed-form", "-n", "1", "-m", "0,1",
        "--max-component", "1", "--max-alpha", "4",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["passed"] is True


@pytest.mark.parametrize(
    "grid",
    [((1,), (0,), 3, 1), ((1, 2), (0, 1), 1, 3), ((1, 2), (2,), 2, 2), ((2,), (0, 0), 0, 0)],
)
def test_closed_form_case_count_is_the_sweep_count(grid):
    from fockop.verify import closed_form_case_count, sweep_hankel_closed_form

    assert closed_form_case_count(*grid) == sweep_hankel_closed_form(*grid).cases


def test_closed_form_cases_are_counted_exactly(capsys, monkeypatch):
    from fockop import cli as cli_mod
    from fockop.verify import ClosedFormSweep, closed_form_case_count

    # (c+1)^4 (a+1) exponent tuples times alphas per component would be 3.4e9
    assert closed_form_case_count((2,), (0,), 10, 3) == 19_963_024
    assert closed_form_case_count((1, 2), (0, 1, 2), 2, 12) == 2_481_570  # the defaults
    grids = []

    def stub(n_values, m_values, max_component, max_alpha, jobs=1):
        grids.append((n_values, m_values, max_component, max_alpha))
        return ClosedFormSweep(cases=19_963_024)

    monkeypatch.setattr(cli_mod.verify_mod, "sweep_hankel_closed_form", stub)
    code, out = run(capsys, "verify", "hankel-closed-form", "-n", "2", "-m", "0",
                    "--max-component", "10", "--max-alpha", "3")
    assert code == 0
    assert grids == [((2,), (0,), 10, 3)]
    assert out.startswith("PASS  closed-form vs composition: 19963024 cases exact")


def test_verify_oracle_deterministic_only(capsys):
    code, out = run(
        capsys,
        "verify", "oracle", "-n", "1", "-m", "0,1", "--max-order", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["passed"] is True


def test_norms_json_and_csv_carry_identical_numbers(capsys):
    args = [
        "norms", "-n", "1", "-m", "0",
        "--op", "HP(conj(z)^2; conj(z)^2)",
        "--t", "64:256:geometric",
    ]
    _, csv_out = run(capsys, *args)
    _, json_out = run(capsys, *args, "--format", "json")
    csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    json_rows = json.loads(json_out)["outputs"]["samples"]
    assert len(csv_rows) == len(json_rows)
    for (t, alpha, norm), row in zip(csv_rows, json_rows):
        assert row == {"t": int(t), "alpha": alpha, "squared_norm": norm}


def test_fit_reads_stdin(capsys, monkeypatch):
    csv = "t,alpha,squared_norm\n" + "".join(
        f"{t},{t},{(t + 1) ** 2}\n" for t in (64, 128, 256, 512)
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(csv))
    code, out = run(capsys, "fit", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["outputs"]["fitted_exponent"] - 1.0) <= 0.05


def test_fit_reports_degenerate_ray(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text(
        "t,alpha,squared_norm\n64,64,0\n128,128,0\n256,256,0\n512,512,0\n"
    )
    code, out = run(capsys, "fit", str(path), "--format", "json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["degenerate"] is True
    assert outputs["fitted_exponent"] is None


def test_internal_invariant_violation_exits_1(capsys, monkeypatch):
    from fockop import cli as cli_mod
    from fockop.errors import InternalInvariantError

    def boom(args):
        raise InternalInvariantError("cannot add unlike radicands 2 and 3")

    monkeypatch.setattr(cli_mod, "_cmd_parse", boom)
    code = cli_mod.main(["parse", "-n", "1", "-f", "z"])
    assert code == 1
    assert "invariant" in capsys.readouterr().err


def test_failed_verification_exits_1(capsys, monkeypatch):
    from fockop import cli as cli_mod
    from fockop.verify import OrthonormalityResult

    def failing(n_values, m_values, max_order, jobs=1):
        return OrthonormalityResult(pairs_checked=1, failures=["n=1 m=0: broken"])

    monkeypatch.setattr(cli_mod.verify_mod, "verify_orthonormality", failing)
    code = cli_mod.main(["verify", "orthonormality", "-n", "1", "-m", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


# Inputs that must exit 2, each with text its one error line contains.
BAD_INPUT_CASES = [
    (("apply", "-n", "1", "--op", "T(z)", "--alpha", "-1"), "must be >= 0"),
    (("verify", "hankel-closed-form", "-n", "0"), "dimension n must be >= 1"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1:5:linear:x"), "step must be an integer"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1:5:linear:0"), "step >= 1"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "64:4096:geometric:0"), "factor >= 2"),
    (("fit", "-", "--predicted", "x"), "--predicted"),
    (("fit", "-", "--predicted", "1/0"), "--predicted"),
    (("classify", "toeplitz", "-n", "1", "-m", "-3", "-f", "z"), "weight order m must be >= 0"),
    (("verify", "orthonormality", "-n", "1,2", "-m", "0,-1"), "weight order m must be >= 0"),
    (("verify", "hankel-closed-form", "--max-alpha", "-1"), "--max-alpha must be >= 0"),
    (("verify", "hankel-closed-form", "--max-component", "-1"), "--max-component must be >= 0"),
    (("verify", "orthonormality", "--max-order", "-1"), "--max-order must be >= 0"),
    (("apply", "-n", "1", "--op", "T(z^100000000)", "--alpha", "0"), "at position 4"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1:100000000:linear"), "at most 10000"),
    (("apply", "-n", "1", "--op", "HP(z;zz)", "--alpha", "1"), "at position 5"),
    (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "0"), "error: unrecognized arguments: --tol"),
    (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "-1"), "error: unrecognized arguments: --tol"),
    (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "nan"), "error: unrecognized arguments: --tol"),
    (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "inf"), "error: unrecognized arguments: --tol"),
    (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "1e-17"), "error: unrecognized arguments: --tol"),
    (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "1e-9"), "error: unrecognized arguments: --tol"),
    (("verify", "oracle", "-n", "2", "--seed", "-1"), "--seed must be >= 0"),
    (("apply", "-n", "1", "--op", "T(z)", "--alpha", "1000000001"), "--alpha reaches |alpha| = 1000000001"),
    (("apply", "-n", "2", "--op", "T(z1)", "--alpha", "999999999|2"), "--alpha reaches"),
    (("norms", "-n", "1", "--op", "T(z)", "--base", "1000000001", "--t", "1:2:linear"), "--base reaches"),
    (("norms", "-n", "1", "--op", "T(z)", "--ray", "1000000001", "--t", "1:2:linear"), "--ray reaches"),
    (("norms", "-n", "1", "--op", "T(z)", "--base", "999999999", "--t", "1:2:linear"), "--t reaches"),
    (("norms", "-n", "2", "--op", "T(z1)", "--t", "1:1000000000:geometric"), "--t reaches"),
    (("parse", "-n", "3", "-f", "(z1+z2+z3+conj(z1)+conj(z2)+conj(z3)+1)^40"), "MAX_SYMBOL_TERMS"),
    (("parse", "-n", "1", "-f", "\u0661*z"), "-f: unexpected character '\u0661' (at position 0"),
    (("parse", "-n", "1", "-f", "z^\u00b2"), "-f: unexpected character '\u00b2' (at position 2"),
    (("verify", "hankel-closed-form", "--jobs", "0"), "--jobs must be >= 1, got 0"),
    (("verify", "orthonormality", "--jobs", "-2"), "--jobs must be >= 1, got -2"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1:2:linear", "--jobs", "0"), "--jobs must be >= 1"),
    (("verify", "oracle", "-n", "1", "-m", "0", "--max-order", "200"), "--max-order 200"),
    (("verify", "oracle", "-n", "1", "-m", "0", "--max-order", "99"), "MAX_QUAD_ORDER = 98"),
    (("verify", "oracle", "-n", "1,2", "-m", "300", "--max-order", "0"), "--max-order 0 with m up to 300"),
    (("apply", "-n", "1", "-m", "100000", "--op", "T(z)", "--alpha", "1"), "MAX_WEIGHT_ORDER = 1000"),
    (("norms", "-n", "1", "-m", "1001", "--op", "T(z)", "--t", "1:4:linear"), "m = 1001 exceeds MAX_WEIGHT_ORDER"),
    (("verify", "oracle", "-n", "2", "-m", "0,1000000000"), "MAX_WEIGHT_ORDER = 1000"),
    (("parse", "-n", "33", "-f", "z1"), "dimension n = 33 exceeds MAX_DIMENSION = 32"),
    (("verify", "orthonormality", "-n", "40", "--max-order", "2"), "MAX_DIMENSION = 32"),
    (("verify", "orthonormality", "-n", "1", "--max-order", "100000000"), "--max-order ask for more than MAX_VERIFY_PAIRS"),
    (("verify", "orthonormality", "-n", "32", "--max-order", "4"), "MAX_VERIFY_PAIRS = 100000000 basis pairs"),
    (("verify", "hankel-closed-form", "-n", "9", "--max-alpha", "0"), "--max-alpha ask for more than MAX_VERIFY_CASES"),
    (("verify", "hankel-closed-form", "-n", "1", "--max-component", "10" * 1000), "MAX_VERIFY_CASES = 100000000"),
    (("verify", "oracle", "-n", "2", "--samples", "1000000000000"), "--samples with -n, -m and --max-order ask"),
    (("verify", "oracle", "-n", "1,32", "--max-order", "4"), "MAX_VERIFY_EVALUATIONS = 10000000000"),
    (("classify", "hankel-product", "-n", "1", "-f", "z", "-g", "z2"), "-g: variable index 2 out of 1..1"),
    (("classify", "hankel-product", "-n", "1", "-f", "z3", "-g", "z"), "-f: variable index 3"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "5:3:geometric"), "--t: need 0 < lo <= hi"),
    (("norms", "-n", "1", "--op", "T(z", "--t", "1:2:linear"), "--op: expected ')'"),
    (("norms", "-n", "1", "--op", "T(z)", "--ray", "0", "--t", "1:2:linear"), "--ray: ray direction"),
    (("apply", "-n", "1", "--op", "T(z)", "--alpha", "x"), "--alpha: bad multi-index"),
    (("verify", "oracle", "-n", "2", "--samples", "1"), "--samples: Monte Carlo needs at least 2 samples"),
    (("parse", "-n", "1", "-f", "z", "--format", "yaml"), "argument --format: invalid choice: 'yaml'"),
    (("parse", "-n", "one", "-f", "z"), "argument -n: not an integer: 'one'"),
    (("verify", "oracle", "-n", "1,x"), "argument -n: expected a comma-separated integer list"),
    (("norms", "-n", "1"), "the following arguments are required: --op"),
    (("bogus",), "argument command: invalid choice"),
    (("parse", "-n", "1", "-f", "(" * 101 + "z" + ")" * 101), "-f: more than MAX_SYMBOL_NESTING = 100 nested parentheses (at position 100:"),
    (("classify", "hankel-product", "-n", "1", "-f", "z", "-g", "(" * 101 + "z" + ")" * 101), "-g: more than MAX_SYMBOL_NESTING = 100"),
    (("apply", "-n", "1", "--op", "T(" + "(" * 101 + "z" + ")" * 101 + ")", "--alpha", "1"), "--op: more than MAX_SYMBOL_NESTING = 100 nested parentheses (at position 102:"),
    (("norms", "-n", "1", "--op", "HP(z; " + "(" * 101 + "z" + ")" * 101 + ")", "--t", "1:2:linear"), "--op: more than MAX_SYMBOL_NESTING = 100 nested parentheses (at position 106:"),
    (("apply", "-n", "1", "--op", " * ".join(["T(z)"] * 101), "--alpha", "1"), "--op: more than MAX_OPERATOR_FACTORS = 100 composed factors (at position 698:"),
    (("norms", "-n", "1", "--op", " * ".join(["T(z)"] * 1000), "--t", "1:2:linear"), "--op: more than MAX_OPERATOR_FACTORS = 100 composed factors (at position 698:"),
]

BAD_INPUT_IDS = [
    "negative-alpha",
    "verify-n0",
    "t-step-not-int",
    "t-linear-step-0",
    "t-geometric-step-0",
    "fit-predicted-not-rational",
    "fit-predicted-zero-denominator",
    "classify-negative-m",
    "verify-negative-m",
    "verify-negative-max-alpha",
    "verify-negative-max-component",
    "verify-negative-max-order",
    "symbol-degree-bound",
    "t-count-bound",
    "op-error-absolute-position",
    "oracle-tol-zero",
    "oracle-tol-negative",
    "oracle-tol-nan",
    "oracle-tol-inf",
    "oracle-tol-below-float-resolution",
    "oracle-tol-is-no-flag",
    "oracle-seed-negative",
    "alpha-order-bound",
    "alpha-order-bound-sums-components",
    "base-order-bound",
    "ray-order-bound",
    "t-range-order-bound",
    "geometric-t-range-order-bound",
    "symbol-term-bound",
    "symbol-non-ascii-digit",
    "symbol-superscript-exponent",
    "verify-jobs-0",
    "verify-jobs-negative",
    "norms-jobs-0",
    "oracle-quadrature-order-bound",
    "oracle-quadrature-order-just-past-bound",
    "oracle-quadrature-order-bound-counts-m",
    "weight-order-bound",
    "weight-order-bound-norms",
    "weight-order-bound-verify-grid",
    "dimension-bound",
    "dimension-bound-verify",
    "orthonormality-pairs-bound",
    "orthonormality-pairs-bound-not-enumerated",
    "closed-form-cases-bound",
    "closed-form-cases-bound-huge-flag",
    "oracle-evaluations-bound",
    "oracle-evaluations-bound-dimension",
    "g-names-flag",
    "f-names-flag",
    "t-geometric-empty-names-flag",
    "op-names-flag",
    "ray-names-flag",
    "alpha-names-flag",
    "samples-names-flag",
    "argparse-invalid-choice",
    "argparse-invalid-int",
    "argparse-invalid-type",
    "argparse-missing-required",
    "argparse-unknown-command",
    "symbol-nesting-bound",
    "symbol-nesting-bound-names-flag",
    "op-symbol-nesting-bound",
    "op-hankel-symbol-nesting-bound",
    "op-factor-bound",
    "op-factor-bound-norms",
]


@pytest.mark.parametrize("argv, message", BAD_INPUT_CASES, ids=BAD_INPUT_IDS)
def test_bad_input_exits_2(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


# Integers on the command line are an optional '-' and ASCII digits only,
# although Python's int() reads '1_0' as 10, strips spaces and reads other
# scripts' digits ('٣' is an Arabic-Indic three).
STRICT_INT_CASES = [
    (("apply", "-n", "1", "--op", "T(z)", "--alpha", "1_0"), "--alpha"),
    (("apply", "-n", "1", "--op", "T(z)", "--alpha", " 1 "), "--alpha"),
    (("apply", "-n", "1", "--op", "T(z)", "--alpha", "٣"), "--alpha"),
    (("apply", "-n", "2", "--op", "T(z1)", "--alpha", "1|+2"), "--alpha"),
    (("norms", "-n", "1", "--op", "T(z)", "--ray", "١", "--t", "1:2:linear"), "--ray"),
    (("norms", "-n", "1", "--op", "T(z)", "--base", "1_0", "--t", "1:2:linear"), "--base"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1_0:20:linear"), "--t"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1: 2:linear"), "--t"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1:20:linear:٢"), "--t"),
    (("verify", "oracle", "-n", " 1", "-m", "0", "--max-order", "1"), "-n"),
    (("verify", "oracle", "-n", "1", "-m", "0,1_0", "--max-order", "1"), "-m"),
    (("parse", "-n", " 1", "-f", "z"), "-n"),
    (("parse", "-n", "+1", "-f", "z"), "-n"),
    (("classify", "toeplitz", "-n", "1", "-m", "1_0", "-f", "z"), "-m"),
    (("apply", "-n", "١", "--op", "T(z)", "--alpha", "1"), "-n"),
    (("apply", "-n", "1", "-m", "0 ", "--op", "T(z)", "--alpha", "1"), "-m"),
    (("norms", "-n", "1", "--op", "T(z)", "--t", "1:2:linear", "--jobs", " 1"), "--jobs"),
    (("verify", "orthonormality", "-n", "1", "--jobs", "+1"), "--jobs"),
    (("verify", "orthonormality", "-n", "1", "--max-order", "1_0"), "--max-order"),
    (("verify", "hankel-closed-form", "-n", "1", "--max-component", " 2"), "--max-component"),
    (("verify", "hankel-closed-form", "-n", "1", "--max-alpha", "٣"), "--max-alpha"),
    (("verify", "oracle", "-n", "2", "--seed", "+5"), "--seed"),
    (("verify", "oracle", "-n", "2", "--samples", "1_000"), "--samples"),
]


@pytest.mark.parametrize(
    "argv, flag",
    STRICT_INT_CASES,
    ids=[
        "alpha-underscore",
        "alpha-spaces",
        "alpha-arabic-indic-digit",
        "alpha-plus-sign",
        "ray-arabic-indic-digit",
        "base-underscore",
        "t-bound-underscore",
        "t-bound-space",
        "t-step-arabic-indic-digit",
        "verify-n-space",
        "verify-m-underscore",
        "parse-n-space",
        "parse-n-plus-sign",
        "classify-m-underscore",
        "apply-n-arabic-indic-digit",
        "apply-m-trailing-space",
        "norms-jobs-space",
        "verify-jobs-plus-sign",
        "verify-max-order-underscore",
        "verify-max-component-space",
        "verify-max-alpha-arabic-indic-digit",
        "verify-seed-plus-sign",
        "verify-samples-underscore",
    ],
)
def test_integers_are_ascii_digits_only(capsys, argv, flag):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert flag in lines[0]


@pytest.mark.parametrize("t_text", ["1_6", " 16 ", "١٦"])
def test_fit_reads_ascii_t_values_only(capsys, monkeypatch, t_text):
    rows = [f"{t_text},16,5"] + [f"{t},{t},{t}" for t in (32, 64, 128)]
    monkeypatch.setattr("sys.stdin", io.StringIO("t,alpha,squared_norm\n" + "\n".join(rows) + "\n"))
    code = main(["fit", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: line 2: bad sample {rows[0].strip()!r}"]


# The norms CSV below, with the squared norm of its first row replaced.
FIT_ROWS = ["16,16,{}", "32,32,32", "64,64,64", "128,128,128"]


def fit_csv(first_norm):
    return "t,alpha,squared_norm\n" + "\n".join(FIT_ROWS).format(first_norm) + "\n"


# Rationals are what ``norms`` writes ('-3', '3/2') or a plain decimal
# ('2.5'), in ASCII; Python's Fraction() also reads spaces, '_', '+',
# exponents and other scripts' digits.
NOT_RATIONAL = ["٣", " 3", "3 ", "1_0", "+3", "1e3", ".5", "3.", "3/ 2", "-٣/2"]


@pytest.mark.parametrize("text", NOT_RATIONAL)
def test_predicted_is_an_ascii_rational(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(fit_csv(16)))
    code = main(["fit", "-", f"--predicted={text}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --predicted must be a rational like '3/2', got {text!r}"]


@pytest.mark.parametrize("text", [t for t in NOT_RATIONAL if not t.endswith(" ")] + ["5/0"])
def test_fit_reads_ascii_squared_norms_only(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(fit_csv(text)))
    code = main(["fit", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: line 2: bad sample {FIT_ROWS[0].format(text)!r}"]


@pytest.mark.parametrize("predicted, norm", [("2", "16"), ("3/2", "32/2"), ("-1/2", "16.0"), ("0.5", "16.000")])
def test_fit_reads_fractions_and_decimals(capsys, monkeypatch, predicted, norm):
    monkeypatch.setattr("sys.stdin", io.StringIO(fit_csv(norm)))
    code, out = run(capsys, "fit", "-", f"--predicted={predicted}", "--format", "json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["predicted_exponent"] == str(Fraction(predicted))
    assert outputs["fitted_exponent"] == pytest.approx(0.5)


# The oracle's seed and sample count, each refused with its own message
# before any stage runs.
ORACLE_FLAG_CASES = [
    ("--seed", "-1", "error: --seed must be >= 0, got -1"),
    ("--seed", "x", "error: argument --seed: not an integer: 'x'"),
    ("--seed", " 5", "error: argument --seed: not an integer: ' 5'"),
    ("--seed", "1_0", "error: argument --seed: not an integer: '1_0'"),
    ("--seed", "٣", "error: argument --seed: not an integer: '٣'"),
    ("--seed", "+7", "error: argument --seed: not an integer: '+7'"),
    ("--samples", "abc", "error: argument --samples: not an integer: 'abc'"),
    ("--samples", "1000 ", "error: argument --samples: not an integer: '1000 '"),
    ("--samples", "1_000", "error: argument --samples: not an integer: '1_000'"),
    ("--samples", "١٠٠٠", "error: argument --samples: not an integer: '١٠٠٠'"),
    ("--samples", "+1000", "error: argument --samples: not an integer: '+1000'"),
    ("--samples", "1", "error: --samples: Monte Carlo needs at least 2 samples"),
]


def oracle_flag_argv(flag, value):
    return ["verify", "oracle", "-n", "1,2", "--max-order", "1", f"{flag}={value}"]


@pytest.mark.parametrize(
    "flag, value, message",
    ORACLE_FLAG_CASES,
    ids=[
        "seed-negative",
        "seed-letter",
        "seed-space",
        "seed-underscore",
        "seed-arabic-indic-digit",
        "seed-plus-sign",
        "samples-letters",
        "samples-trailing-space",
        "samples-underscore",
        "samples-arabic-indic-digit",
        "samples-plus-sign",
        "samples-too-few",
    ],
)
def test_bad_oracle_flag_exits_2(capsys, flag, value, message):
    code = main(oracle_flag_argv(flag, value))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


# Environment variables the oracle once read, each with values that would
# have changed its output or failed it; the command reads none of them.
ORACLE_ENVIRONMENT = {
    # a tolerance this loose would fail the n=1 check's 1e-10 bound
    "FOCKOP_TOL": ["1e-9"],
    "FOCKOP_SEED": ["99", "-1", "x", "+7"],
    "FOCKOP_SAMPLES": ["30000", "1", "abc", "1_000"],
}


def test_quadrature_tolerance_is_not_read_from_the_environment(capsys, monkeypatch):
    # the n=1 routes and Monte Carlo at n=2, whose detail names the seed and samples
    argv = ["verify", "oracle", "-n", "1,2", "-m", "0", "--max-order", "1", "--samples", "2000"]
    code, unset = run(capsys, *argv)
    assert code == 0
    assert "(2000 samples, seed 20417)" in unset
    for name, values in ORACLE_ENVIRONMENT.items():
        for value in values:
            monkeypatch.setenv(name, value)
            code, out = run(capsys, *argv)
            assert code == 0, (name, value)
            assert out == unset, (name, value)
        monkeypatch.delenv(name)


@pytest.mark.parametrize("samples", ["1", "-5", "0"])
def test_too_few_samples_exit_2_before_the_quadrature_stage(capsys, monkeypatch, samples):
    from fockop import cli as cli_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("the n=1 stage ran before --samples was checked")

    monkeypatch.setattr(cli_mod.verify_mod, "verify_oracle_deterministic", unreachable)
    code = main(["verify", "oracle", "-n", "1,2", "-m", "0,1,2,3", "--max-order", "80", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: --samples: Monte Carlo needs at least 2 samples" in captured.err


def test_fit_missing_file_exits_2(capsys, tmp_path):
    path = str(tmp_path / "missing.csv")
    code = main(["fit", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert path in captured.err


# the first bytes of an ELF executable: 0xd0 at byte 24 starts no UTF-8 sequence
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(16) + b"\xd0\x67\x00\x00"


def test_fit_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(NOT_UTF8)
    code = main(["fit", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(path) in captured.err and "not UTF-8 text" in captured.err


def test_fit_non_utf8_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    code = main(["fit", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot read 'stdin': not UTF-8 text" in captured.err


def test_fit_non_utf8_stdin_of_a_process_exits_2():
    # the text layer of a process's stdin may escape undecodable bytes
    # (as under a C locale) and never raise; fit must still name the encoding
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8:surrogateescape"}
    proc = subprocess.run(
        [sys.executable, "-m", "fockop.cli", "fit", "-"],
        input=NOT_UTF8, capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"cannot read 'stdin': not UTF-8 text" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("norms", "-n", "1", "-m", "0", "--op", "T(z)", "--t", "1:5000:linear"),  # closed while printing
    ("parse", "-n", "1", "-f", "z"),  # closed before the final flush
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    from fockop.cli import EXIT_CLOSED_STDOUT

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fockop.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT == 141
    assert err == b""


def _digits(x: int) -> str:
    # decimal's conversion does not go through int's digit limit
    from decimal import Decimal

    return str(Decimal(x))


def _fockop_process(argv, limit):
    """``fockop argv`` in a new interpreter, with PYTHONINTMAXSTRDIGITS set
    to ``limit`` (unset when None): (exit code, stdout, stderr)."""
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = src
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = str(limit)
    proc = subprocess.run(
        [sys.executable, "-m", "fockop.cli", *argv], capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


NINES = 10**2200 - 1  # 2200 nines


@pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "limit-640"])
def test_long_exact_values_print_every_digit_under_any_int_limit(limit):
    nines = _digits(NINES)
    code, out, err = _fockop_process(("parse", "-n", "1", "-f", f"{nines}^2"), limit)
    assert (code, "Traceback" in err) == (0, False)
    assert out == f"canonical: {_digits(NINES**2)}\nterms: 1\n"

    # T(N z) T(N z) e_1 = N^2 ||z^3||/||z|| e_3 = N^2 sqrt(6) e_3 at n = 1, m = 0
    code, out, err = _fockop_process(
        ("apply", "-n", "1", "-m", "0", "--op", f"T({nines}*z)*T({nines}*z)", "--alpha", "1"), limit
    )
    assert (code, "Traceback" in err) == (0, False)
    assert out == f"e_3: ({_digits(NINES**2)})*sqrt(6)\nsquared norm: {_digits(6 * NINES**4)}\n"


def test_long_numbers_read_the_same_under_any_int_limit():
    seven_hundred = "9" * 700
    parsed = [_fockop_process(("parse", "-n", "1", "-f", seven_hundred), limit) for limit in (None, 640)]
    assert parsed[0] == parsed[1]
    assert parsed[0][:2] == (0, f"canonical: {seven_hundred}\nterms: 1\n")
    # the grammar's own bound, MAX_NUMBER_DIGITS, rejects a longer number at its position
    from fockop.symbols import MAX_NUMBER_DIGITS

    too_long = "z + " + "9" * (MAX_NUMBER_DIGITS + 1)
    rejected = [_fockop_process(("parse", "-n", "1", "-f", too_long), limit) for limit in (None, 640)]
    assert rejected[0] == rejected[1]
    code, out, err = rejected[0]
    assert (code, out) == (2, "")
    assert err.startswith("error: -f: number too long: more than MAX_NUMBER_DIGITS = 4300 digits (at position 4:")
    assert _fockop_process(("parse", "-n", "1", "-f", "9" * MAX_NUMBER_DIGITS), 640)[0] == 0


# ---------------------------------------------------------------------------
# process fan-out: output independent of --jobs, no process left behind


@pytest.fixture
def two_cpus(monkeypatch):
    """Let --jobs 2 and 3 fork workers even on a one-CPU machine."""
    from fockop import parallel

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)


def assert_no_children():
    import multiprocessing
    import os

    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "hankel-closed-form", "-n", "1,2", "-m", "0,1",
         "--max-component", "1", "--max-alpha", "3", "--format", "json"),
        ("verify", "orthonormality", "-n", "1,2", "-m", "0,1,2", "--max-order", "4",
         "--format", "json"),
    ],
    ids=["hankel-closed-form", "orthonormality"],
)
def test_verify_json_is_identical_for_every_jobs(capsys, two_cpus, argv):
    outputs = []
    for jobs in ("1", "2", "3"):
        code, out = run(capsys, *argv, "--jobs", jobs)
        assert code == 0
        assert_no_children()
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["outputs"]["passed"] is True


@pytest.fixture
def broken_closed_form(monkeypatch):
    """A closed form that is off by a factor 2 at alpha_1 = 2: the sweep's
    monomial-basis walk, and the per-case ``closed_form_case_reference``
    that ``reference.closed_form_sweep_block`` reads."""
    import reference

    from fockop import verify

    real_walk = verify._closed_form_monomial_coeffs
    real_case = reference.closed_form_case_reference

    def walk_off(beta, gamma, mu, nu, alphas, sp, memo=None):
        coeffs = real_walk(beta, gamma, mu, nu, alphas, sp, memo)
        return [
            (target, 2 * num if alpha[0] == 2 else num, den)
            for alpha, (target, num, den) in zip(alphas, coeffs)
        ]

    def case_off(beta, gamma, mu, nu, alpha, sp):
        target, value = real_case(beta, gamma, mu, nu, alpha, sp)
        return target, value.scale(2) if alpha[0] == 2 else value

    monkeypatch.setattr(verify, "_closed_form_monomial_coeffs", walk_off)
    monkeypatch.setattr(reference, "closed_form_case_reference", case_off)


def test_failing_sweep_lists_are_identical_for_every_jobs(capsys, two_cpus, broken_closed_form):
    from fockop.verify import sweep_hankel_closed_form

    args = ((1, 2), (0, 1), 1, 3)
    serial = sweep_hankel_closed_form(*args, jobs=1)
    forked = sweep_hankel_closed_form(*args, jobs=2)
    assert_no_children()
    assert serial.mismatches
    assert vars(serial) == vars(forked)

    argv = ("verify", "hankel-closed-form", "-n", "1,2", "-m", "0,1",
            "--max-component", "1", "--max-alpha", "3", "--format", "json")
    code1, out1 = run(capsys, *argv, "--jobs", "1")
    code2, out2 = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 1
    assert out1 == out2


# Blocks of the sweep that both routes run: every beta at n=1
# (--max-component 2) and n=2 (--max-component 1), one beta at n=3, and
# one at n=1 (--max-component 4) whose gamma = (4,) lies farther than
# --max-alpha 3 from beta, so ``_sweep_block`` skips that gamma's tuples
# together.
REFERENCE_BLOCKS = (
    [(1, (b,), 2) for b in range(3)]
    + [(2, (b1, b2), 1) for b1 in range(2) for b2 in range(2)]
    + [(3, (1, 0, 1), 1)]
    + [(1, (0,), 4)]
)


@pytest.mark.parametrize("broken", [False, True], ids=["plain", "broken"])
@pytest.mark.parametrize("m", [0, 1, 7])
def test_sweep_block_matches_the_per_case_reference(request, m, broken):
    from reference import closed_form_sweep_block

    from fockop.verify import _sweep_block

    if broken:
        request.getfixturevalue("broken_closed_form")
    mismatches = 0
    for n, beta, max_component in REFERENCE_BLOCKS:
        task = (n, m, beta, max_component, 3)
        batched = _sweep_block(task)
        assert vars(batched) == vars(closed_form_sweep_block(task)), task
        mismatches += len(batched.mismatches)
    assert bool(mismatches) == broken


def test_stray_support_is_flagged_per_tuple(capsys, monkeypatch):
    from fockop import verify
    from fockop.operators import _pack

    real = verify.hankel_product_apply

    def leaky(f, g, v, **built):
        image = real(f, g, v, **built)
        # the raw sums [re, im, den, radicand] the sweep reads: 1 at z^99
        image._sums[_pack(v.space.n, (99,) * v.space.n)] = [1, 0, 1, 1]
        return image

    monkeypatch.setattr(verify, "hankel_product_apply", leaky)
    sweep = verify.sweep_hankel_closed_form((1,), (0,), 1, 2)
    assert not sweep.mismatches
    assert len(sweep.stray_support) == sweep.tuples == 16  # every tuple has an alpha <= 2
    assert sweep.stray_support[0] == "n=1 m=0 beta=(0,) gamma=(0,) mu=(0,) nu=(0,): stray targets [(99,)]"
    code = main(["verify", "hankel-closed-form", "-n", "1", "-m", "0",
                 "--max-component", "1", "--max-alpha", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith(
        "FAIL  closed-form vs composition: n=1 m=0 beta=(0,) gamma=(0,) mu=(0,) nu=(0,): stray targets [(99,)]"
    )


@pytest.mark.parametrize("m", [0, 1, 7])
def test_closed_form_memo_gives_every_tuple_a_fresh_calls_result(m):
    from itertools import product

    from fockop.errors import InputError
    from fockop.operators import SpaceParams, _closed_form_monomial_coeffs, closed_form_min_alpha
    from fockop.verify import indices_by_component
    from fockop.arith import MultiIndex

    max_alpha = 3
    for n, beta, max_component in REFERENCE_BLOCKS:
        sp = SpaceParams(n, m)
        beta = MultiIndex(beta)
        exps = indices_by_component(n, max_component)
        memo = {}
        below = []  # tuples with an alpha just below their least alpha
        for gamma, mu, nu in product(exps, repeat=3):
            need = closed_form_min_alpha(beta, gamma, mu, nu)
            if max(need) > max_alpha:
                continue
            alphas = [MultiIndex(a) for a in product(*(range(k, max_alpha + 1) for k in need))]
            shared = _closed_form_monomial_coeffs(beta, gamma, mu, nu, alphas, sp, memo)
            assert shared == _closed_form_monomial_coeffs(beta, gamma, mu, nu, alphas, sp), (beta, gamma, mu, nu)
            below += [
                (gamma, mu, nu, j, MultiIndex(need[:j] + [k - 1] + need[j + 1:]))
                for j, k in enumerate(need)
                if k
            ]
        assert below
        for gamma, mu, nu, j, alpha in below:
            # another tuple's component key already holds alpha_j, under its key
            assert any(alpha[j] in seen for key, seen in memo.items() if len(key) == 4)
            with pytest.raises(InputError, match="validity range"):
                _closed_form_monomial_coeffs(beta, gamma, mu, nu, [alpha], sp, memo)


def _one_target_scaled(monkeypatch, pick, fields):
    """Patch the sweep's ``hankel_product_apply``: in each image of a tuple
    for which ``pick(f, g)`` holds, the first nonzero raw sum's fields
    ``[re, im, den, radicand]`` become ``fields(re, im, den, radicand)``."""
    from fockop import verify

    real = verify.hankel_product_apply

    def scaled(f, g, v, **built):
        image = real(f, g, v, **built)
        if pick(f, g):
            for raw in image._sums.values():
                if raw[0] or raw[1]:
                    raw[:] = fields(*raw)
                    break
        return image

    monkeypatch.setattr(verify, "hankel_product_apply", scaled)


def test_raw_sums_are_compared_by_value(monkeypatch):
    from fockop.verify import sweep_hankel_closed_form

    from fockop import operators

    grid = ((1, 2), (0, 1), 1, 3)
    plain = sweep_hankel_closed_form(*grid)
    _one_target_scaled(monkeypatch, lambda f, g: True, lambda re, im, den, r: [7 * re, 7 * im, 7 * den, r])
    # decided on the raw sums alone: no case is a candidate read again
    canonical = []
    monkeypatch.setattr(operators, "_canonical", lambda n, sums: canonical.append(n))
    scaled = sweep_hankel_closed_form(*grid)
    assert canonical == []
    assert not scaled.mismatches and not scaled.stray_support
    assert vars(scaled) == vars(plain)


def test_a_wrong_raw_sum_is_reported_with_the_canonical_text(capsys, monkeypatch):
    from fockop.arith import MultiIndex
    from fockop.operators import SpaceParams, hankel_coeff_closed_form
    from fockop.symbols import SymbolPolynomial
    from fockop.verify import sweep_hankel_closed_form

    # f = conj(z), g = conj(z): the only alpha is (2,), its target (2,)
    zero, one, two = MultiIndex((0,)), MultiIndex((1,)), MultiIndex((2,))
    f = g = SymbolPolynomial.monomial(1, zero, one)
    target, closed = hankel_coeff_closed_form(zero, one, zero, one, two, SpaceParams(1, 1))
    assert target == two and not closed.is_zero()
    _one_target_scaled(monkeypatch, lambda f_, g_: f_ == f and g_ == g, lambda re, im, den, r: [2 * re, 2 * im, den, r])
    sweep = sweep_hankel_closed_form((1,), (1,), 1, 2)
    assert sweep.mismatches == [
        f"n=1 m=1 beta=(0,) gamma=(1,) mu=(0,) nu=(1,) alpha=(2,): closed {closed} vs composition {closed.scale(2)}"
    ]
    assert not sweep.stray_support


def test_sweep_progress_reaches_the_total(two_cpus):
    from fockop.verify import sweep_hankel_closed_form

    calls = []
    sweep = sweep_hankel_closed_form((1, 2), (0,), 1, 2, progress=lambda d, t: calls.append((d, t)), jobs=2)
    assert calls[-1] == (sweep.tuples, sweep.tuples) == (2**4 + 4**4, 2**4 + 4**4)
    assert [d for d, _ in calls] == sorted(d for d, _ in calls)


def test_worker_invariant_violation_exits_1_without_traceback(capsys, monkeypatch, two_cpus):
    from fockop import verify
    from fockop.errors import InternalInvariantError

    def broken(*args):
        raise InternalInvariantError("closed form reached an impossible state")

    monkeypatch.setattr(verify, "_closed_form_monomial_coeffs", broken)
    code = main(["verify", "hankel-closed-form", "-n", "1,2", "-m", "0",
                 "--max-component", "1", "--max-alpha", "2", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "internal invariant violation: closed form reached an impossible state" in captured.err
    assert "Traceback" not in captured.err
    assert_no_children()


def test_norms_fan_out_matches_serial_and_leaves_no_children(capsys, two_cpus):
    args = ("norms", "-n", "2", "-m", "1", "--op", "HP(conj(z1); z2 + conj(z2)) * T(z1*conj(z2))",
            "--t", "1:4:linear")
    code1, out1 = run(capsys, *args, "--jobs", "1")
    code2, out2 = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert_no_children()


def test_deepest_accepted_inputs_run_with_half_the_stack_to_spare(capsys, two_cpus):
    # the parser, the operator tree, its application and the fan-out's
    # pickling all recurse per level; at the bounds they fit in half of
    # the recursion limit, inside the test runner's own frames
    nested = "(" * MAX_SYMBOL_NESTING + "z" + ")" * MAX_SYMBOL_NESTING
    hankel = "HP(conj(z); conj(z))"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit // 2)
    try:
        parsed = run(capsys, "parse", "-n", "1", "-f", nested)
        op = " * ".join([f"T({nested})"] + [hankel] * (MAX_OPERATOR_FACTORS - 1))
        applied = run(capsys, "apply", "-n", "1", "--op", op, "--alpha", "3")
        op = " * ".join([hankel] * MAX_OPERATOR_FACTORS)
        fanned = run(capsys, "norms", "-n", "1", "--op", op, "--t", "1:2:linear", "--jobs", "2")
    finally:
        sys.setrecursionlimit(limit)
    assert parsed == (0, "canonical: z\nterms: 1\n")
    assert applied == (0, "e_4: 2\nsquared norm: 4\n")
    assert fanned == (0, "t,alpha,squared_norm\n1,3,1\n2,4,1\n")
    assert_no_children()

def test_oracle_non_finite_estimate_fails(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "oracle", "-n", "3", "-m", "300", "--max-order", "2", "--samples", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("FAIL  n=3 Monte Carlo bracket: 10 cases, max inf sigmas")
    assert "RuntimeWarning" not in captured.err
    assert [str(w.message) for w in caught] == []


# ``verify oracle -n 1 --format json`` stdout: the n=1 quadrature/Gamma
# agreement and its printed relative error, pinned by the sha256 of the
# whole stdout.
@pytest.mark.parametrize("argv, digest", [
    ((), "b08936fdd566bcabf472b8eab58487bcdf2f92d622482016f6d3334a63e5fa3d"),
    (("-m", "0,8", "--max-order", "90"), "6e8b9c8f715d38d9a6678345328a6a0cf3d82797d66bf358733acaab0479ea9e"),
])
def test_n1_oracle_json_stdout_is_pinned(capsys, argv, digest):
    code, out = run(capsys, "verify", "oracle", "-n", "1", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_largest_quadrature_order_passes(capsys):
    from fockop.oracle import MAX_QUAD_ORDER

    code, out = run(capsys, "verify", "oracle", "-n", "1", "-m", "0",
                    "--max-order", str(MAX_QUAD_ORDER))
    assert code == 0
    assert out.startswith(f"PASS  n=1 quadrature/gamma agreement: {MAX_QUAD_ORDER + 1} cases")


# Settings that a verify check does not read: each is added to a command
# that passes, and must change neither its exit code nor its stdout.
IGNORED_SETTINGS = [
    (("verify", "orthonormality", "-n", "1", "-m", "0", "--max-order", "1"), ("--seed", "-1"), {}),
    (("verify", "orthonormality", "-n", "1", "-m", "0", "--max-order", "1"), (), {"FOCKOP_SEED": "x"}),
    (("verify", "oracle", "-n", "1", "-m", "0", "--max-order", "1"), ("--jobs", "0"), {}),
    (("verify", "oracle", "-n", "1", "-m", "0", "--max-order", "1"), ("--max-alpha", "-3"), {}),
    (("verify", "hankel-closed-form", "-n", "1", "-m", "0", "--max-component", "1", "--max-alpha", "2"),
     ("--max-order", "-1"), {}),
]


@pytest.mark.parametrize(
    "argv, ignored, env",
    IGNORED_SETTINGS,
    ids=[
        "orthonormality-seed",
        "orthonormality-env-seed",
        "oracle-jobs",
        "oracle-max-alpha",
        "closed-form-max-order",
    ],
)
def test_verify_checks_ignore_settings_they_do_not_read(capsys, monkeypatch, argv, ignored, env):
    code, plain = run(capsys, *argv)
    assert code == 0
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out = run(capsys, *argv, *ignored)
    assert code == 0
    assert out == plain


def test_verify_oracle_default_grid(capsys):
    # n=1: m 0..3 times orders 0..8; Monte Carlo at n=2: m 0..2 times the
    # C(2 + 4, 2) indices of order <= 4
    code, out = run(capsys, "verify", "oracle", "-n", "1,2", "--samples", "2000", "--format", "json")
    assert code == 0
    details = [check["detail"] for check in json.loads(out)["outputs"]["checks"]]
    assert [detail.split(" cases")[0] for detail in details] == ["36", "45"]


@pytest.mark.parametrize("predicted", ["-1/2", "-0.5", "-1", "1/2"])
def test_fit_reads_a_negative_predicted_exponent_as_its_own_argument(capsys, monkeypatch, predicted):
    monkeypatch.setattr("sys.stdin", io.StringIO(fit_csv(16)))
    code, out = run(capsys, "fit", "-", "--predicted", predicted, "--format", "json")
    assert code == 0
    assert f'"predicted_exponent": "{Fraction(predicted)}"' in out
