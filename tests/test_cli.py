import hashlib
import io
import json
import warnings

import pytest

from fockop.cli import main


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


def test_verify_oracle_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("FOCKOP_SEED", "99")
    code, out = run(
        capsys,
        "verify", "oracle", "-n", "2", "-m", "0", "--max-order", "2",
        "--samples", "20000", "--seed", "1", "--format", "json",
    )
    assert code == 0
    checks = json.loads(out)["outputs"]["checks"]
    assert any("seed 99" in c["detail"] for c in checks)


def test_verify_oracle_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("FOCKOP_SEED", "not-a-number")
    code = main(["verify", "oracle", "-n", "1", "-m", "0"])
    assert code == 2


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


def test_verify_env_samples_override(capsys, monkeypatch):
    monkeypatch.setenv("FOCKOP_SAMPLES", "30000")
    code, out = run(
        capsys,
        "verify", "oracle", "-n", "2", "-m", "0", "--max-order", "2",
        "--samples", "999", "--format", "json",
    )
    assert code == 0
    checks = json.loads(out)["outputs"]["checks"]
    assert any("30000 samples" in c["detail"] for c in checks)


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


@pytest.mark.parametrize(
    "argv, message",
    [
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
        (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "0"), "--tol must be finite"),
        (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "-1"), "--tol must be finite"),
        (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "nan"), "--tol must be finite"),
        (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "inf"), "--tol must be finite"),
        (("verify", "oracle", "-n", "1", "--max-order", "1", "--tol", "1e-17"), "--tol must be finite"),
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
        (("parse", "-n", "one", "-f", "z"), "argument -n: invalid int value: 'one'"),
        (("verify", "oracle", "-n", "1,x"), "argument -n: expected a comma-separated integer list"),
        (("norms", "-n", "1"), "the following arguments are required: --op"),
        (("bogus",), "argument command: invalid choice"),
    ],
    ids=[
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
    ],
)
def test_bad_input_exits_2(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("FOCKOP_TOL", "0", "FOCKOP_TOL must be finite"),
        ("FOCKOP_TOL", "nan", "FOCKOP_TOL must be finite"),
        ("FOCKOP_SEED", "-1", "FOCKOP_SEED must be >= 0"),
        ("FOCKOP_SEED", "x", "FOCKOP_SEED must be an integer, got 'x'"),
        ("FOCKOP_SAMPLES", "abc", "FOCKOP_SAMPLES must be an integer, got 'abc'"),
        ("FOCKOP_TOL", "small", "FOCKOP_TOL must be a number, got 'small'"),
        ("FOCKOP_SAMPLES", "1", "FOCKOP_SAMPLES: Monte Carlo needs at least 2 samples"),
    ],
)
def test_bad_oracle_environment_exits_2(capsys, monkeypatch, name, value, message):
    monkeypatch.setenv(name, value)
    code = main(["verify", "oracle", "-n", "1,2", "--max-order", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("env, argv_tail, source", [
    ({}, ("--samples", "1"), "--samples"),
    ({}, ("--samples", "-5"), "--samples"),
    ({"FOCKOP_SAMPLES": "0"}, (), "FOCKOP_SAMPLES"),
])
def test_too_few_samples_exit_2_before_the_quadrature_stage(capsys, monkeypatch, env, argv_tail, source):
    from fockop import cli as cli_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("the n=1 stage ran before --samples was checked")

    monkeypatch.setattr(cli_mod.verify_mod, "verify_oracle_deterministic", unreachable)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(["verify", "oracle", "-n", "1,2", "-m", "0,1,2,3", "--max-order", "80", *argv_tail])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {source}: Monte Carlo needs at least 2 samples" in captured.err


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
    """A closed form that is off by a factor 2 at alpha_1 = 2."""
    from fockop import verify

    real = verify.hankel_coeff_closed_form

    def off(beta, gamma, mu, nu, alpha, sp):
        target, value = real(beta, gamma, mu, nu, alpha, sp)
        return target, value.scale(2) if alpha[0] == 2 else value

    monkeypatch.setattr(verify, "hankel_coeff_closed_form", off)


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

    monkeypatch.setattr(verify, "hankel_coeff_closed_form", broken)
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
