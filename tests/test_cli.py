import json

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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["parse", "--bogus"])
    assert err.value.code == 2


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
    import io

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
    from fockop.errors import RadicandMismatchError

    def boom(args):
        raise RadicandMismatchError("cannot add unlike radicands 2 and 3")

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
        (("verify", "hankel-closed-form", "--jobs", "0"), "--jobs must be >= 1, got 0"),
        (("verify", "orthonormality", "--jobs", "-2"), "--jobs must be >= 1, got -2"),
        (("norms", "-n", "1", "--op", "T(z)", "--t", "1:2:linear", "--jobs", "0"), "--jobs must be >= 1"),
        (("verify", "oracle", "-n", "1", "-m", "0", "--max-order", "200"), "--max-order 200"),
        (("verify", "oracle", "-n", "1", "-m", "0", "--max-order", "99"), "MAX_QUAD_ORDER = 98"),
        (("verify", "oracle", "-n", "1,2", "-m", "300", "--max-order", "0"), "--max-order 0 with m up to 300"),
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
        "verify-jobs-0",
        "verify-jobs-negative",
        "norms-jobs-0",
        "oracle-quadrature-order-bound",
        "oracle-quadrature-order-just-past-bound",
        "oracle-quadrature-order-bound-counts-m",
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
    ],
)
def test_bad_oracle_environment_exits_2(capsys, monkeypatch, name, value, message):
    monkeypatch.setenv(name, value)
    code = main(["verify", "oracle", "-n", "1,2", "--max-order", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_fit_missing_file_exits_2(capsys, tmp_path):
    path = str(tmp_path / "missing.csv")
    code = main(["fit", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert path in captured.err


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
        value = real(beta, gamma, mu, nu, alpha, sp)
        return value.scale(2) if alpha[0] == 2 else value

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
    code, out = run(capsys, "verify", "oracle", "-n", "3", "-m", "300", "--max-order", "2",
                    "--samples", "1000")
    assert code == 1
    assert out.startswith("FAIL  n=3 Monte Carlo bracket: 10 cases, max inf sigmas")


def test_oracle_largest_quadrature_order_passes(capsys):
    from fockop.oracle import MAX_QUAD_ORDER

    code, out = run(capsys, "verify", "oracle", "-n", "1", "-m", "0",
                    "--max-order", str(MAX_QUAD_ORDER))
    assert code == 0
    assert out.startswith(f"PASS  n=1 quadrature/gamma agreement: {MAX_QUAD_ORDER + 1} cases")
