"""Workload inputs for the fockop benchmark, and the checks on their outputs.

Every operation is one ``fockop`` command line (an argv list plus
optional stdin text), generated from the workload seed.  A workload
turns a seed into a list of operations and judges each operation's exit
code and stdout; the judgement also yields the number of work items the
operation completed (sweep cases, norm samples, oracle cases, queries).

Why these four workloads (see README.md for the layer map):

* ``closed-form-sweep`` is the shape of the acceptance suite's 273 s
  closed-form fixture: millions of single-term basis actions on small
  integers with a hot transition cache.  It is the only workload that
  passes ``--jobs``, so fan-out is measured on it.
* ``dense-ray-norms`` runs the same exact engine on dense composed
  symbols: many-term images, big integers and mostly cold caches.
* ``oracle-mc`` runs only the floating-point oracle; the exact engine
  is idle.
* ``cli-queries`` is interactive use: short commands where argument
  parsing, the symbol grammar, the classifiers and the error path carry
  the weight.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, List, Optional, Tuple

ORACLE_SAMPLES = 200_000
# Largest Monte Carlo pull (|estimate - exact| / standard error) that is
# not a failure.  The CLI's own 3-sigma check fails by chance on about one
# seed in nine: the pulls are heavy-tailed, because the standard error is
# estimated from the same draws.  Over 198 seeds at 2e5 samples the largest
# pull per run was above 3 sigma 11 times, above 4 sigma twice, and at most
# 4.52; that tail halves about every half sigma, so a chance pull beyond
# 10 sigma is a few in a million per operation.
ORACLE_PULL_LIMIT = 10.0
SWEEP_M_VALUES = (0, 1, 2, 3)
SWEEP_MAX_COMPONENT = 2
SWEEP_MAX_ALPHA = 2
QUERY_MALFORMED_EVERY = 10  # every 10th query is malformed and must exit 2


@dataclass(frozen=True)
class Op:
    argv: Tuple[str, ...]
    stdin: Optional[str] = None
    expect: dict = None  # workload-specific facts the check needs


@dataclass
class Verdict:
    ok: bool
    items: int
    reason: str = ""
    extra: dict = None


def _fail(reason: str) -> Verdict:
    return Verdict(False, 0, reason)


def _load_json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# symbol text generation


def _var(n: int, j: int) -> str:
    return "z" if n == 1 else f"z{j + 1}"


def random_symbol(rng: random.Random, n: int, terms: int, max_degree: int, constants: bool = False) -> str:
    """Text of a random polynomial symbol in z and conj(z)."""
    out = []
    for _ in range(terms):
        exps = [0] * (2 * n)
        for _ in range(rng.randint(0 if constants else 1, max_degree)):
            exps[rng.randrange(2 * n)] += 1
        factors = []
        for k, e in enumerate(exps):
            if e:
                v = _var(n, k % n)
                v = f"conj({v})" if k >= n else v
                factors.append(v if e == 1 else f"{v}^{e}")
        # a leading '-' would make argparse read the symbol as an option
        signs = ("", "-") if out else ("",)
        coeff = rng.choice(signs) + rng.choice(("1", "2", "3", "1/2", "3/4", "5/3", "i", "(1-2*i)"))
        if not factors:
            out.append(coeff)
        elif coeff in ("1", "-1"):
            out.append(coeff[:-1] + "*".join(factors))
        else:
            out.append(coeff + "*" + "*".join(factors))
    return " + ".join(out).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# closed-form-sweep


def closed_form_cases(n: int, max_component: int, max_alpha: int) -> int:
    """Cases one m value contributes to ``verify hankel-closed-form``.

    Counted independently of fockop: alpha ranges over components
    0..max_alpha with alpha_j >= |gamma_j - beta_j| + |mu_j - nu_j|.
    """
    exps = list(product(range(max_component + 1), repeat=n))
    total = 0
    for beta, gamma, mu, nu in product(exps, repeat=4):
        count = 1
        for j in range(n):
            need = abs(gamma[j] - beta[j]) + abs(mu[j] - nu[j])
            count *= max(0, max_alpha + 1 - need)
        total += count
    return total


def sweep_ops(seed: int, count: int) -> List[Op]:
    """Each round shuffles the m values and pairs them up, so every run
    covers all m values evenly whatever the seed."""
    rng = random.Random(seed)
    per_m = closed_form_cases(2, SWEEP_MAX_COMPONENT, SWEEP_MAX_ALPHA)
    ops: List[Op] = []
    while len(ops) < count:
        ms = list(SWEEP_M_VALUES)
        rng.shuffle(ms)
        for a, b in zip(ms[::2], ms[1::2]):
            argv = (
                "verify", "hankel-closed-form", "-n", "2", "-m", f"{a},{b}",
                "--max-component", str(SWEEP_MAX_COMPONENT),
                "--max-alpha", str(SWEEP_MAX_ALPHA), "--format", "json",
            )
            ops.append(Op(argv, expect={"cases": 2 * per_m}))
    return ops[:count]


def check_sweep(op: Op, code: Optional[int], stdout: str) -> Verdict:
    report = _load_json(stdout)
    if code != 0 or report is None:
        return _fail(f"exit {code}")
    outputs = report["outputs"]
    cases = op.expect["cases"]
    checks = outputs["checks"]
    if not outputs["passed"] or not all(c["passed"] for c in checks):
        return _fail("sweep reported a failed check")
    if checks[0]["detail"] != f"{cases} cases exact":
        return _fail(f"expected {cases} cases, got {checks[0]['detail']!r}")
    return Verdict(True, cases)


# ---------------------------------------------------------------------------
# dense-ray-norms


def norms_ops(seed: int, count: int) -> List[Op]:
    """Operators composed of dense symbols (10-20 terms, degree <= 4).

    What drives an operation's cost (operator shape, n, m, term counts,
    the t range) cycles through fixed values, so every run mixes them in
    the same proportions; the seed draws the symbols' monomials and
    coefficients.
    """
    rng = random.Random(seed)
    ops: List[Op] = []
    for k in range(count):
        shape = ("T", "HP")[k % 2]
        n = (2, 3)[(k // 2) % 2]
        m = 6 + (5 * k) % 7
        f = random_symbol(rng, n, 10 + (3 * k) % 11, 4)
        g = random_symbol(rng, n, 10 + (7 * k + 4) % 11, 4)
        expr = f"T({f}) * T({g})" if shape == "T" else f"HP({f}; {g})"
        lo = 64 + (37 * k) % 129
        step = 1 + k % 3
        ts = tuple(range(lo, lo + 3 * step, step))
        argv = (
            "norms", "-n", str(n), "-m", str(m), "--op", expr,
            "--t", f"{ts[0]}:{ts[-1]}:linear:{step}", "--jobs", "1",
        )
        ops.append(Op(argv, expect={"n": n, "ts": ts}))
    return ops


def check_norms(op: Op, code: Optional[int], stdout: str) -> Verdict:
    if code != 0:
        return _fail(f"exit {code}")
    lines = stdout.splitlines()
    ts = op.expect["ts"]
    if not lines or lines[0] != "t,alpha,squared_norm" or len(lines) != len(ts) + 1:
        return _fail("malformed CSV")
    bits = 0
    for t, line in zip(ts, lines[1:]):
        t_text, alpha, value = line.split(",")
        comps = alpha.split("|")
        if int(t_text) != t or len(comps) != op.expect["n"] or min(int(c) for c in comps) < t:
            return _fail(f"bad row {line!r}")
        v = Fraction(value)
        if v < 0:
            return _fail(f"negative squared norm in {line!r}")
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return Verdict(True, len(ts), extra={"bits": bits})


# ---------------------------------------------------------------------------
# oracle-mc


def oracle_ops(seed: int, count: int) -> List[Op]:
    """``verify oracle -n 1,2``; the first command uses the workload seed as
    the oracle seed (numpy needs it non-negative), later ones step away."""
    return [
        Op(
            (
                "verify", "oracle", "-n", "1,2", "--samples", str(ORACLE_SAMPLES),
                "--seed", str(seed % 2**32 + 100_003 * k), "--format", "json",
            )
        )
        for k in range(count)
    ]


_MC_DETAIL = re.compile(r"^(\d+) cases, max ([0-9.]+|inf|nan) sigmas ")
_DET_DETAIL = re.compile(r"^(\d+) cases, max rel err ")


def check_oracle(op: Op, code: Optional[int], stdout: str) -> Verdict:
    report = _load_json(stdout)
    if code not in (0, 1) or report is None:
        return _fail(f"exit {code}")
    det, mc = report["outputs"]["checks"]
    det_match = _DET_DETAIL.match(det["detail"])
    mc_match = _MC_DETAIL.match(mc["detail"])
    if not det["passed"] or det_match is None or mc_match is None:
        return _fail(f"oracle check failed: {det['detail']!r} / {mc['detail']!r}")
    pull = float(mc_match.group(2))
    if not pull <= ORACLE_PULL_LIMIT:
        return _fail(f"Monte Carlo pull {pull} beyond {ORACLE_PULL_LIMIT} sigmas")
    cases = int(det_match.group(1)) + int(mc_match.group(1))
    if cases != 81:
        return _fail(f"expected 81 cases, got {cases}")
    return Verdict(True, cases, extra={"max_sigmas": pull})


# ---------------------------------------------------------------------------
# cli-queries


def _fit_csv(rng: random.Random) -> Tuple[str, Fraction]:
    """Samples c * t^e * (1 + 1/t^2) along a geometric t grid; amplitude exponent e/2."""
    e = rng.randint(0, 6)
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    t0 = rng.choice((16, 32, 64))
    rows = ["t,alpha,squared_norm"]
    for k in range(rng.randint(4, 8)):
        t = t0 << k
        v = c * Fraction(t) ** e * (1 + Fraction(1, t * t))
        rows.append(f"{t},{t}|{t},{v}")
    return "\n".join(rows) + "\n", Fraction(e, 2)


def _valid_query(rng: random.Random) -> Op:
    kind = rng.choice(("parse", "classify", "apply", "fit"))
    n = rng.randint(1, 3)
    m = str(rng.randint(0, 3))
    if kind == "parse":
        f = random_symbol(rng, n, rng.randint(1, 6), 4, constants=True)
        return Op(("parse", "-n", str(n), "-f", f, "--format", "json"), expect={"command": "parse"})
    if kind == "classify":
        which = rng.choice(("toeplitz-product", "hankel-product", "toeplitz", "hankel", "hankel-compact"))
        argv = ["classify", which, "-n", str(n), "-m", m, "-f", random_symbol(rng, n, rng.randint(1, 4), 3, True)]
        if which.endswith("product"):
            argv += ["-g", random_symbol(rng, n, rng.randint(1, 4), 3, True)]
        return Op(tuple(argv) + ("--format", "json"), expect={"command": f"classify {which}"})
    if kind == "apply":
        f = random_symbol(rng, n, rng.randint(1, 3), 3, True)
        g = random_symbol(rng, n, rng.randint(1, 3), 3, True)
        expr = rng.choice((f"T({f})", f"T({f}) * T({g})", f"HP({f}; {g})"))
        alpha = "|".join(str(rng.randint(0, 12)) for _ in range(n))
        argv = ("apply", "-n", str(n), "-m", m, "--op", expr, "--alpha", alpha, "--format", "json")
        return Op(argv, expect={"command": "apply"})
    csv, exponent = _fit_csv(rng)
    return Op(
        ("fit", "-", "--predicted", str(exponent), "--format", "json"),
        stdin=csv,
        expect={"command": "fit", "exponent": exponent},
    )


def _malformed_query(rng: random.Random) -> Op:
    """Inputs the CLI must reject with exit code 2."""
    sym = random_symbol(rng, 2, rng.randint(1, 3), 3)
    variants = (
        ("parse", "-n", "2", "-f", sym + " + * z2", "--format", "json"),
        ("parse", "-n", "2", "-f", sym + " + z3", "--format", "json"),
        ("parse", "-n", "2", "-f", sym + "^", "--format", "json"),
        ("apply", "-n", "2", "--op", f"T({sym})", "--alpha", "1|x", "--format", "json"),
        ("apply", "-n", "2", "--op", f"T({sym}", "--alpha", "1|2", "--format", "json"),
        ("apply", "-n", "2", "--op", f"Q({sym})", "--alpha", "1|2", "--format", "json"),
        ("apply", "-n", "2", "--op", f"T({sym})", "--alpha", "1|2|3", "--format", "json"),
        ("classify", "toeplitz-product", "-n", "2", "-f", sym, "--format", "json"),
        ("classify", "hankel", "-n", "2", "-f", sym, "--format", "yaml"),
    )
    k = rng.randrange(len(variants) + 2)
    if k < len(variants):
        return Op(variants[k], expect={"command": None})
    csv, _ = _fit_csv(rng)
    lines = csv.splitlines()
    bad = lines[:3] if k == len(variants) else lines + ["3,3|3"]
    return Op(("fit", "-", "--format", "json"), stdin="\n".join(bad) + "\n", expect={"command": None})


def query_ops(seed: int, count: int) -> List[Op]:
    rng = random.Random(seed)
    return [
        _malformed_query(rng) if k % QUERY_MALFORMED_EVERY == QUERY_MALFORMED_EVERY - 1 else _valid_query(rng)
        for k in range(count)
    ]


def check_query(op: Op, code: Optional[int], stdout: str) -> Verdict:
    command = op.expect["command"]
    if command is None:
        if code != 2 or stdout:
            return _fail(f"malformed input gave exit {code}, expected 2")
        return Verdict(True, 1)
    report = _load_json(stdout)
    if code != 0 or report is None or report.get("command") != command:
        return _fail(f"exit {code} for a valid {command} query")
    outputs = report["outputs"]
    if command == "apply" and Fraction(outputs["squared_norm"]) < 0:
        return _fail("negative squared norm")
    if command == "fit" and not abs(outputs["fitted_exponent"] - op.expect["exponent"]) < 0.25:
        return _fail(f"fitted {outputs['fitted_exponent']} for exponent {op.expect['exponent']}")
    return Verdict(True, 1)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int, int], List[Op]]  # (seed, count) -> operations
    check: Callable[[Op, Optional[int], str], Verdict]  # (op, exit code, stdout)
    pregenerate: int  # operations generated at set-up; a run cycles through them
    reference_ops: int  # operations of the default seed whose stdout is pinned
    fans_out: bool = False
    probe: str = "exact"  # calibrate.Clock probe closest to the workload's kind of work


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed-form-sweep", sweep_ops, check_sweep, 64, 12, fans_out=True),
        Workload("dense-ray-norms", norms_ops, check_norms, 600, 300),
        Workload("oracle-mc", oracle_ops, check_oracle, 64, 12, probe="float"),
        Workload("cli-queries", query_ops, check_query, 5000, 3000),
    )
}
