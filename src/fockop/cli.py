"""Command-line surface: parsing, classification, exact application,
norm sweeps, exponent fits, and verification runs.

Reports are deterministic: machine output (``--format json`` or csv) is
byte-identical across runs with the same inputs and seed; wall-clock
timing goes to stderr only.  Exit codes: 0 success, 1 internal
invariant violation or failed verification, 2 invalid input, 141
(``EXIT_CLOSED_STDOUT``) stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .analysis import (
    RaySpec,
    SingleOperatorKind,
    Verdict,
    classify_hankel_product,
    classify_single,
    classify_toeplitz_product,
    default_base,
    fit_exponent,
    geometric_ts,
    norm_squared_samples,
)
from .arith import MultiIndex, RadicalCoefficient, exact_text, format_gaussian
from .errors import InputError, InternalInvariantError
from .operators import (
    BasisExpansion,
    SpaceParams,
    apply_operator,
    parse_operator,
)
from .oracle import DEFAULT_SAMPLES, DEFAULT_SEED, MAX_QUAD_ORDER, check_mc_samples
from .symbols import check_dimension, parse_symbol
from . import verify as verify_mod


def _with_source(source: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with an ``InputError`` from the library
    re-raised to name ``source``, the flag whose value it rejected."""
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


def _alpha_str(alpha: MultiIndex) -> str:
    return "|".join(str(c) for c in alpha)


# Largest order |alpha| = a1 + ... + an a basis index may reach.  A basis
# action factors nothing; a coefficient read trial-divides the integers of
# runs near |alpha|, at up to sqrt(|alpha|) steps each.
MAX_ALPHA_ORDER = 10**9


def _check_alpha_order(order: int, flag: str) -> None:
    if order > MAX_ALPHA_ORDER:
        raise InputError(f"{flag} reaches |alpha| = {order}; at most MAX_ALPHA_ORDER = {MAX_ALPHA_ORDER} is allowed")


# Numbers on the command line, in ASCII digits, the digits of the symbol
# grammar: an integer is an optional '-' and digits, a rational what
# ``str(Fraction)`` writes ('-3', '3/2') or a plain decimal ('2.5').
# ``int()`` and ``Fraction()`` also take surrounding spaces, '_' separators,
# '+', exponents and other scripts' digits: '1_0', ' 1 ' and '٣'.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _parse_number(text: str, pattern: re.Pattern, convert, kind: str):
    """``convert(text)``; ``InputError`` unless ``text`` is one ``pattern``."""
    if pattern.fullmatch(text) is not None:
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError):  # too many digits, or a zero denominator
            pass
    raise InputError(f"not {kind}: {text!r}")


def _parse_int(text: str) -> int:
    return _parse_number(text, _INTEGER, int, "an integer")


def _parse_rational(text: str) -> Fraction:
    return _parse_number(text, _RATIONAL, Fraction, "a rational")


def _parse_alpha(text: str, n: int, flag: str) -> MultiIndex:
    try:
        comps = [_parse_int(p) for p in text.split("|")]
    except InputError as exc:
        raise InputError(f"{flag}: bad multi-index {text!r}; use 'a1|a2|...'") from exc
    if len(comps) != n:
        raise InputError(f"{flag}: multi-index {text!r} has {len(comps)} components, expected {n}")
    alpha = _with_source(flag, MultiIndex, comps)
    _check_alpha_order(alpha.order, flag)
    return alpha


# Work bounds of ``verify``, counted exactly from the flags before any index
# is enumerated (n <= MAX_DIMENSION keeps the counts cheap): basis pairs of
# ``orthonormality``, cases of ``hankel-closed-form``, and Monte Carlo case
# evaluations (cases times samples) of ``oracle``.  At each bound the check
# runs for minutes; the defaults need 117324 pairs, 2.5 million cases and
# 9 million evaluations.
MAX_VERIFY_PAIRS = 10**8
MAX_VERIFY_CASES = 10**8
MAX_VERIFY_EVALUATIONS = 10**10


def _check_work(count: int, cap: int, name: str, what: str, flags: str) -> None:
    if count > cap:  # the count itself may have too many digits to print
        raise InputError(f"{flags} ask for more than {name} = {cap} {what}")


def _at_least(value: int, low: int, source: str) -> int:
    if value < low:
        raise InputError(f"{source} must be >= {low}, got {value}")
    return value


def _coeff_dict(c: RadicalCoefficient) -> dict:
    return {"rational": format_gaussian(c), "radicand": exact_text(c.radicand)}


# Most t values one --t range may ask for; each one is an exact operator
# application.
MAX_T_VALUES = 10_000


def _parse_t_range(text: str) -> Tuple[int, ...]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise InputError("--t takes lo:hi:geometric|linear[:step]")
    try:
        lo, hi = _parse_int(parts[0]), _parse_int(parts[1])
    except InputError as exc:
        raise InputError("--t bounds must be integers") from exc
    mode = parts[2]
    step = None
    if len(parts) == 4:
        try:
            step = _parse_int(parts[3])
        except InputError as exc:
            raise InputError(f"--t step must be an integer, got {parts[3]!r}") from exc
    if mode == "geometric":
        ts = _with_source("--t", geometric_ts, lo, hi, 2 if step is None else step)
        count = len(ts)
    elif mode == "linear":
        step = 1 if step is None else step
        if step < 1 or lo < 1 or hi < lo:
            raise InputError("--t linear range needs 1 <= lo <= hi and step >= 1")
        ts = range(lo, hi + 1, step)
        count = (hi - lo) // step + 1
    else:
        raise InputError(f"--t mode must be geometric or linear, got {mode!r}")
    if count > MAX_T_VALUES:
        raise InputError(f"--t asks for {count} t values; at most {MAX_T_VALUES} are allowed")
    return tuple(ts)


def _emit(report: dict, fmt: str, table_lines: Sequence[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)


def _verdict_payload(v: Verdict) -> dict:
    return {
        "bounded": v.bounded,
        "case": v.matched_case.value,
        "witness": v.witness or "",
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_parse(args) -> int:
    check_dimension(args.n)
    poly = _with_source("-f", parse_symbol, args.f, args.n)
    report = {
        "command": "parse",
        "inputs": {"n": args.n, "f": args.f},
        "outputs": {
            "canonical": poly.pretty(),
            "terms": [
                {
                    "z": _alpha_str(beta),
                    "conj": _alpha_str(gamma),
                    "coefficient": format_gaussian(c),
                }
                for (beta, gamma), c in poly.sorted_terms()
            ],
        },
    }
    lines = [f"canonical: {poly.pretty()}", f"terms: {len(poly.terms)}"]
    _emit(report, args.format, lines)
    return 0


def _cmd_classify(args) -> int:
    sp = SpaceParams(args.n, args.m)
    f = _with_source("-f", parse_symbol, args.f, sp.n)
    product_kinds = {"toeplitz-product", "hankel-product"}
    if args.kind in product_kinds:
        if args.g is None:
            raise InputError(f"classify {args.kind} needs -g")
        g = _with_source("-g", parse_symbol, args.g, sp.n)
        if args.kind == "toeplitz-product":
            verdict = classify_toeplitz_product(f, g)
        else:
            verdict = classify_hankel_product(f, g)
        inputs = {"f": f.pretty(), "g": g.pretty()}
    else:
        verdict = classify_single(SingleOperatorKind(args.kind), f)
        inputs = {"f": f.pretty()}
    report = {
        "command": f"classify {args.kind}",
        "space": {"n": sp.n, "m": sp.m},
        "inputs": inputs,
        "outputs": {"verdict": _verdict_payload(verdict)},
    }
    prop = "compact" if args.kind == "hankel-compact" else "bounded"
    lines = [
        f"{prop}: {'yes' if verdict.bounded else 'no'}",
        f"case: {verdict.matched_case.value}",
        f"why: {verdict.witness}",
    ]
    _emit(report, args.format, lines)
    return 0


def _cmd_apply(args) -> int:
    sp = SpaceParams(args.n, args.m)
    expr = _with_source("--op", parse_operator, args.op, args.n)
    alpha = _parse_alpha(args.alpha, args.n, "--alpha")
    image = apply_operator(expr, BasisExpansion.basis_vector(sp, alpha))
    items = image.sorted_items()
    squared_norm = exact_text(image.squared_norm())
    report = {
        "command": "apply",
        "space": {"n": sp.n, "m": sp.m},
        "inputs": {"op": args.op, "alpha": _alpha_str(alpha)},
        "outputs": {
            "expansion": [
                {"alpha": _alpha_str(a), "coeff": _coeff_dict(c)} for a, c in items
            ],
            "squared_norm": squared_norm,
        },
    }
    lines = [f"e_{_alpha_str(a)}: {c}" for a, c in items] or ["0 (zero vector)"]
    lines.append(f"squared norm: {squared_norm}")
    _emit(report, args.format, lines)
    return 0


def _cmd_norms(args) -> int:
    jobs = _at_least(args.jobs, 1, "--jobs")
    sp = SpaceParams(args.n, args.m)
    expr = _with_source("--op", parse_operator, args.op, args.n)
    ts = _parse_t_range(args.t)
    if args.ray == "ones":
        direction = MultiIndex.ones(args.n)
    else:
        direction = _parse_alpha(args.ray, args.n, "--ray")
    base = _parse_alpha(args.base, args.n, "--base") if args.base else default_base(expr)
    _check_alpha_order(base.order + max(ts) * direction.order, "--t")
    ray = _with_source("--ray", RaySpec, base, direction, ts)
    samples = norm_squared_samples(expr, ray, sp, jobs=jobs)
    rows = [
        (t, _alpha_str(ray.alpha_at(t)), exact_text(v)) for t, v in samples
    ]
    if args.format == "csv":
        print("t,alpha,squared_norm")
        for t, alpha, v in rows:
            print(f"{t},{alpha},{v}")
        return 0
    report = {
        "command": "norms",
        "space": {"n": sp.n, "m": sp.m},
        "inputs": {
            "op": args.op,
            "base": _alpha_str(base),
            "direction": _alpha_str(direction),
            "t": list(ts),
        },
        "outputs": {
            "samples": [
                {"t": t, "alpha": alpha, "squared_norm": v} for t, alpha, v in rows
            ]
        },
    }
    lines = [f"t={t} alpha={alpha} squared_norm={v}" for t, alpha, v in rows]
    _emit(report, args.format, lines)
    return 0


def _cmd_fit(args) -> int:
    try:
        predicted = None if args.predicted is None else _parse_rational(args.predicted)
    except InputError as exc:
        raise InputError(f"--predicted must be a rational like '3/2', got {args.predicted!r}") from exc
    source = "stdin" if args.path == "-" else args.path
    try:
        if args.path == "-":
            # decode the bytes strictly, as a file is: the text layer of a
            # real stdin may escape undecodable bytes instead of raising
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(args.path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {source!r}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise InputError(f"cannot read {source!r}: {exc.strerror}") from exc
    samples = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("t,"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected 't,alpha,squared_norm'")
        try:
            samples.append((_parse_int(parts[0]), _parse_rational(parts[2])))
        except InputError as exc:
            raise InputError(f"line {lineno}: bad sample {line!r}") from exc
    report_obj = _with_source(source, fit_exponent, samples)
    outputs = {
        "degenerate": report_obj.degenerate,
        "fitted_exponent": report_obj.fitted_exponent,
        "residual": report_obj.residual,
        "predicted_exponent": None if predicted is None else exact_text(predicted),
        "samples": len(samples),
    }
    report = {"command": "fit", "inputs": {"path": args.path}, "outputs": outputs}
    if report_obj.degenerate:
        lines = ["degenerate: the operator annihilates this ray (zero norms)"]
    else:
        lines = [
            f"fitted exponent: {report_obj.fitted_exponent:.6f}",
            f"max relative residual: {report_obj.residual:.3e}",
        ]
        if predicted is not None:
            lines.append(
                f"predicted: {exact_text(predicted)} (|fit - predicted| = "
                f"{abs(report_obj.fitted_exponent - float(predicted)):.4f})"
            )
    _emit(report, args.format, lines)
    return 0


def _verify_grid(args, n_default: Tuple[int, ...], m_default: Tuple[int, ...]):
    """(n values, m values): ``-n`` and ``-m``, else the check's defaults;
    every (n, m) must be a valid space."""
    n_values, m_values = args.n or n_default, args.m or m_default
    for n in n_values:
        for m in m_values:
            SpaceParams(n, m)
    return n_values, m_values


def _verify_orthonormality(args) -> List[Tuple[str, bool, str]]:
    n_values, m_values = _verify_grid(args, (1, 2, 3), (0, 1, 2, 3))
    jobs = _at_least(args.jobs, 1, "--jobs")
    max_order = _at_least(args.max_order, 0, "--max-order")
    pairs = len(m_values) * sum(math.comb(n + max_order, n) ** 2 for n in n_values)
    _check_work(pairs, MAX_VERIFY_PAIRS, "MAX_VERIFY_PAIRS", "basis pairs", "-n, -m and --max-order")
    ortho = verify_mod.verify_orthonormality(n_values, m_values, max_order, jobs=jobs)
    detail = f"{ortho.pairs_checked} pairs exact" if ortho.passed else ortho.failures[0]
    return [("orthonormality", ortho.passed, detail)]


def _verify_closed_form(args) -> List[Tuple[str, bool, str]]:
    n_values, m_values = _verify_grid(args, (1, 2), (0, 1, 2))
    jobs = _at_least(args.jobs, 1, "--jobs")
    c = _at_least(args.max_component, 0, "--max-component")
    a = _at_least(args.max_alpha, 0, "--max-alpha")
    # the tuples with both distances 0 alone give (c+1)^2 (a+1) cases per
    # component; below the bound c and a are small enough to count exactly
    cases = len(m_values) * sum(((c + 1) ** 2 * (a + 1)) ** n for n in n_values)
    if cases <= MAX_VERIFY_CASES:
        cases = verify_mod.closed_form_case_count(n_values, m_values, c, a)
    flags = "-n, -m, --max-component and --max-alpha"
    _check_work(cases, MAX_VERIFY_CASES, "MAX_VERIFY_CASES", "closed-form cases", flags)
    sweep = verify_mod.sweep_hankel_closed_form(n_values, m_values, c, a, jobs=jobs)
    # each check's detail is its first failure, else its summary
    match = (sweep.mismatches or sweep.stray_support or [f"{sweep.cases} cases exact"])[0]
    degenerate = sweep.degenerate_zero_cases
    holds = f"{degenerate} m=0 disjoint-support zero cases (documented family)" if degenerate else "holds as stated"
    vanish = (sweep.vanish_false_nonzero or sweep.vanish_false_zero_strict or sweep.degenerate_nonzero or [holds])[0]
    return [
        ("closed-form vs composition", sweep.closed_form_matches, match),
        ("vanishing criterion", sweep.vanishing_with_degenerate_family, vanish),
    ]


def _verify_oracle(args) -> List[Tuple[str, bool, str]]:
    # the n=1 routes default to m 0..3, Monte Carlo to m 0..2 and order <= 4
    n_values, mc_m = _verify_grid(args, (1, 2), (0, 1, 2))
    seed = _at_least(args.seed, 0, "--seed")
    samples = args.samples
    max_order = _at_least(args.max_order, 0, "--max-order")
    mc_ns, mc_order = [n for n in n_values if n >= 2], min(max_order, 4)
    if mc_ns:  # before the n=1 stage runs
        _with_source("--samples", check_mc_samples, samples)
    evaluations = len(mc_m) * sum(math.comb(n + mc_order, n) for n in mc_ns) * samples
    flags = "--samples with -n, -m and --max-order"
    what = "Monte Carlo case evaluations"
    _check_work(evaluations, MAX_VERIFY_EVALUATIONS, "MAX_VERIFY_EVALUATIONS", what, flags)
    checks = []
    if 1 in n_values:
        det_m = args.m or (0, 1, 2, 3)
        order = max_order + max(det_m)
        if order > MAX_QUAD_ORDER:
            raise InputError(
                f"--max-order {max_order} with m up to {max(det_m)} reaches quadrature "
                f"order {order}; at most MAX_QUAD_ORDER = {MAX_QUAD_ORDER} is allowed"
            )
        det = verify_mod.verify_oracle_deterministic(det_m, max_order)
        detail = f"{det.cases} cases, max rel err {det.max_relative_error:.2e}"
        checks.append(("n=1 quadrature/gamma agreement", det.passed, detail))
    for n in mc_ns:
        mc = verify_mod.verify_oracle_monte_carlo(n, mc_m, mc_order, seed, samples)
        detail = f"{mc.cases} cases, max {mc.max_sigmas:.2f} sigmas ({samples} samples, seed {seed})"
        checks.append((f"n={n} Monte Carlo bracket", mc.passed, detail))
    return checks


# Each check reads, and validates, only the settings it uses.
_VERIFY_CHECKS = {
    "orthonormality": _verify_orthonormality,
    "hankel-closed-form": _verify_closed_form,
    "oracle": _verify_oracle,
}


def _cmd_verify(args) -> int:
    checks = _VERIFY_CHECKS[args.what](args)
    passed = all(ok for _, ok, _ in checks)
    report = {
        "command": f"verify {args.what}",
        "outputs": {
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in checks
            ],
            "passed": passed,
        },
    }
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}: {detail}" for name, ok, detail in checks
    ]
    _emit(report, args.format, lines)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_space_args(p, need_m=True):
    p.add_argument("-n", type=_int_arg, required=True, help="ambient dimension (>= 1)")
    if need_m:
        p.add_argument("-m", type=_int_arg, default=0, help="weight order (>= 0)")


def _int_arg(text: str) -> int:
    try:
        return _parse_int(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(_parse_int(p) for p in text.split(","))
    except InputError as exc:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from exc


# What an argument that starts with '-' must look like to be read as a
# value, not an option: argparse's integers and decimals, and fractions,
# so that ``--predicted -1/2`` works.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


class _Parser(argparse.ArgumentParser):
    """Raises ``InputError`` on bad arguments instead of exiting, so that
    ``main`` reports every rejected input the same way.  Subparsers are
    made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER  # argparse sets it per instance

    def error(self, message: str):
        raise InputError(message)


def _add_parse_args(p):
    _add_space_args(p, need_m=False)
    p.add_argument("-f", required=True, help="symbol text, e.g. 'z1*conj(z2)+3'")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=_cmd_parse)


def _add_classify_args(p):
    p.add_argument(
        "kind",
        choices=(
            "toeplitz-product",
            "hankel-product",
            "toeplitz",
            "hankel",
            "hankel-compact",
        ),
    )
    _add_space_args(p)
    p.add_argument("-f", required=True, help="first symbol")
    p.add_argument("-g", help="second symbol (product kinds)")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=_cmd_classify)


def _add_apply_args(p):
    _add_space_args(p)
    p.add_argument("--op", required=True, help="e.g. 'T(z*conj(z)) * T(z)' or 'HP(conj(z); conj(z))'")
    p.add_argument("--alpha", required=True, help="basis index 'a1|a2|...'")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=_cmd_apply)


def _add_norms_args(p):
    _add_space_args(p)
    p.add_argument("--op", required=True)
    p.add_argument("--ray", default="ones", help="'ones' or custom direction 'd1|d2|...'")
    p.add_argument("--base", help="ray base 'b1|b2|...' (default: validity base)")
    p.add_argument("--t", default="64:4096:geometric", help="lo:hi:geometric|linear[:step]")
    p.add_argument("--jobs", type=_int_arg, default=1, help="worker processes (>= 1); output does not depend on it")
    p.add_argument("--format", choices=("csv", "json", "table"), default="csv")
    p.set_defaults(handler=_cmd_norms)


def _add_fit_args(p):
    p.add_argument("path", nargs="?", default="-", help="CSV path or '-' for stdin")
    p.add_argument("--predicted", help="predicted exponent as a rational, e.g. '2' or '3/2'")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=_cmd_fit)


def _add_verify_args(p):
    p.add_argument("what", choices=tuple(_VERIFY_CHECKS))
    p.add_argument("-n", type=_int_list, help="dimensions, e.g. '1,2'")
    p.add_argument("-m", type=_int_list, help="weight orders, e.g. '0,1,2'")
    p.add_argument("--max-order", type=_int_arg, default=8)
    p.add_argument("--max-component", type=_int_arg, default=2)
    p.add_argument("--max-alpha", type=_int_arg, default=12)
    p.add_argument("--seed", type=_int_arg, default=DEFAULT_SEED)
    p.add_argument("--samples", type=_int_arg, default=DEFAULT_SAMPLES)
    p.add_argument("--jobs", type=_int_arg, default=1, help="worker processes (>= 1); output does not depend on it")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=_cmd_verify)


# The subcommands, in the order ``--help`` lists them: name, help text, and
# the function that adds the subcommand's arguments and handler.
_COMMANDS = {
    "parse": ("parse a symbol and print its canonical form", _add_parse_args),
    "classify": ("boundedness/compactness verdicts", _add_classify_args),
    "apply": ("apply an operator expression to e_alpha", _add_apply_args),
    "norms": ("exact squared norms along a ray", _add_norms_args),
    "fit": ("fit an amplitude exponent to a norms CSV", _add_fit_args),
    "verify": ("run a verification sweep", _add_verify_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The fockop parser, built for the command being run.

    With ``command`` a subcommand name, only that subcommand is registered:
    argparse hands an argv whose first token names a subcommand to that
    subparser alone, so the others would change nothing and cost most of
    a quick command.  Otherwise (``--help``, an unknown command, an empty
    command line) every subcommand is registered, for the full usage, help
    and error text.
    """
    ap = _Parser(
        prog="fockop",
        description="Exact Toeplitz/Hankel operator calculator and classifier "
        "on weighted entire-function spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


# Exit code when the reader closes stdout before the output is written
# (``fockop norms ... | head -1``): 128 + SIGPIPE, what a shell reports for
# a program that a broken pipe ends.
EXIT_CLOSED_STDOUT = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; returns its exit code.  Only ``--help`` raises
    (``SystemExit(0)``, after printing the help).  The parser is built for
    the command being run, the first token of ``argv``."""
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
    start = time.monotonic()
    try:
        args = ap.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send what is left to
        # devnull (the Python docs' "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - start
    print(f"[{elapsed:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
