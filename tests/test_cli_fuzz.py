"""A fuzzed command line: each subcommand's flags (every ``verify`` flag for
every check) with valid values, and at most one mutated value or stray
token.  Every run must exit 0, 1 or 2 without an exception; exit 2 prints
nothing on stdout and one ``error:`` line on stderr, and exit 0 prints
the same stdout twice.

The work flags are always given and bounded (n <= 2, --max-alpha <= 2,
--max-component <= 1, --max-order <= 3, --samples <= 2000, at most 3 t
values), and no mutation turns --jobs into a number above 1, so no run
is slow and none forks.

Every command line, fuzzed or listed, also gives the same exit code,
stdout and stderr from the parser built for its command alone as from
the parser of every command.
"""

import contextlib
import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockop import cli
from fockop.cli import main
from test_cli import BAD_INPUT_CASES, ORACLE_FLAG_CASES, STRICT_INT_CASES, oracle_flag_argv

HUGE = "9" * 40

# Spellings that no integer flag reads as a small integer >= 0.
BAD_INTS = ["", "x", "-1", "٣", "1_0", " 1", "+1", "1.5", "1,", HUGE]

FORMAT = (["json", "table"], ["", "yaml"])
N = (["1", "2"], BAD_INTS + ["0", "33"])
M = (["0", "1", "3"], BAD_INTS)
JOBS = (["1"], [v for v in BAD_INTS if v != HUGE] + ["0"])
SYMBOL = (
    ["z", "z1", "conj(z)", "z1*conj(z2)", "z^2 + 3", "(1-2*i)*conj(z1)^2"],
    ["", "z^", "(z", "z3", "١*z", "z^999999999", "z1 + $"],
)
OP = (
    ["T(z)", "HP(conj(z); conj(z))", "T(z1*conj(z2)) * T(z2)", "HP(conj(z1); z2 + conj(z2))"],
    ["", "T(", "HP(z)", "T(z) *", "S(z)", "T(z^999999999)"],
)
ALPHA = (["0", "2", "1|2", "0|0"], ["", "x", "-1", "1|", "٣", HUGE])

COMMANDS = {
    # command: (positional slots, flags always given, flags that may be given)
    "parse": ([], {"-n": N, "-f": SYMBOL}, {"--format": FORMAT}),
    "classify": (
        [(["toeplitz-product", "hankel-product", "toeplitz", "hankel", "hankel-compact"], ["", "bogus"])],
        {"-n": N, "-f": SYMBOL},
        {"-m": M, "-g": SYMBOL, "--format": FORMAT},
    ),
    "apply": ([], {"-n": N, "--op": OP, "--alpha": ALPHA}, {"-m": M, "--format": FORMAT}),
    "norms": (
        [],
        {
            "-n": N,
            "--op": OP,
            "--t": (
                ["1:3:linear", "2:8:geometric", "1:2:linear:1", "3:4:linear"],
                ["", "1:3", "3:1:linear", "1:3:cubic", "a:b:linear", "1:3:linear:0",
                 "٣:4:linear", f"1:{HUGE}:linear", f"1:{HUGE}:geometric"],
            ),
        },
        {
            "-m": M,
            "--ray": (["ones", "1", "1|2"], ["", "0", "x", "1|0", HUGE]),
            "--base": (["0", "1", "1|1"], ["", "x", "-1", HUGE]),
            "--jobs": JOBS,
            "--format": (["csv", "json", "table"], ["", "xml"]),
        },
    ),
    "fit": (
        [(["-"], ["", ".", "no/such/file.csv"])],
        {},
        {"--predicted": (["2", "3/2", "-1/2", "0.5"], ["", "x", "1/0", "٣", "+3", "1e3"]), "--format": FORMAT},
    ),
    "verify": (
        [(["orthonormality", "hankel-closed-form", "oracle"], ["", "bogus"])],
        {
            "-n": (["1", "2", "1,2"], BAD_INTS + ["0", "1,x", "40"]),
            "-m": (["0", "1", "0,3"], BAD_INTS + ["0,-1"]),
            "--max-order": (["0", "1", "3"], BAD_INTS),
            "--max-component": (["0", "1"], BAD_INTS),
            "--max-alpha": (["0", "1", "2"], BAD_INTS),
            "--samples": (["2", "1000", "2000"], BAD_INTS + ["0", "1"]),
            "--jobs": JOBS,
        },
        {"--seed": (["0", "1", "20417"], BAD_INTS), "--format": FORMAT},
    ),
}

# Tokens out of place: an unknown flag, or a flag left without its value.
STRAY = ["--bogus", "-x", "--format", "-n", "--max-order", "--op", "--predicted"]

# What ``fit -`` reads on stdin.
FIT_CSV = "t,alpha,squared_norm\n16,16,16\n32,32,32\n64,64,64\n128,128,128\n"


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, required, optional = COMMANDS[command]
    flags = sorted(required) + sorted(draw(st.sets(st.sampled_from(sorted(optional)))))
    flags = draw(st.permutations(flags))
    # (flag, or None for a positional; valid values; mutated values)
    slots = [(None, *pools) for pools in positionals]
    slots += [(flag, *(required.get(flag) or optional[flag])) for flag in flags]
    values = [draw(st.sampled_from(valid)) for _, valid, _ in slots]
    mutation = draw(st.sampled_from(["none", "value", "stray"]))
    if mutation == "value":
        i = draw(st.integers(0, len(slots) - 1))
        values[i] = draw(st.sampled_from(slots[i][2]))
    argv = [command]
    for (flag, _, _), value in zip(slots, values):
        argv += [value] if flag is None else [flag, value]
    if mutation == "stray":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(FIT_CSV)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(command_lines())
def test_fuzzed_command_lines_exit_cleanly(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    elif code == 0:
        assert run_main(argv)[1] == out


# The timing line that ends a run's stderr: the one output that differs
# between two runs of the same command line.
TIMING = re.compile(r"^\[[0-9]+\.[0-9]{3}s\]\n", re.M)

BUILD_PARSER = cli.build_parser


def observed(argv):
    """(exit code, stdout, stderr less the timing line) of ``main(argv)``;
    help's ``SystemExit`` code stands for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(FIT_CSV)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
    return code, out.getvalue(), TIMING.sub("", err.getvalue())


def assert_parity(argv):
    """``main`` builds one parser, for ``argv``'s first token, and its run
    matches one with a parser of every command."""
    commands = []

    def spy(command=None):
        commands.append(command)
        return BUILD_PARSER(command)

    with mock.patch.object(cli, "build_parser", spy):
        one = observed(argv)
    assert commands == [argv[0] if argv else None]
    with mock.patch.object(cli, "build_parser", lambda command=None: BUILD_PARSER()):
        full = observed(argv)
    assert one == full


LISTED_COMMAND_LINES = (
    [list(argv) for argv, _ in BAD_INPUT_CASES + STRICT_INT_CASES]
    + [[], ["-h"], ["--help"], ["bogus"], ["bogus", "-h"], ["-n", "1", "parse"], ["-h", "parse"]]
    + [[command, "-h"] for command in cli._COMMANDS]
    + [[command] for command in cli._COMMANDS]
    + [oracle_flag_argv(flag, value) for flag, value, _ in ORACLE_FLAG_CASES]
)


@pytest.mark.parametrize("argv", LISTED_COMMAND_LINES)
def test_listed_command_lines_match_the_full_parser(argv):
    assert_parity(argv)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command_lines())
def test_fuzzed_command_lines_match_the_full_parser(argv):
    assert_parity(argv)
