"""Benchmark for fockop: four workloads driven through ``cli.main`` in-process.

Run one workload (the last stdout line is the JSON result)::

    python3 bench/run.py --workload closed-form-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Their times are in reference seconds: wall seconds scaled by the
machine's speed, probed between operations (see ``calibrate.py``); the
wall-clock figures are in the ``details`` line.
``--trace 1`` measures the per-layer metrics: it runs a share of the same
operations untraced at ``--jobs 1`` (and, on the sweep, at ``--jobs nproc``),
then the same operations again with every layer's public functions
wrapped in spans, and reports the tracing overhead between the two.

Every end-to-end metric of every workload, with units::

    python3 bench/run.py --all [--seconds 20] [--seed 1] [--trace 0|1]

The benchmark runs from the root of a fockop checkout and imports the
package from ``src/``; without it, it exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

from calibrate import MIN_PROBE_S, PROBE_SHARE, PROBE_QUANTUM_S, Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
SETUP_PROBES = 7
SETUP_CALIBRATION_S = 0.2  # machine-speed probe before and after each set-up
WARMUP_S = 1.0  # operations run before timing, checked but not measured
TRACE_SHARE = 0.3  # share of --seconds spent on the untraced pass of a trace run
BATCHES = 10  # work_per_s is the median rate over batches of at least seconds/BATCHES
MIN_OPS = 2  # a timed pass runs at least this many operations

END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# What one work item is on each workload, and the per-workload name of work_per_s.
WORK_ITEM = {
    "closed-form-sweep": ("sweep_cases_per_s", "exact closed-form cases"),
    "dense-ray-norms": ("norm_samples_per_s", "exact squared norms"),
    "oracle-mc": ("oracle_cases_per_s", "oracle cases (36 quadrature/Gamma + 45 Monte Carlo per run)"),
    "cli-queries": ("queries_per_s", "queries"),
}

LAYERS = ("cli", "verify", "analysis", "operators", "symbols", "arith", "oracle")

SPANS = (
    "cli.build_parser",
    "cli.main",
    "verify.sweep_hankel_closed_form",
    "verify.verify_oracle_monte_carlo",
    "verify.verify_oracle_deterministic",
    "analysis.norm_squared_samples",
    "analysis.classify",
    "analysis.fit_exponent",
    "operators.hankel_product_apply",
    "operators.hankel_coeff_closed_form",
    "operators.toeplitz_apply",
    "operators.toeplitz_mono_apply",
    "operators.parse_operator",
    "symbols.mul",
    "symbols.conjugate",
    "symbols.parse_symbol",
    "arith.from_sqrt_ratio",
    "oracle.mc",
    "oracle.quadrature",
    "oracle.gamma",
)

PER_LAYER = (
    tuple((f"{span}.{kind}", unit) for span in SPANS for kind, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("cli.fanout_speedup", "ratio"),
        ("cli.fanout_jobs1_wall_s", "s"),
        ("cli.fanout_jobsN_wall_s", "s"),
        ("verify.max_sigmas", "sigma"),
        ("operators.image_terms.max", "count"),
        ("operators.image_terms.mean", "count"),
        ("operators.image_terms.images", "count"),
        ("operators.sqrt_transition.hit_ratio", "ratio"),
        ("operators.sqrt_transition.lookups", "count"),
        ("arith.max_int_bits", "bits"),
        ("arith.square_free_split.hit_ratio", "ratio"),
        ("arith.square_free_split.lookups", "count"),
        ("arith.square_free_split.entries", "count"),
        ("oracle.mc.samples_per_s", "1/s"),
        ("oracle.mc.samples", "count"),
    )
    + tuple((f"{layer}.errors.{kind}", "count") for layer in LAYERS for kind in ("expected", "unexpected"))
    + (
        ("trace.overhead_ratio", "ratio"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.ops", "count"),
        ("trace.spans", "count"),
    )
)

# cache label (module.attribute) -> metric prefix
CACHES = {
    "operators._sqrt_transition": "operators.sqrt_transition",
    "arith.square_free_split": "arith.square_free_split",
}


# ---------------------------------------------------------------------------
# importing the program under test


def import_fockop():
    src = ROOT / "src"
    if not (src / "fockop" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fockop package under {src}")
    sys.path.insert(0, str(src))
    import fockop
    from fockop import analysis, arith, cli, operators, oracle, symbols, verify  # noqa: F401

    if Path(fockop.__file__).resolve().parent != (src / "fockop").resolve():
        raise ImportError(f"fockop imported from {fockop.__file__}, not from {src}")
    return fockop


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_record(workload: str, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fockop").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# running one operation


class Runner:
    """Runs operations through ``cli.main`` in this process.

    Every fockop ``lru_cache`` is cleared before each operation, so each
    one starts cold as a separate ``fockop`` process would; the hits and
    misses are added up before clearing.
    """

    def __init__(self):
        from fockop import cli
        from tracing import fockop_modules

        self.cli = cli
        self.tracer = None  # set once spans are recorded; tags them with an op id
        self.cpu_seconds = 0.0  # CPU time of this process while operations ran
        self.caches = {}  # module.attribute -> lru_cache-wrapped function
        for module in fockop_modules():
            short = module.__name__.split(".")[-1]
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info") and value not in self.caches.values():
                    self.caches[f"{short}.{attr}"] = value
        self.reset_cache_totals()

    def reset_cache_totals(self):
        self.cache_totals = {label: [0, 0, 0] for label in self.caches}  # hits, misses, max entries

    def harvest_caches(self):
        for label, fn in self.caches.items():
            info = fn.cache_info()
            total = self.cache_totals[label]
            total[0] += info.hits
            total[1] += info.misses
            total[2] = max(total[2], info.currsize)
            fn.cache_clear()

    def run(self, op, jobs=None):
        self.harvest_caches()
        if self.tracer is not None:
            self.tracer.op_id += 1
        argv = list(op.argv) + (["--jobs", str(jobs)] if jobs is not None else [])
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        if op.stdin is not None:
            sys.stdin = io.StringIO(op.stdin)
        cpu_start = process_time()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects input with exit code 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failed operation, not a crash
            code = None
            err.write(traceback.format_exc())
        finally:
            seconds = perf_counter() - start
            self.cpu_seconds += process_time() - cpu_start
            sys.stdin = saved_stdin
        return code, out.getvalue(), err.getvalue(), seconds


class Pass:
    """Outcome of running a list of operations once."""

    def __init__(self):
        self.seconds = []
        self.ref_seconds = []  # seconds at reference speed, when a Clock calibrated the pass
        self.op_items = []  # work items of each op; 0 for a failed op
        self.failed = 0
        self.digests = []
        self.extras = []
        self.failures = []

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def items(self) -> int:
        return sum(self.op_items)

    def median_rate(self, times: list, batch_seconds: float) -> float:
        """Median of items/second over consecutive batches of ops, each op taking ``times[k]``.

        A batch closes once its ops have run for ``batch_seconds``; a last
        batch shorter than that joins the one before it.  The median keeps
        a burst of load from other processes from moving the figure.
        """
        batches = []
        items = seconds = 0.0
        for n, s in zip(self.op_items, times):
            items += n
            seconds += s
            if seconds >= batch_seconds:
                batches.append([items, seconds])
                items = seconds = 0.0
        if seconds:
            if batches:
                batches[-1][0] += items
                batches[-1][1] += seconds
            else:
                batches.append([items, seconds])
        return statistics.median(i / s for i, s in batches)


def run_pass(runner, workload, ops, jobs, reference, budget=None, count=None, clock=None) -> Pass:
    """Run ops in order until ``budget`` seconds have passed or ``count`` ops ran.

    With a ``clock``, the machine's speed is probed before the first op and
    after every ``PROBE_QUANTUM_S`` seconds of ops, and each op's time at
    reference speed goes to ``ref_seconds``.
    """
    result = Pass()
    if clock is not None:
        before = clock.speed()
        pending_s = 0.0

    def calibrate():
        nonlocal before, pending_s
        after = clock.speed(max(MIN_PROBE_S, PROBE_SHARE * pending_s))
        speed = (before + after) / 2
        done = len(result.ref_seconds)
        result.ref_seconds.extend(s * speed for s in result.seconds[done:])
        before, pending_s = after, 0.0

    start = perf_counter()
    k = 0
    while (k < count) if count is not None else (perf_counter() - start < budget or k < MIN_OPS):
        op = ops[k % len(ops)]
        code, stdout, stderr, seconds = runner.run(op, jobs)
        verdict = workload.check(op, code, stdout)
        d = digest(stdout)
        if verdict.ok and k < len(reference) and d != reference[k]:
            verdict.ok = False
            verdict.reason = "stdout differs from the reference recorded for the default seed"
        result.seconds.append(seconds)
        if clock is not None:
            pending_s += seconds
            if pending_s >= PROBE_QUANTUM_S:
                calibrate()
        result.op_items.append(verdict.items if verdict.ok else 0)
        result.digests.append(d)
        if verdict.ok:
            result.extras.append(verdict.extra or {})
        else:
            result.failed += 1
            if len(result.failures) < 5:
                result.failures.append(f"op {k} {list(op.argv)[:6]}: {verdict.reason}\n{stderr[-2000:]}")
        k += 1
    if clock is not None and pending_s:
        calibrate()
    return result


def load_reference(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not REFERENCE_PATH.is_file():
        return []
    return json.loads(REFERENCE_PATH.read_text())["workloads"].get(workload, [])


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload, seed):
    """One set-up: what a fresh process does before the first operation."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    wl.make_ops(seed, wl.pregenerate)


def measure_setup(workload, seed) -> tuple:
    """Median set-up time over fresh interpreters: (reference seconds, wall seconds)."""
    clock = Clock("exact")
    before = clock.speed(SETUP_CALIBRATION_S)
    times, walls = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
        after = clock.speed(SETUP_CALIBRATION_S)
        times.append(wall * (before + after) / 2)
        walls.append(wall)
        before = after
    return statistics.median(times), statistics.median(walls)


# ---------------------------------------------------------------------------
# tracing


class LayerCounters:
    """Per-layer figures read from the results of wrapped calls."""

    def __init__(self):
        self.image_max = 0
        self.image_sum = 0
        self.images = 0
        self.max_bits = 0
        self.mc_samples = 0
        self.max_sigmas = 0.0

    def on_image(self, image):
        terms = len(image.coeffs)
        self.images += 1
        self.image_sum += terms
        self.image_max = max(self.image_max, terms)

    def _bits(self, x):
        self.max_bits = max(self.max_bits, x.numerator.bit_length(), x.denominator.bit_length())

    def on_norms(self, samples):
        for _, value in samples:
            self._bits(value)

    def on_radical(self, coeff):
        self._bits(coeff.abs_sq())

    def on_estimate(self, est):
        self.mc_samples += est.samples or 0

    def on_mc_result(self, result):
        self.max_sigmas = max(self.max_sigmas, result.max_sigmas)


def install_tracer():
    """Wrap every traced function and rebind it wherever fockop refers to it."""
    from fockop import analysis, arith, cli, errors, operators, oracle, symbols, verify
    from tracing import Tracer

    tracer = Tracer(expected_errors=(errors.InputError,))
    counters = LayerCounters()
    functions = (
        ("cli.build_parser", cli.build_parser, None),
        ("cli.main", cli.main, None),
        ("verify.sweep_hankel_closed_form", verify.sweep_hankel_closed_form, None),
        ("verify.verify_oracle_monte_carlo", verify.verify_oracle_monte_carlo, counters.on_mc_result),
        ("verify.verify_oracle_deterministic", verify.verify_oracle_deterministic, None),
        ("analysis.norm_squared_samples", analysis.norm_squared_samples, counters.on_norms),
        ("analysis.classify", analysis.classify_toeplitz_product, None),
        ("analysis.classify", analysis.classify_hankel_product, None),
        ("analysis.classify", analysis.classify_single, None),
        ("analysis.fit_exponent", analysis.fit_exponent, None),
        ("operators.hankel_product_apply", operators.hankel_product_apply, None),
        ("operators.hankel_coeff_closed_form", operators.hankel_coeff_closed_form, None),
        ("operators.toeplitz_apply", operators.toeplitz_apply, counters.on_image),
        ("operators.toeplitz_mono_apply", operators.toeplitz_mono_apply, None),
        ("operators.parse_operator", operators.parse_operator, None),
        ("symbols.parse_symbol", symbols.parse_symbol, None),
        ("oracle.mc", oracle._mc_inner, counters.on_estimate),
        ("oracle.quadrature", oracle.gamma_integral_quadrature, None),
        ("oracle.gamma", oracle.gamma_recurrence, None),
    )
    for name, fn, on_result in functions:
        if tracer.patch_function(name, fn, on_result) == 0:
            raise RuntimeError(f"{name}: no module refers to {fn.__qualname__}")
    tracer.patch_method("symbols.mul", symbols.SymbolPolynomial, "__mul__")
    tracer.patch_method("symbols.conjugate", symbols.SymbolPolynomial, "conjugate")
    tracer.patch_method("arith.from_sqrt_ratio", arith.RadicalCoefficient, "from_sqrt_ratio", counters.on_radical)
    return tracer, counters


def cache_metrics(runner) -> dict:
    out = {}
    for label, prefix in CACHES.items():
        hits, misses, entries = runner.cache_totals.get(label, (0, 0, 0))
        lookups = hits + misses
        out[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"{prefix}.lookups"] = lookups
        if prefix.startswith("arith."):
            out[f"{prefix}.entries"] = entries
    return out


def trace_run(runner, workload, ops, seconds, reference, details) -> tuple:
    jobs_1, jobs_n = (1, nproc()) if workload.fans_out else (None, None)
    base = run_pass(runner, workload, ops, jobs_1, reference, budget=seconds * TRACE_SHARE)
    count = len(base.seconds)
    values = {"cli.fanout_speedup": 0.0, "cli.fanout_jobs1_wall_s": 0.0, "cli.fanout_jobsN_wall_s": 0.0}
    passes = [base]
    if workload.fans_out:
        fan = run_pass(runner, workload, ops, jobs_n, reference, count=count)
        passes.append(fan)
        values["cli.fanout_speedup"] = base.wall / fan.wall
        values["cli.fanout_jobs1_wall_s"] = base.wall
        values["cli.fanout_jobsN_wall_s"] = fan.wall
        details["fanout_jobs"] = jobs_n
    tracer, counters = install_tracer()
    runner.harvest_caches()
    runner.reset_cache_totals()
    runner.tracer = tracer
    traced = run_pass(runner, workload, ops, jobs_1, reference, count=count)
    runner.harvest_caches()
    passes.append(traced)
    mismatched = sum(a != b for a, b in zip(base.digests, traced.digests))
    for name in SPANS:
        stats = tracer.stats[name]
        values[f"{name}.calls"] = stats.calls
        values[f"{name}.self_s"] = stats.self_s
    values["verify.max_sigmas"] = counters.max_sigmas
    values["operators.image_terms.max"] = counters.image_max
    values["operators.image_terms.mean"] = counters.image_sum / counters.images if counters.images else 0.0
    values["operators.image_terms.images"] = counters.images
    values["arith.max_int_bits"] = counters.max_bits
    values.update(cache_metrics(runner))
    mc_time = tracer.stats["oracle.mc"].total_s
    values["oracle.mc.samples_per_s"] = counters.mc_samples / mc_time if mc_time else 0.0
    values["oracle.mc.samples"] = counters.mc_samples
    for layer in LAYERS:
        expected, unexpected = tracer.errors.get(layer, (0, 0))
        values[f"{layer}.errors.expected"] = expected
        values[f"{layer}.errors.unexpected"] = unexpected
    values["trace.overhead_ratio"] = traced.wall / base.wall
    values["trace.untraced_wall_s"] = base.wall
    values["trace.traced_wall_s"] = traced.wall
    values["trace.ops"] = count
    values["trace.spans"] = tracer.span_count
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-{details['seed']}.tsv"
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    details["spans_kept"] = tracer.write_spans(str(spans_path))
    details["traced_vs_untraced_stdout_mismatches"] = mismatched
    attempted = sum(len(p.seconds) for p in passes)
    failed = sum(p.failed for p in passes) + mismatched
    failures = [f for p in passes for f in p.failures]
    if mismatched:
        failures.append(f"{mismatched} ops printed different stdout traced and untraced")
    return values, attempted, failed, failures


# ---------------------------------------------------------------------------
# one workload


def run_workload(name, seed, seconds, trace) -> int:
    from workloads import ORACLE_SAMPLES, WORKLOADS

    wl = WORKLOADS[name]
    setup_s, setup_wall_s = (None, None) if trace else measure_setup(name, seed)
    ops = wl.make_ops(seed, wl.pregenerate)
    reference = load_reference(name, seed)
    runner = Runner()
    details = machine_record(name, seed)
    details["work_item"] = WORK_ITEM[name][1]
    details["reference_ops"] = len(reference)
    if name == "oracle-mc":
        details["samples_per_case"] = ORACLE_SAMPLES
    jobs = nproc() if wl.fans_out else None
    if trace:
        details["jobs"] = 1
        values, attempted, failed, failures = trace_run(runner, wl, ops, seconds, reference, details)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}
    else:
        details["jobs"] = jobs or 1
        warmup = run_pass(runner, wl, ops, jobs, reference, budget=WARMUP_S)
        clock = Clock(wl.probe, threads=jobs or 1)
        runner.cpu_seconds = 0.0
        result = run_pass(runner, wl, ops, jobs, reference, budget=seconds, clock=clock)
        attempted = len(warmup.seconds) + len(result.seconds)
        failed = warmup.failed + result.failed
        failures = warmup.failures + result.failures
        values = {
            "setup_s": setup_s,
            "work_per_s": result.median_rate(result.ref_seconds, seconds / BATCHES),
            "op_p50_ms": statistics.median(result.ref_seconds) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
        details.update(workload_details(name, result, values, runner))
        details.update(
            warmup_ops=len(warmup.seconds),
            probe=clock.kind,
            probe_threads=clock.threads,
            machine_speed_median=statistics.median(clock.speeds),
            machine_speed_min=min(clock.speeds),
            machine_speed_max=max(clock.speeds),
            probe_s=clock.probe_s,
            wall_setup_s=setup_wall_s,
            wall_work_per_s=result.median_rate(result.seconds, seconds / BATCHES),
            wall_op_p50_ms=statistics.median(result.seconds) * 1e3,
        )
    details["failed_ops_ratio"] = failed / attempted
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def workload_details(name, result, values, runner) -> dict:
    """Per-workload names of the end-to-end figures, and their sample counts."""
    out = {
        WORK_ITEM[name][0]: values["work_per_s"],
        "ops": len(result.seconds),
        "work_items": result.items,
        "measured_s": result.wall,
        "measured_cpu_s": runner.cpu_seconds,
    }
    if name == "closed-form-sweep":
        out["us_per_case"] = 1e6 / values["work_per_s"] if values["work_per_s"] else None
    elif name == "dense-ray-norms":
        out["max_squared_norm_bits"] = max((e["bits"] for e in result.extras), default=0)
    elif name == "oracle-mc":
        out["max_sigmas"] = max((e["max_sigmas"] for e in result.extras), default=0.0)
    elif name == "cli-queries":
        ms = sorted(s * 1e3 for s in result.ref_seconds)
        p99 = statistics.quantiles(ms, n=100)[98] if len(ms) >= 2 else ms[0]
        out.update(
            query_p50_ms=statistics.median(ms),
            query_p99_ms=p99,
            queries_beyond_p99=sum(1 for x in ms if x > p99),
        )
    return out


# ---------------------------------------------------------------------------
# all workloads, and the reference outputs


def run_all(seed, seconds, trace) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        details = json.loads(lines[-2])["details"]
        result = json.loads(lines[-1])
        print(f"== {name}  (seed {seed}, {details['nproc']} cpus, {details['cpu']}, "
              f"python {details['python']}, numpy {details['numpy']}, jobs {details['jobs']})")
        for key, metric in result["metrics"].items():
            print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}")
        print(f"  {'failed_ops_ratio':48s} {details['failed_ops_ratio']:>16.6g} "
              f"({result['failed']} of {result['attempted']} ops)")
        for key, unit in (("sweep_cases_per_s", "1/s"), ("norm_samples_per_s", "1/s"),
                          ("oracle_cases_per_s", "1/s"), ("queries_per_s", "1/s"), ("query_p50_ms", "ms"),
                          ("query_p99_ms", "ms"), ("queries_beyond_p99", "count")):
            if key in details:
                print(f"  {key:48s} {details[key]:>16.6g} {unit}")
        if not result["correct"]:
            status = 1
    return status


def record_reference() -> int:
    """Pin the stdout of the default seed's first operations (run at a known-good commit)."""
    from workloads import WORKLOADS

    runner = Runner()
    pinned = {}
    for name, wl in WORKLOADS.items():
        ops = wl.make_ops(DEFAULT_SEED, wl.reference_ops)
        result = run_pass(runner, wl, ops, nproc() if wl.fans_out else None, [], count=len(ops))
        if result.failed:
            print("\n".join(result.failures), file=sys.stderr)
            return 1
        pinned[name] = result.digests
        print(f"{name}: {len(ops)} ops pinned", file=sys.stderr)
    payload = {"seed": DEFAULT_SEED, "source_sha256": source_digest(), "workloads": pinned}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload, print every metric")
    mode.add_argument("--record-reference", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        import_fockop()
    except (ImportError, FileNotFoundError) as exc:
        print(f"bench: cannot import fockop from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record_reference:
        return record_reference()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
