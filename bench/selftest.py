"""Self-test of the benchmark harness on tiny inputs (under a minute).

    python3 bench/selftest.py

Checks that:

* every workload's checks accept the program's outputs, untraced and traced;
* traced and untraced runs print byte-identical stdout;
* every wrapped function records more than zero calls, so no caller
  bypasses the tracer through a name it imported before the wrapping;
* a run prints every metric named in BENCHMARK.json, with its unit;
* every workload's machine-speed probe runs and reports a positive speed;
* without the fockop sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads as wl
from calibrate import Clock


def tiny_ops() -> dict:
    cases = 2 * wl.closed_form_cases(2, 1, 1)
    sweep = wl.Op(
        ("verify", "hankel-closed-form", "-n", "2", "-m", "0,2", "--max-component", "1",
         "--max-alpha", "1", "--format", "json"),
        expect={"cases": cases},
    )
    oracle = wl.Op(("verify", "oracle", "-n", "1,2", "--samples", "20000", "--seed", "7", "--format", "json"))
    return {
        "closed-form-sweep": [sweep],
        "dense-ray-norms": wl.norms_ops(7, 4),
        "oracle-mc": [oracle],
        "cli-queries": wl.query_ops(7, 60),
    }


def check(condition: bool, message: str, problems: list) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def main() -> int:
    problems: list = []
    run.import_fockop()
    runner = run.Runner()
    ops = tiny_ops()
    untraced = {}
    for name, items in ops.items():
        jobs = run.nproc() if wl.WORKLOADS[name].fans_out else None
        untraced[name] = run.run_pass(runner, wl.WORKLOADS[name], items, jobs, [], count=len(items))
        check(untraced[name].failed == 0, f"{name} untraced: {untraced[name].failures}", problems)

    tracer, _ = run.install_tracer()
    runner.tracer = tracer
    for name, items in ops.items():
        jobs = 1 if wl.WORKLOADS[name].fans_out else None
        traced = run.run_pass(runner, wl.WORKLOADS[name], items, jobs, [], count=len(items))
        check(traced.failed == 0, f"{name} traced: {traced.failures}", problems)
        check(traced.digests == untraced[name].digests, f"{name}: traced stdout differs from untraced", problems)
    for span in run.SPANS:
        check(tracer.stats[span].calls > 0, f"wrapped {span} recorded no calls", problems)

    for kind in sorted({w.probe for w in wl.WORKLOADS.values()}):
        speed = Clock(kind).speed()
        check(speed > 0, f"{kind} probe reported speed {speed}", problems)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == [k for k, _ in run.END_TO_END],
          "BENCHMARK.json end_to_end differs from run.END_TO_END", problems)
    check([m["name"] for m in spec["per_layer"]] == [k for k, _ in run.PER_LAYER],
          "BENCHMARK.json per_layer differs from run.PER_LAYER", problems)
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS", problems)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-queries", "--seed", "7", "--seconds", "1",
             "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode == 0, f"trace {trace} run exited {proc.returncode}: {proc.stderr[-500:]}", problems)
        if proc.returncode != 0:
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result keys", problems)
        check(result["correct"] and result["failed"] == 0, f"trace {trace} run was not correct", problems)
        units = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        check(printed == units, f"trace {trace} metrics/units differ from BENCHMARK.json {key}", problems)
        check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
              f"trace {trace}: a metric value is not a number", problems)

    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without src/ the benchmark must exit non-zero and print no result", problems)

    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
