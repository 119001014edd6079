#!/usr/bin/env python3
"""Run every workload on ten seeds and record the baseline.

Usage, from the root of the repository:

    python3 perfbench/baseline.py

Seeds 1 to 10 each get one untraced `run.py` run per workload of
BENCHMARK.json's run_seconds; the first seed also gets one traced run.
For every end-to-end metric the script prints the median over seeds and
the spread, the distance between the first and third quartile as a
share of the median, next to the metric's bound. It writes
perfbench/baseline.json only if every spread is within its bound, no
invocation failed and every design check holds; otherwise it exits 1
and leaves the old record in place.
Timing samples of all runs are pooled for the median and the tail
percentile they support. The record also holds the machine, the thread
environment of the child processes, the metric tables and the checks
that the workloads exercise the layers they were chosen for.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
import run

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
OUT = HERE / "baseline.json"

# (workload, description, test on the traced run's per-layer values)
DESIGN_CHECKS = (
    ("wide_roundtrip", "shifted.calls = 0 and exact.monotone_calls = 0",
     lambda v: v["shifted.calls"] == 0 and v["exact.monotone_calls"] == 0),
    ("wide_roundtrip", "sinkhorn.calls + shifted.calls = 1",
     lambda v: v["sinkhorn.calls"] + v["shifted.calls"] == 1),
    ("occluded_bands", "disparity.path.unbalanced-mirror > 0",
     lambda v: v["disparity.path.unbalanced-mirror"] > 0),
)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    record = run.WORK / f"record-{workload}-{seed}-{trace}.json"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--record", str(record)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(record.read_text())[workload]
    finally:
        record.unlink(missing_ok=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    result["line"] = json.loads(done.stdout.splitlines()[-1])
    return result


def _machine() -> dict:
    import numpy

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "child_env": run.THREAD_ENV,
    }


def tail(samples: list[float]):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100)[q - 1]
    return None


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, (unit, better, bound, _) in metrics.END_TO_END.items():
        values = [r["values"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        entry = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / median if median else 0.0, "bound": bound,
                 "per_seed": values}
        pooled = [x for r in runs for x in r["samples"].get(name, [])]
        if pooled:
            entry["samples"] = len(pooled)
            entry["pooled_median"] = statistics.median(pooled)
            high = tail(pooled)
            if high:
                entry[f"p{high[0]}"] = high[1]
        out[name] = entry
    return out


def main() -> int:
    baseline, checks, failed, too_wide = {}, [], 0, []
    for workload in metrics.ALL:
        runs = [_run(workload, seed, SECONDS, 0) for seed in SEEDS]
        layers = _run(workload, SEEDS[0], SECONDS, 1)
        failed += sum(r["line"]["failed"] for r in runs) + layers["line"]["failed"]
        baseline[workload] = {"end_to_end": summarize(runs), "per_layer": layers["values"]}
        for name, entry in baseline[workload]["end_to_end"].items():
            flag = ""
            if entry["bound"] is not None and entry["spread"] > entry["bound"]:
                flag = "  SPREAD ABOVE THE BOUND"
                too_wide.append(f"{workload}.{name}")
            elif entry["bound"] is not None and entry["spread"] > entry["bound"] / 3:
                flag = "  spread above a third of the bound"
            print(f"{workload:<15} {name:<17} median {entry['median']:<12.6g} "
                  f"spread {entry['spread']:.4f}  bound {entry['bound']}{flag}")
        for check_workload, text, test in DESIGN_CHECKS:
            if check_workload == workload:
                checks.append({"workload": workload, "check": text,
                               "holds": bool(test(layers["values"]))})
                print(f"{workload:<15} design check {text}: {checks[-1]['holds']}")

    if failed or too_wide or not all(c["holds"] for c in checks):
        print(f"baseline.py: {failed} failed invocations, spreads above their bound: "
              f"{too_wide or 'none'}; {OUT.name} left unchanged", file=sys.stderr)
        return 1
    record = {
        "machine": _machine(),
        "niter": metrics.NITER,
        "run_seconds": SECONDS,
        "seeds": list(SEEDS),
        "failed_invocations": failed,
        "workloads": metrics.WORKLOADS,
        "end_to_end": {name: {"unit": u, "better": b, "bound": bound, "about": about}
                       for name, (u, b, bound, about) in metrics.END_TO_END.items()},
        "per_layer": {name: {"unit": u, "better": b,
                             "moves": [{"metric": m, "workloads": list(w)} for m, w in moves]}
                      for name, (u, b, moves) in metrics.PER_LAYER.items()},
        "design_checks": checks,
        "baseline": baseline,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
