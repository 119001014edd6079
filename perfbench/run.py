#!/usr/bin/env python3
"""Time-to-accuracy benchmark for `otstereo disparity`.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in metrics.WORKLOADS, or `all` to run each
in turn. The seed builds the workload's scene, which the benchmark
renders with `otstereo generate`; the program only ever sees files.

With --trace 0 the benchmark runs the command line one child process at
a time: `generate`, `disparity` and `reconstruct` in turn for S seconds
(at least MIN_REPS rounds), with a run of reference.py before and after
every invocation. Each timing is reported at a fixed machine speed: its
wall time scaled by REFERENCE_S over the mean reference time around it,
of the reference's part named in SCALED_BY.
Every output is parsed and checked once and must be byte-identical on
every repetition. It prints every end-to-end metric by name and unit,
then a last line of JSON with the bounded ones.

With --trace 1 it calls `otstereo.cli.main` in this process with timing
wrappers installed (see spans.py), alternating with untraced calls to
measure the wrappers' overhead, and prints the per-layer metrics.

The package is imported from `src/` of this checkout; nothing is
installed and nothing outside the checkout is written.
"""
from __future__ import annotations

import os

# Fixed before numpy is imported, here and in every child process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import metrics
import scenes
from outputs import (
    DISPARITY_FILES,
    GENERATE_FILES,
    OutputError,
    check_disparity,
    check_generate,
    check_reconstruct,
    digest,
)
from score import score

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_ENV = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT_S = 60

# Invocations per round besides the one disparity: the short ones are
# repeated so that their medians rest on enough samples when a
# disparity at the defaults takes most of a round.
GENERATE_REPS = 2
RECONSTRUCT_REPS = 4
IMPORT_REPS = 5
MIN_REPS = 2
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Seconds of the two parts of a reference.py run that timings are scaled
# by, at the speed the timings are reported at: the whole child process
# ("run") and its small-array loop alone ("loop"). The speed of the
# shared machine the benchmark was built on drifts by up to 1.9x over
# seconds to minutes, and moves the command line and reference.py alike;
# scaling each timing by the reference runs beside it takes that drift
# out. The values are about the reference's times when that machine ran
# fast, so the scaled timings read as wall seconds there.
REFERENCE_S = {"run": 0.25, "loop": 0.09}
# The part that slows down as each invocation does: generate and
# reconstruct are mostly interpreter start, imports and text IO, like the
# whole reference run; disparity is mostly the solver's loop, which slows
# less than a whole reference run when the machine does.
SCALED_BY = {"setup_s": "run", "disparity_s": "loop", "reconstruct_s": "run"}
RIG = (10.0, 1000.0, 2.0)  # baseline, focal, beta
RIG_FLAGS = ["--baseline", str(RIG[0]), "--focal", str(RIG[1]), "--beta", str(RIG[2])]


@dataclass
class Invocation:
    seconds: float
    code: int
    maxrss_mb: float


def run_child(argv: list[str], log: Path, stdout=subprocess.DEVNULL) -> Invocation:
    """Run one child with the benchmark's environment; wall time and rusage."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=CHILD_ENV, stdout=stdout, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(elapsed, proc.returncode, usage.ru_maxrss / 1024.0)


def run_cli(args: list, log: Path) -> Invocation:
    return run_child(["-m", "otstereo.cli", *map(str, args)], log)


# What parsing and scoring a malformed output can raise.
MALFORMED = (OutputError, LookupError, TypeError, ValueError)


class Checker:
    """Counts invocations and the ones whose outputs fail a check.

    The first good repetition of each label is parsed; every later one
    must reproduce its bytes exactly, which makes the parse hold for it.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[str, dict[str, str]] = {}

    def verify(self, label: str, code: int, files, parse) -> None:
        self.attempted += 1
        try:
            if code not in (0, 2):
                raise OutputError(f"exit code {code}")
            hashes = {f.name: digest(f) for f in files}
            first = self._first.get(label)
            if first is None:
                parse()
                self._first[label] = hashes
            elif hashes != first:
                changed = sorted(n for n in hashes if hashes[n] != first[n])
                raise OutputError(f"{changed} differ from the first repetition")
        except MALFORMED as exc:
            self.failures.append(f"{label}: {exc!r}")


def _frame(scene_text: str) -> tuple[int, int]:
    values = dict(
        (part.strip() for part in line.split("=", 1))
        for line in scene_text.splitlines()
        if line.startswith(("width", "height"))
    )
    return int(values["height"]), int(values["width"])


@dataclass
class Step:
    """One command-line invocation, its outputs and their first-time check."""

    label: str
    argv: list
    outputs: list[Path]
    parse: object

    def clear(self) -> None:
        """Remove earlier outputs, so a step that writes nothing cannot pass."""
        for path in self.outputs:
            path.unlink(missing_ok=True)


def _steps(workload: str, work: Path, run_name: str,
           shape: tuple[int, int]) -> tuple[Step, Step, Step]:
    """generate, disparity and reconstruct of the scene in work/scene.txt.

    The disparity outputs go to work/run_name; it runs at the command
    line's defaults, apart from the workload's budget in metrics.NITER.
    """
    scene_dir, run_dir, ply = work / "scene", work / run_name, work / f"{run_name}.ply"
    budget = ["--niter", metrics.NITER[workload]] if workload in metrics.NITER else []
    return (
        Step("generate", ["generate", work / "scene.txt", "--out-dir", scene_dir],
             [scene_dir / f for f in GENERATE_FILES], lambda: check_generate(scene_dir, shape)),
        Step("disparity", ["disparity", scene_dir / "left.pgm", scene_dir / "right.pgm",
                           *budget, "--out-dir", run_dir],
             [run_dir / f for f in DISPARITY_FILES], lambda: check_disparity(run_dir, shape)),
        Step("reconstruct", ["reconstruct", run_dir / "disparity.csv", scene_dir / "right.pgm",
                             "--out", ply, *RIG_FLAGS],
             [ply], lambda: check_reconstruct(ply, run_dir / "disparity.csv", RIG)),
    )


def _write_scene(workload: str, seed: int, work: Path) -> tuple[int, int]:
    text = scenes.SCENES[workload](seed)
    (work / "scene.txt").write_text(text)
    return _frame(text)


def untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    shape = _write_scene(workload, seed, work)
    log = work / "stderr.log"
    checker = Checker()

    def run(step: Step) -> Invocation:
        step.clear()
        inv = run_cli(step.argv, log)
        checker.verify(step.label, inv.code, step.outputs, step.parse)
        return inv

    def reference() -> dict[str, float]:
        with open(work / "reference.out", "w+b") as out:
            inv = run_child([REFERENCE, work / "reference.csv"], log, out)
            out.seek(0)
            loop = out.read()
        if inv.code:
            raise OutputError(f"reference.py: exit code {inv.code}")
        return {"run": inv.seconds, "loop": float(loop)}

    # Every kind of invocation recurs through the whole run, so that all
    # metrics see the same stretch of the machine's speed, which drifts;
    # the reference runs between invocations measure that speed.
    generate, disparity, reconstruct = _steps(workload, work, "run", shape)
    samples = {name: [] for name in ("setup_s", "disparity_s", "reconstruct_s", "peak_rss_mb",
                                     "setup_wall_s", "disparity_wall_s", "reconstruct_wall_s",
                                     "reference_s", "reference_loop_s")}
    references = [reference()]

    def timed(step: Step, name: str) -> Invocation:
        inv = run(step)
        references.append(reference())
        part = SCALED_BY[name]
        speed = statistics.mean(r[part] for r in references[-2:])
        samples[name].append(inv.seconds * REFERENCE_S[part] / speed)
        samples[f"{name[:-2]}_wall_s"].append(inv.seconds)
        return inv

    # Rounds of this schedule fill the run. After MIN_REPS rounds, a step
    # runs only while it is expected to end before the deadline, so the
    # short steps fill the time that is too short for another disparity.
    schedule = ([(generate, "setup_s")] * GENERATE_REPS + [(disparity, "disparity_s")]
                + [(reconstruct, "reconstruct_s")] * RECONSTRUCT_REPS)
    took: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count():
        ran = False
        for step, name in schedule:
            if rounds >= MIN_REPS and time.perf_counter() + took[name] >= deadline:
                continue
            started = time.perf_counter()
            inv = timed(step, name)
            took[name] = time.perf_counter() - started
            ran = True
            if name == "disparity_s":
                samples["peak_rss_mb"].append(inv.maxrss_mb)
        if not ran:
            break
    samples["reference_s"] = [r["run"] for r in references]
    samples["reference_loop_s"] = [r["loop"] for r in references]

    values = {name: statistics.median(v) for name, v in samples.items()}
    values["scanlines_per_s"] = shape[0] / values["disparity_s"]
    values.update(score(work / "scene", work / "run"))
    values["good_px_frac"] = 1.0 - values["bad_px_frac"]
    values["failed_ops_frac"] = len(checker.failures) / checker.attempted
    return {"values": values, "samples": samples, "checker": checker}


def traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import otstereo.cli
    import spans

    shape = _write_scene(workload, seed, work)
    log = work / "stderr.log"
    checker = Checker()

    def call(step: Step) -> int:
        step.clear()
        try:
            return otstereo.cli.main([str(a) for a in step.argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1

    imports = [run_child(["-c", "import otstereo"], log) for _ in range(IMPORT_REPS)]
    checker.attempted += IMPORT_REPS
    checker.failures += [f"import: exit code {i.code}" for i in imports if i.code]

    # the same solve without wrappers; its outputs must not change
    plain = _steps(workload, work, "untraced", shape)[1]

    def untraced_disparity() -> None:
        start = time.perf_counter()
        code = call(plain)
        untraced_s.append(time.perf_counter() - start)
        checker.verify(plain.label, code, plain.outputs, plain.parse)

    passes, traced_s, untraced_s, first_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        if passes and len(passes) % 2:
            untraced_disparity()
        tracer = spans.Tracer()
        wall = 0.0
        with spans.installed(tracer):
            for step in _steps(workload, work, "traced", shape):
                start = time.perf_counter()
                with tracer.span(f"cli.{step.label}") as root:
                    code = call(step)
                wall += time.perf_counter() - start
                checker.verify(step.label, code, step.outputs, step.parse)
                if step.label == "disparity":
                    traced_s.append(root.duration)
        passes.append(spans.layer_metrics(tracer, wall))
        if not first_spans:
            first_spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        if len(passes) % 2:
            untraced_disparity()
        last = time.perf_counter() - started

    # counts are the same in every pass; times take the median
    values = {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
    values["cli.import_s"] = statistics.median(i.seconds for i in imports)
    values["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    acc = score(work / "scene", work / "traced")
    for path in ("balanced", "occlusion", "unbalanced-mirror"):
        values[f"disparity.max_err_px.{path}"] = acc[f"max_err_px.{path}"]
    samples = {"traced_disparity_s": traced_s, "untraced_disparity_s": untraced_s,
               "import_s": [i.seconds for i in imports]}
    return {"values": values, "samples": samples, "checker": checker, "spans": first_spans}


def _print_metrics(workload: str, result: dict, table: dict) -> None:
    for name, spec in table.items():
        unit = spec[0]
        line = f"{workload:<15} {name:<38} {result['values'][name]:>14.6g} {unit}"
        samples = result["samples"].get(name)
        if samples:
            line += f"   median of {len(samples)}, max {max(samples):.6g}"
        print(line)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = (traced if trace else untraced)(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    _print_metrics(workload, result, table)
    for failure in result["checker"].failures:
        print(f"{workload}: failed {failure}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*metrics.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also write values, samples and the first traced pass's "
                        "spans (name, start, end, parent) as JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "otstereo" / "cli.py").is_file():
        print(f"perfbench: no otstereo package under {SRC}", file=sys.stderr)
        return 2

    workloads = metrics.ALL if args.workload == "all" else (args.workload,)
    table = metrics.PER_LAYER if args.trace else metrics.GATED
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except MALFORMED as exc:
        print(f"perfbench: cannot score the run: {exc!r}", file=sys.stderr)
        return 1
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(
            {w: {"values": r["values"], "samples": r["samples"], "spans": r.get("spans", []),
                 "failures": r["checker"].failures} for w, r in results.items()},
            indent=1, sort_keys=True,
        ))
    prefix = len(workloads) > 1
    attempted = sum(r["checker"].attempted for r in results.values())
    failed = sum(len(r["checker"].failures) for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": r["values"][name], "unit": spec[0]}
            for w, r in results.items() for name, spec in table.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
