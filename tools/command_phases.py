#!/usr/bin/env python3
"""Where the wall time of each fresh otstereo command goes.

    python3 tools/command_phases.py SRC_DIR [SRC_DIR ...] [--scene S] [--runs N]

SRC_DIR is the directory that holds the `otstereo` package to run (the
`src` directory of a checkout); give two to compare checkouts. S is a
scene file, or the name of a benchmark workload, whose seed-1 scene is
used; the default is `wide_roundtrip`. The workloads, the commands and
the child's environment are those of tools/output_digests.py. Each tree first generates the pair and solves it
once, untimed, in a directory of its own. Then N rounds (default 21)
run every command of every tree once, each as its own process, tree
after tree, with the order of the trees reversed every other round, so
that drift of a shared machine falls on all of them alike:

    generate scene.txt
    disparity left.pgm right.pgm                 (the defaults)
    disparity left.pgm right.pgm --config run.cfg
    reconstruct disparity.csv right.pgm          (of the default run)
    diagnose left.pgm right.pgm --y 1 --niter 300

Each child runs the command as `python -m otstereo.cli` does, through
otstereo.cli.run() (its process entry), with no bytecode cache and one
thread per numeric library, as the benchmark runs its children, with
one difference: it imports otstereo.cli as a module, as the `otstereo`
console script does, whose import turns the collector back on at its
end. The import first moves its heap to the oldest generation, so the
child's collections cost what they cost under `python -m`: 0.2-0.7 ms
in all per command on a 2-core shared VM, against about 4-5 ms when
the first young collection walked that heap. It stamps the
system-wide monotonic clock at its first statement, after `import
otstereo.cli` and when main() returns, which splits the wall time
into four phases:

    start     spawn to the child's first statement: fork, exec and
              interpreter start-up
    imports   import otstereo.cli: numpy and the package's modules,
              compiled from source
    main      main(): arguments, the command's work and the modules it
              loads on first use
    teardown  main()'s return to the reaping of the child: run()'s
              exit path and the end of the process

and prints, per tree and command, the median of each phase, of the
wall time and of the child's CPU time (user plus system, from
os.wait4), in ms, and of the child's minor page faults:

    minflt    ru_minflt from os.wait4, the pages the whole child
              touched first and the kernel mapped in, a count

The timings go to stdout only.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import output_digests
from output_digests import SCENES, child_env

# the digests' commands but the --niter 10000 solve
COMMANDS = tuple(
    (label, argv) for label, argv in output_digests.COMMANDS
    if label != "disparity-niter10000"
)
PHASES = ("start", "imports", "main", "teardown", "wall", "cpu", "minflt")

# argv: the write end of the stamp pipe, then the command's arguments.
# The stamps go out unbuffered, so the exit path cannot lose them.
CHILD = """\
import time
stamps = [time.monotonic_ns()]
import os, sys
import otstereo.cli
stamps.append(time.monotonic_ns())
fd, sys.argv = int(sys.argv[1]), ["otstereo", *sys.argv[2:]]
main = otstereo.cli.main
def timed(argv=None):
    try:
        return main(argv)
    finally:
        stamps.append(time.monotonic_ns())
        os.write(fd, " ".join(map(str, stamps)).encode())
otstereo.cli.main = timed
otstereo.cli.run()
"""


def scene_text(scene: str) -> str:
    path = Path(scene)
    if path.is_file():
        return path.read_text()
    if scene not in SCENES:
        raise SystemExit(f"command_phases: {scene!r} is neither a file nor one of "
                         f"{sorted(SCENES)}")
    return SCENES[scene](1)


def timed_run(src: Path, argv: list[str], work: Path) -> dict[str, float]:
    """One fresh command in work; its phases, wall and CPU time in ms, and faults."""
    env = child_env(src)
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as pipe:
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(write_end), *argv],
                cwd=work, env=env, pass_fds=(write_end,),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = time.monotonic_ns()
        stamps = [int(token) for token in pipe.read().split()]
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    if proc.returncode != 0 or len(stamps) != 3:
        raise SystemExit(f"command_phases: {' '.join(argv)} under {src} exited "
                         f"{proc.returncode}:\n{stderr}")
    first, imported, returned = stamps
    phases = {
        "start": first - spawned,
        "imports": imported - first,
        "main": returned - imported,
        "teardown": reaped - returned,
        "wall": reaped - spawned,
    }
    phases = {name: ns / 1e6 for name, ns in phases.items()}
    phases["cpu"] = (usage.ru_utime + usage.ru_stime) * 1e3
    phases["minflt"] = usage.ru_minflt
    return phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", type=Path, help="directory holding otstereo")
    parser.add_argument("--scene", default="wide_roundtrip",
                        help="scene file or benchmark workload name")
    parser.add_argument("--runs", type=int, default=21, help="rounds of every command")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src]
    for src in trees:
        if not (src / "otstereo" / "cli.py").is_file():
            parser.error(f"no otstereo package under {src}")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    text = scene_text(args.scene)

    samples = {(k, label): [] for k in range(len(trees)) for label, _ in COMMANDS}
    with tempfile.TemporaryDirectory(prefix="otstereo-phases-") as scratch:
        works = []
        for k, src in enumerate(trees):
            work = Path(scratch) / str(k)
            output_digests.prepare_scene(work, text)
            # the pair and the solve that reconstruct reads
            for _, command in COMMANDS[:2]:
                timed_run(src, command, work)
            works.append(work)
        for round_no in range(args.runs):
            order = list(enumerate(zip(trees, works)))
            for k, (src, work) in order if round_no % 2 == 0 else order[::-1]:
                for label, command in COMMANDS:
                    samples[k, label].append(timed_run(src, command, work))

    for k, src in enumerate(trees):
        print(f"# tree {k}: {src}")
    print(f"# ms (minflt: pages), median of {args.runs} fresh runs")
    print(f"{'tree':>4} {'command':<16}" + "".join(f"{name:>10}" for name in PHASES))
    for (k, label), runs in samples.items():
        medians = [statistics.median(run[name] for run in runs) for name in PHASES]
        print(f"{k:>4} {label:<16}" + "".join(f"{value:>10.1f}" for value in medians[:-1])
              + f"{medians[-1]:>10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
