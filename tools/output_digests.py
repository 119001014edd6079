#!/usr/bin/env python3
"""SHA-256 digests of everything the otstereo commands write.

    python3 tools/output_digests.py SRC_DIR > digests.txt

SRC_DIR is the directory that holds the `otstereo` package to run (the
`src` directory of a checkout). For every scene below the script runs,
each as its own `python -m otstereo.cli` process:

    generate scene.txt
    disparity left.pgm right.pgm                 (the defaults)
    disparity left.pgm right.pgm --niter 10000
    disparity left.pgm right.pgm --config run.cfg
    reconstruct disparity.csv right.pgm          (of the default run)
    diagnose left.pgm right.pgm --y 1 --niter 300

where run.cfg sets niter, stop_tolerance and out_dir, and, once, in a
directory without a scene, the exit paths that need none:

    --help
    disparity                                    (a usage error)
    reconstruct no_such.csv no_such.pgm          (a missing input file)
    disparity no_such.pgm no_such.pgm --config bad.cfg
                                                 (an unknown config key)

It prints one `artifact sha256` line per output file, stdout, stderr
and exit code, sorted by artifact. Commands run inside the scene's own
directory with relative paths, so no line depends on where the
scratch directory lies, with buffered standard streams and an
80-column help text. Two checkouts write the same bytes exactly when
`diff` of their two listings is empty.

The scenes are the benchmark's (perfbench/scenes.py, imported and
only read; seeds 1-3 of each workload) plus six written here: the
README example, a row whose far object is hidden from both views by
a near one, the two single-row scenes of tests/test_occlusion.py
whose row fails, given a second row so that `--y 1` traces it, a
640-wide frame of bands of equal rows, and a 640-wide frame in which
no two rows are equal.
"""
from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's scenes are only read: no bytecode cache is left there
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))

from scenes import SCENES  # noqa: E402

SEEDS = (1, 2, 3)


def distinct_rows() -> str:
    """A 640x24 frame whose rows all differ, so the codecs find no repeat.

    Each row is its own band of 8-40 px objects with shifts 2-12. The
    gap after each object is wider than any two shifts differ, so no
    object hides another in either view.
    """
    rng = random.Random(20)
    lines = ["width = 640", "height = 24"]
    for y in range(24):
        x = rng.randint(0, 20)
        while True:
            size, shift = rng.randint(8, 40), rng.randint(2, 12)
            if x + size + shift > 640:
                break
            lines.append(f"object = x0:{x} width:{size} shift:{shift} "
                         f"intensity:{rng.randint(1, 9) / 10} y0:{y} height:1")
            x += size + rng.randint(11, 40)
    return "\n".join(lines) + "\n"


HAND_SCENES = {
    "readme": """\
width = 120
height = 100
object = x0:20 width:26 shift:9 intensity:0.5
object = x0:47 width:40 shift:4 intensity:0.6
""",
    # the near object covers the far one's columns 30-39 in the right
    # view and its columns 40-49 in the left view
    "both_view": """\
width = 100
height = 3
object = x0:20 width:50 shift:10 intensity:0.4
object = x0:30 width:10 shift:20 intensity:0.8
""",
    # the near object's image lands inside its neighbor's image
    "landing_past_start": """\
width = 80
height = 2
object = x0:8 width:4 shift:9 intensity:0.3
object = x0:12 width:15 shift:3 intensity:0.75
""",
    # the same on a row whose left view is heavier
    "mirror_landing_inside": """\
width = 80
height = 2
object = x0:5 width:18 shift:3 intensity:0.3
object = x0:17 width:4 shift:9 intensity:0.45
""",
    # bands of equal rows: the rows of the full-height object alone
    # come back after each band, the 45-64 band runs across row 51,
    # where the codecs' 640-wide blocks meet, and rows 20-25 hide part
    # of the 10-39 band
    "row_bands": """\
width = 640
height = 120
object = x0:20 width:40 shift:2 intensity:0.2
object = x0:100 width:60 shift:5 intensity:0.5 y0:10 height:30
object = x0:150 width:12 shift:11 intensity:0.8 y0:20 height:6
object = x0:300 width:40 shift:8 intensity:0.7 y0:45 height:20
object = x0:500 width:30 shift:3 intensity:0.3 y0:80 height:10
""",
    "distinct_rows": distinct_rows(),
}

COMMANDS = (
    ("generate", ["generate", "scene.txt", "--out-dir", "pair"]),
    ("disparity", ["disparity", "pair/left.pgm", "pair/right.pgm", "--out-dir", "run"]),
    ("disparity-niter10000", ["disparity", "pair/left.pgm", "pair/right.pgm",
                              "--niter", "10000", "--out-dir", "run10000"]),
    ("disparity-config", ["disparity", "pair/left.pgm", "pair/right.pgm",
                          "--config", "run.cfg"]),
    ("reconstruct", ["reconstruct", "run/disparity.csv", "pair/right.pgm",
                     "--out", "cloud/cloud.ply"]),
    ("diagnose", ["diagnose", "pair/left.pgm", "pair/right.pgm", "--y", "1",
                  "--niter", "300", "--out-dir", "diag"]),
)

EXIT_PATHS = (
    ("help", ["--help"]),
    ("usage-error", ["disparity"]),
    ("missing-file", ["reconstruct", "no_such.csv", "no_such.pgm"]),
    ("config-unknown-key", ["disparity", "no_such.pgm", "no_such.pgm",
                            "--config", "bad.cfg"]),
)

# the config files the commands above read, written before they run
CONFIG_FILES = {
    "run.cfg": "# settings from a file\nniter = 5000\nstop_tolerance = 1e-5\n"
               "out_dir =  runcfg \n",
    "bad.cfg": "niter = 100\nworkers = 2\n",
}

# one thread per numeric library, as the benchmark runs its children
THREAD_ENV = {name: "1" for name in
              ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(src: Path) -> dict[str, str]:
    """The environment of a command run from the package under src."""
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src),
            "PYTHONDONTWRITEBYTECODE": "1"}


def prepare_scene(work: Path, text: str) -> None:
    """Make work a scene directory: scene.txt, cloud/ and CONFIG_FILES."""
    (work / "cloud").mkdir(parents=True)
    (work / "scene.txt").write_text(text)
    for name, config in CONFIG_FILES.items():
        (work / name).write_text(config)


def scenes() -> dict[str, str]:
    found = {
        f"{name}-{seed}": build(seed)
        for name, build in sorted(SCENES.items())
        for seed in SEEDS
    }
    found.update(HAND_SCENES)
    return found


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(src: Path, name: str, commands, work: Path) -> list[tuple[str, str]]:
    """Run each (label, argv) of commands in work; (artifact, digest) pairs."""
    env = {**child_env(src), "COLUMNS": "80"}
    # buffered streams, so an exit that skips their flush shows
    env.pop("PYTHONUNBUFFERED", None)
    lines = []
    for label, argv in commands:
        before = {p for p in work.rglob("*") if p.is_file()}
        proc = subprocess.run(
            [sys.executable, "-m", "otstereo.cli", *argv],
            cwd=work, env=env, capture_output=True,
        )
        lines += [
            (f"{name}/{label}/stdout", sha256(proc.stdout)),
            (f"{name}/{label}/stderr", sha256(proc.stderr)),
            (f"{name}/{label}/exit", sha256(str(proc.returncode).encode())),
        ]
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            if path not in before:
                rel = path.relative_to(work).as_posix()
                lines.append((f"{name}/{label}/{rel}", sha256(path.read_bytes())))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    if not (src / "otstereo" / "cli.py").is_file():
        print(f"output_digests: no otstereo package under {src}", file=sys.stderr)
        return 1
    lines = []
    with tempfile.TemporaryDirectory(prefix="otstereo-digests-") as scratch:
        for name, text in scenes().items():
            work = Path(scratch) / name
            prepare_scene(work, text)
            lines += digests(src, name, COMMANDS, work)
        work = Path(scratch) / "exit-path"
        work.mkdir()
        (work / "bad.cfg").write_text(CONFIG_FILES["bad.cfg"])
        lines += digests(src, "exit-path", EXIT_PATHS, work)
    for artifact, digest in sorted(lines):
        print(artifact, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
