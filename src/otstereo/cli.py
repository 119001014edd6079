"""Command-line tool around the scanline transport pipeline.

Four subcommands cover the full loop: `generate` renders a synthetic
stereo pair with ground truth, `disparity` solves a pair into a
disparity map plus occlusion and convergence reports, `reconstruct`
lifts a disparity grid to a point cloud, and `diagnose` records the
per-iteration behaviour of a single scanline.

The commands name the files and hand what the library returns to
otstereo.fileio, which spells every output file. All outputs are
deterministic for a fixed input and configuration: scanlines are
solved one after another in a fixed order and no timestamps are
written.

Exit codes: 0 on success, 1 for input or configuration errors, 2 for
numerical failures such as an unresolved occlusion.
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import OtStereoError, UnresolvedOcclusionError

# Each command loads only the modules it runs: the solver stack
# (disparity, scaling) and otstereo.scene are imported where a command
# calls into them, and no command loads otstereo.reference. The
# commands call the scene and pipeline functions through the
# module-level wrappers below, the names perfbench/spans.py replaces
# with timed ones.

# The run settings a config file or a flag can set. epsilon, niter
# and stop_tolerance override the fields of disparity.DEFAULT_CONFIG
# (niter is its max_iterations); out_dir defaults to ".".
_CONFIG_PARSERS = {
    "epsilon": float,
    "niter": int,
    "stop_tolerance": float,
    "out_dir": str.strip,
}


def parse_run_config(text: str) -> dict:
    """Parse flat key=value lines into run settings, keyed as _CONFIG_PARSERS."""
    fields = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_PARSERS:
            raise ValueError(f"config line {line_no}: unknown entry {line!r}")
        if key in fields:
            raise ValueError(f"config line {line_no}: duplicate entry {key!r}")
        try:
            fields[key] = _CONFIG_PARSERS[key](raw.strip())
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {exc}")
    return fields


def resolve_config(args: argparse.Namespace):
    """The run's (SinkhornConfig, out_dir).

    Layers the defaults (disparity.DEFAULT_CONFIG, out_dir "."), then
    the config file, then explicit flags. The solve starts warm, as
    DEFAULT_CONFIG does. A budget below one is named as the flag and
    key `niter`; SinkhornConfig rejects the other bad values.
    """
    from .disparity import DEFAULT_CONFIG
    from .scaling import SinkhornConfig

    fields = {}
    if getattr(args, "config", None):
        fields.update(parse_run_config(Path(args.config).read_text()))
    for name in _CONFIG_PARSERS:
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    niter = fields.get("niter", DEFAULT_CONFIG.max_iterations)
    if niter < 1:
        raise ValueError("niter must be at least 1")
    config = SinkhornConfig(
        fields.get("epsilon", DEFAULT_CONFIG.epsilon),
        max_iterations=niter,
        stop_tolerance=fields.get("stop_tolerance", DEFAULT_CONFIG.stop_tolerance),
        warm_start=DEFAULT_CONFIG.warm_start,
    )
    return config, fields.get("out_dir", ".")


def disparity_map(left, right, config):
    """The pipeline's disparity_map; the first call loads the solver stack."""
    from .disparity import disparity_map as solve

    return solve(left, right, config)


def load_scene(path):
    """scene.load_scene; the first call loads otstereo.scene."""
    from .scene import load_scene as load

    return load(path)


def render_pair(scene, rig):
    """scene.render_pair; the first call loads otstereo.scene."""
    from .scene import render_pair as render

    return render(scene, rig)


def reconstruct(disparity, rig, right_image):
    """scene.reconstruct; the first call loads otstereo.scene."""
    from .scene import reconstruct as lift

    return lift(disparity, rig, right_image)


def map_from_values(values):
    """scene.map_from_values; the first call loads otstereo.scene."""
    from .scene import map_from_values as wrap

    return wrap(values)


def cmd_generate(args) -> int:
    scene, rig = load_scene(args.scene)
    pair = render_pair(scene, rig)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_pgm(out / "left.pgm", pair.left)
    fileio.write_pgm(out / "right.pgm", pair.right)
    fileio.write_csv(out / "truth_disparity.csv", pair.truth.values)
    hidden = [{"y": y, **rows} for y, rows in sorted(pair.hidden.items())]
    fileio.write_json(
        out / "occlusions.json", {"non_occluded": pair.non_occluded, "scanlines": hidden}
    )
    return 0


def cmd_disparity(args) -> int:
    from .scaling import STOP_MAX_ITERATIONS

    config, out_dir = resolve_config(args)
    left = fileio.read_pgm(args.left)
    right = fileio.read_pgm(args.right)
    result = disparity_map(left, right, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_csv(out / "disparity.csv", result.values)
    fileio.write_disparity_pgm(out / "disparity.pgm", result.values)
    fileio.write_scanlines(
        out / "occlusion_report.json",
        [{k: v for k, v in r._asdict().items() if k != "solve"} for r in result.reports],
    )
    fileio.write_scanlines(out / "diagnostics.json", result.diagnostics)
    budget = [
        info["y"] for info in result.diagnostics
        if info.get("stop_reason") == STOP_MAX_ITERATIONS
    ]
    if budget:
        print(
            f"otstereo: scanlines {budget} stopped on the iteration budget "
            "before converging",
            file=sys.stderr,
        )
    failed = [info["y"] for info in result.diagnostics if info["path"] == "failed"]
    if failed:
        # outputs are still written; the exit code flags the rows
        # that could not be resolved
        print(
            f"otstereo: numerical failure on scanlines {failed}", file=sys.stderr
        )
        return 2
    return 0


def cmd_reconstruct(args) -> int:
    from .scene import CameraRig

    rig = CameraRig(baseline=args.baseline, focal=args.focal, beta=args.beta)
    values = fileio.read_csv(args.disparity)
    image = fileio.read_pgm(args.image)
    if values.size == 0:
        fileio.write_ply(args.out, np.empty((0, 4)))
        return 0
    if values.shape != image.shape:
        raise ValueError(
            f"disparity grid {values.shape} does not match image {image.shape}"
        )
    cloud = reconstruct(map_from_values(values), rig, image)
    fileio.write_ply(args.out, cloud)
    return 0


def cmd_diagnose(args) -> int:
    from .disparity import disparity_profile, measure_from_row
    from .scaling import SinkhornConfig, build_kernel, iteration_trace, sinkhorn

    config, out_dir = resolve_config(args)
    left = fileio.read_pgm(args.left)
    right = fileio.read_pgm(args.right)
    if left.shape != right.shape:
        raise ValueError(f"image shapes {left.shape} and {right.shape} differ")
    if not 0 <= args.y < left.shape[0]:
        raise ValueError(f"scanline {args.y} outside image of height {left.shape[0]}")
    nu0 = measure_from_row(right[args.y], require_mass=True)
    nu1 = measure_from_row(left[args.y], require_mass=True)
    # the series measures the contraction of the fixed-epsilon
    # iteration, so the solve starts cold
    sk = SinkhornConfig(config.epsilon, config.max_iterations, config.stop_tolerance)
    kernel = build_kernel(left.shape[1], sk.epsilon)

    # the reference is this very run's endpoint, so the series shows
    # the distance still to travel at each iteration
    plan, vectors, report = sinkhorn(nu0, nu1, kernel, sk)
    reference = disparity_profile(plan)
    records, final_plan = iteration_trace(
        nu0, nu1, kernel, sk,
        reference_vectors=vectors, reference_profile=reference,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_series(out / "diagnose_series.csv", records)
    fileio.write_csv(out / "diagnose_plan.csv", final_plan)
    fileio.write_json(
        out / "diagnose.json",
        {
            "y": args.y,
            "epsilon": sk.epsilon,
            "lam": kernel.lam,
            "iterations": report.iterations,
            "stop_reason": report.stop_reason,
            "marginal_violation": report.marginal_violation,
            "source_mass": float(nu0.sum()),
            "target_mass": float(nu1.sum()),
            # the trace's plan is the odd limit, whose mass is the
            # source's; the even limit carries the target's mass
            "mass_gap": float(final_plan.sum() - nu1.sum()),
        },
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", help="key=value file setting epsilon, niter, stop_tolerance, out_dir"
    )
    parser.add_argument("--epsilon", type=float, help="entropic regularization")
    parser.add_argument("--niter", type=int, help="iteration budget per scanline")
    parser.add_argument(
        "--stop-tolerance", dest="stop_tolerance", type=float,
        help="largest column-marginal violation (max norm, unit-mass rows) "
        "at which a solve stops; default 1e-6, 0 runs exactly niter iterations",
    )
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otstereo", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="render a scene into a stereo pair")
    gen.add_argument("scene", help="scene description file")
    gen.add_argument("--out-dir", dest="out_dir", default=".")
    gen.set_defaults(run=cmd_generate)

    disp = commands.add_parser("disparity", help="solve a stereo pair")
    disp.add_argument("left", help="left PGM image")
    disp.add_argument("right", help="right PGM image")
    _add_config_flags(disp)
    disp.set_defaults(run=cmd_disparity)

    rec = commands.add_parser("reconstruct", help="lift disparity to a point cloud")
    rec.add_argument("disparity", help="disparity CSV")
    rec.add_argument("image", help="right PGM image supplying intensities")
    rec.add_argument("--out", default="cloud.ply", help="output PLY path")
    rec.add_argument("--baseline", type=float, default=10.0)
    rec.add_argument("--focal", type=float, default=1000.0)
    rec.add_argument("--beta", type=float, default=2.0)
    rec.set_defaults(run=cmd_reconstruct)

    diag = commands.add_parser("diagnose", help="trace one scanline's iterations")
    diag.add_argument("left", help="left PGM image")
    diag.add_argument("right", help="right PGM image")
    diag.add_argument("--y", type=int, required=True, help="scanline to trace")
    _add_config_flags(diag)
    diag.set_defaults(run=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UnresolvedOcclusionError as exc:
        print(f"otstereo: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OtStereoError, OSError, ValueError) as exc:
        print(f"otstereo: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry of the `otstereo` command and `python -m otstereo.cli`.

    Exits with main()'s code. It first moves every object the imports
    made (numpy, this module) out of the garbage collector's reach:
    that heap lives until exit anyway, yet every full collection
    walks it, and interpreter finalization collects even with the
    collector disabled. Objects the command creates are collected as
    before. main() itself leaves the collector alone, for callers
    that run it in their own process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
