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

import gc

# No collection while numpy and the package load: what the imports
# make lives until exit, and run() freezes it. The collector comes
# back on in run(), or at the end of this module when it is imported.
_COLLECTOR_WAS_ON = gc.isenabled()
gc.disable()

import atexit
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import fileio
from .errors import OtStereoError

# Each command loads only the modules it runs: the solver stack,
# otstereo.scene and otstereo.geometry are imported where a command
# calls into them, so `reconstruct` loads the rig geometry alone, and
# no command loads otstereo.reference. The commands call the library
# through the module-level wrappers below, the names
# perfbench/spans.py replaces with timed ones.


def parse_run_config(text: str) -> dict:
    """Parse flat key=value lines into run settings, keyed as _CONFIG_TYPES."""
    fields = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_TYPES:
            raise ValueError(f"config line {line_no}: unknown entry {line!r}")
        if key in fields:
            raise ValueError(f"config line {line_no}: duplicate entry {key!r}")
        try:
            fields[key] = _CONFIG_TYPES[key](raw.strip())
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {exc}")
    return fields


def resolve_config(args):
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
    for name in _CONFIG_TYPES:
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
    """geometry.reconstruct; the first call loads otstereo.geometry."""
    from .geometry import reconstruct as lift

    return lift(disparity, rig, right_image)


def map_from_values(values):
    """maps.map_from_values; the first call loads otstereo.maps."""
    from .maps import map_from_values as wrap

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
    from .geometry import CameraRig

    rig = CameraRig(**{name: getattr(args, name) for name in CameraRig._fields
                       if getattr(args, name) is not None})
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
    from .disparity import measure_from_row
    from .scaling import SinkhornConfig, build_kernel, iteration_trace

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
    # the trace measures each iteration against the run's own endpoint,
    # so the series shows the distance still to travel
    records, final_plan, report = iteration_trace(nu0, nu1, kernel, sk)

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


# Every command: its help line, its handler, its positionals with their
# help, and its flags as add_argument takes them, in the order
# build_parser() adds them. _plain_args() reads the plain argv forms
# from the same table, so the two cannot drift apart.
# _CONFIG_FLAGS are the run settings; a config file sets each but
# --config under its dest, and resolve_config layers the two.
_CONFIG_FLAGS = (
    ("--config", {
        "help": "key=value file setting epsilon, niter, stop_tolerance, out_dir",
    }),
    ("--epsilon", {"type": float, "help": "entropic regularization"}),
    ("--niter", {"type": int, "help": "iteration budget per scanline"}),
    ("--stop-tolerance", {
        "type": float,
        "help": "largest column-marginal violation (max norm, unit-mass rows) "
        "at which a solve stops; default 1e-6, 0 runs exactly niter iterations",
    }),
    ("--out-dir", {"help": "output directory"}),
)
_PAIR = (("left", "left PGM image"), ("right", "right PGM image"))


def _dest(flag: str) -> str:
    """argparse's dest for a flag: --stop-tolerance sets stop_tolerance."""
    return flag[2:].replace("-", "_")


_CONFIG_TYPES = {
    _dest(flag): spec.get("type", str) for flag, spec in _CONFIG_FLAGS if flag != "--config"
}

COMMANDS = {
    "generate": (
        "render a scene into a stereo pair", cmd_generate,
        (("scene", "scene description file"),),
        (("--out-dir", {"default": "."}),),
    ),
    "disparity": ("solve a stereo pair", cmd_disparity, _PAIR, _CONFIG_FLAGS),
    "reconstruct": (
        "lift disparity to a point cloud", cmd_reconstruct,
        (("disparity", "disparity CSV"),
         ("image", "right PGM image supplying intensities")),
        (
            ("--out", {"default": "cloud.ply", "help": "output PLY path"}),
            # no defaults: cmd_reconstruct leaves unset ones to CameraRig
            ("--baseline", {"type": float}),
            ("--focal", {"type": float}),
            ("--beta", {"type": float}),
        ),
    ),
    "diagnose": (
        "trace one scanline's iterations", cmd_diagnose, _PAIR,
        (("--y", {"type": int, "required": True, "help": "scanline to trace"}),
         *_CONFIG_FLAGS),
    ),
}


def build_parser():
    """The argparse parser of COMMANDS, for what _plain_args leaves to it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse flavor whose usage errors exit with code 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            raise SystemExit(f"{self.prog}: error: {message}")

    parser = _Parser(prog="otstereo", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, positionals, flags) in COMMANDS.items():
        command = commands.add_parser(name, help=help_line)
        for positional, help_text in positionals:
            command.add_argument(positional, help=help_text)
        for flag, spec in flags:
            command.add_argument(flag, **spec)
        command.set_defaults(run=handler)
    return parser


def _plain_args(argv):
    """What build_parser().parse_args(argv) gives, for a plain argv; else None.

    A plain argv is a command, then that command's positionals in
    order, with its flags spelled in full anywhere after the command,
    each followed by a value that does not start with "-" and that the
    flag's type accepts, and every required flag given; a repeated flag
    keeps its last value. Every other form, such as --help, "--",
    --flag=value, an abbreviated flag or a negative value, is left to
    argparse, which also reports what is wrong.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, positionals, flags = COMMANDS[argv[0]]
    flags = dict(flags)
    values = {_dest(flag): spec.get("default") for flag, spec in flags.items()}
    given, words = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        value = next(tokens, "-")  # a flag at the end has no value
        if token not in flags or value.startswith("-"):
            return None
        try:
            values[_dest(token)] = flags[token].get("type", str)(value)
        except ValueError:
            return None
        given.add(token)
    required = {flag for flag, spec in flags.items() if spec.get("required")}
    if len(words) != len(positionals) or not required <= given:
        return None
    values.update(zip((name for name, _ in positionals), words))
    return SimpleNamespace(command=argv[0], run=handler, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OtStereoError, OSError, ValueError) as exc:
        print(f"otstereo: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry of the `otstereo` command and `python -m otstereo.cli`.

    Freezes the import-time heap (numpy, this module), which lives
    until exit anyway yet every full collection walks, turns on the
    collector the imports ran without, and runs main().
    Then it ends the process as the interpreter would, minus its
    teardown: the exit code resolved as from a SystemExit, the atexit
    handlers run, stdout and stderr flushed, then os._exit. A profiler
    or tracer (cProfile, coverage, pdb; through setprofile, settrace or
    sys.monitoring), `python -i` or a failed flush gets the plain
    sys.exit, so the tool gets control back or the interpreter reports
    the failure. main() leaves the collector and the process alone, for
    callers that run it in their own process.
    """
    gc.freeze()
    gc.enable()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    # pdb drops its tracer to run on to the end, yet wants control back;
    # from Python 3.12 cProfile hooks in through sys.monitoring (tool
    # ids 0-5) and leaves getprofile() None, as coverage can
    monitoring = getattr(sys, "monitoring", None)
    if sys.getprofile() is not None or sys.gettrace() is not None or (
        "bdb" in sys.modules or sys.flags.inspect
    ) or (monitoring and any(monitoring.get_tool(i) is not None for i in range(6))):
        sys.exit(code)
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
elif _COLLECTOR_WAS_ON:
    # freeze() then unfreeze() moves every tracked object, the caller's
    # as well as the imports', to the oldest generation without a walk,
    # so no young collection walks the import-time heap before a console
    # script's run() freezes it; unfreeze() would release what a caller froze
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    gc.enable()
