"""In-process tracing of otstereo through timing wrappers.

The wrappers replace the module attributes that callers look up, so
nothing in the package changes: the command line reaches its readers
through `otstereo.fileio.<name>`, and `otstereo.cli` and
`otstereo.disparity` import the functions they call by name. Every
call opens a span with a name, a start, an end and its parent. Spans
stay in memory until the run ends. The wrappers assume one thread,
which holds at the command line's default of one worker.
"""
from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass, field

import otstereo.cli
import otstereo.disparity
import otstereo.fileio

from outputs import PATHS

FILEIO = (
    "read_pgm", "write_pgm", "write_disparity_pgm", "write_csv", "read_csv",
    "write_json", "write_ply",
)

# (module, attribute, span name); the span name's prefix is its layer.
TARGETS = (
    *((otstereo.fileio, name, f"fileio.{name}") for name in FILEIO),
    (otstereo.cli, "load_scene", "scene.load_scene"),
    (otstereo.cli, "render_pair", "scene.render_pair"),
    (otstereo.cli, "reconstruct", "scene.reconstruct"),
    (otstereo.cli, "map_from_values", "scene.map_from_values"),
    (otstereo.cli, "disparity_map", "disparity.disparity_map"),
    (otstereo.disparity, "recover_occlusions", "disparity.peel"),
    (otstereo.disparity, "build_kernel", "kernel.build"),
    (otstereo.disparity, "measure_from_row", "measures.measure_from_row"),
    (otstereo.disparity, "compare_masses", "measures.compare_masses"),
    (otstereo.disparity, "sinkhorn", "sinkhorn.solve"),
    (otstereo.disparity, "shifted_sinkhorn", "shifted.solve"),
    (otstereo.disparity, "monotone_plan", "exact.monotone_plan"),
)

# Hilbert steps over which sinkhorn.empirical_rate measures the decay.
RATE_WINDOW = 100


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; span ids are indices into `spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                _describe(record, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def _describe(record: Span, args, result) -> None:
    """Keep the facts of a call that the layer metrics need."""
    layer = record.name.split(".")[0]
    if layer in ("sinkhorn", "shifted"):
        a, b, kernel = args[0], args[1], args[2]
        report = result[2] if layer == "sinkhorn" else result.report
        steps = [u + v for u, v in zip(report.hilbert_u, report.hilbert_v)]
        window = min(RATE_WINDOW, len(steps) - 1)
        rate = None
        if window > 0 and steps[-1] > 0.0 and steps[-1 - window] > 0.0:
            rate = (steps[-1] / steps[-1 - window]) ** (1.0 / window)
        record.info.update(
            iterations=report.iterations,
            stop_reason=report.stop_reason,
            violation=report.marginal_violation,
            cells=report.iterations * int((a > 0).sum()) * int((b > 0).sum()),
            rate=rate,
            lam=kernel.lam,
        )
    elif record.name == "kernel.build":
        record.info.update(d=result.d, lam=result.lam)
    elif record.name == "fileio.read_pgm":
        record.info["bytes"] = os.path.getsize(args[0])
    elif record.name == "disparity.disparity_map":
        record.info.update(
            rows=result.height,
            paths=[row["path"] for row in result.diagnostics],
        )


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Install the wrappers for the duration of the block, then restore."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for (module, attr, name), (_, _, fn) in zip(targets, originals):
            setattr(module, attr, tracer.wrap(fn, name))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _solver_metrics(prefix: str, spans, own) -> dict:
    calls = [s for s in spans if s.name == f"{prefix}.solve"]
    seconds = sum(own[i] for i, s in enumerate(spans) if s.name == f"{prefix}.solve")
    iterations = sum(s.info["iterations"] for s in calls)
    cells = sum(s.info["cells"] for s in calls)
    budget = sum(s.info["stop_reason"] == "max-iterations" for s in calls)
    out = {
        f"{prefix}.calls": len(calls),
        f"{prefix}.iterations": iterations,
        f"{prefix}.s": seconds,
        f"{prefix}.us_per_iter": 1e6 * seconds / iterations if iterations else 0.0,
        f"{prefix}.budget_stop_frac": budget / len(calls) if calls else 0.0,
    }
    if prefix == "sinkhorn":
        rates = [s.info["rate"] for s in calls if s.info["rate"] is not None]
        out.update({
            "sinkhorn.cells": cells,
            "sinkhorn.ns_per_cell": 1e9 * seconds / cells if cells else 0.0,
            "sinkhorn.max_marginal_violation": max(
                (s.info["violation"] for s in calls), default=0.0
            ),
            "sinkhorn.empirical_rate": statistics.median(rates) if rates else 0.0,
        })
    return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced generate, disparity, reconstruct pass.

    Times are self times summed over the pass. wall_s is the pass's wall
    time measured around the command-line calls; trace.accounted_frac is
    the share of it that the layer spans cover, i.e. all but cli.self_s.
    """
    spans = tracer.spans
    own = tracer.self_times()

    def self_s(*names) -> float:
        return sum(own[i] for i, s in enumerate(spans) if s.name in names)

    def count(name) -> int:
        return sum(s.name == name for s in spans)

    kernels = [s for s in spans if s.name == "kernel.build"]
    maps = [s for s in spans if s.name == "disparity.disparity_map"]
    peels = [i for i, s in enumerate(spans) if s.name == "disparity.peel"]
    subsolves = sum(
        s.parent in peels for s in spans if s.name in ("sinkhorn.solve", "shifted.solve")
    )
    rows = sum(s.info["rows"] for s in maps)
    # _row_pipeline measures both rows of every scanline it solves
    unique = count("measures.measure_from_row") // 2
    paths = [p for s in maps for p in s.info["paths"]]
    d = max((s.info["d"] for s in kernels), default=0)
    metrics = {
        "cli.self_s": sum(own[i] for i, s in enumerate(spans) if s.name.startswith("cli.")),
        **{f"fileio.{name}_s": self_s(f"fileio.{name}") for name in FILEIO},
        "fileio.read_pgm_mb": sum(
            s.info["bytes"] for s in spans if s.name == "fileio.read_pgm"
        ) / 1e6,
        "scene.load_scene_s": self_s("scene.load_scene"),
        "scene.render_pair_s": self_s("scene.render_pair"),
        "scene.reconstruct_s": self_s("scene.reconstruct"),
        "scene.map_from_values_s": self_s("scene.map_from_values"),
        "kernel.build_s": self_s("kernel.build"),
        "kernel.dense_mb": d * d * 8 / 1e6,
        "kernel.lam": max((s.info["lam"] for s in kernels), default=0.0),
        "measures.s": self_s("measures.measure_from_row", "measures.compare_masses"),
        **_solver_metrics("sinkhorn", spans, own),
        **_solver_metrics("shifted", spans, own),
        "exact.monotone_calls": count("exact.monotone_plan"),
        "exact.monotone_s": self_s("exact.monotone_plan"),
        "disparity.rows": rows,
        "disparity.unique_rows": unique,
        "disparity.dedup_ratio": unique / rows if rows else 0.0,
        **{f"disparity.path.{p}": paths.count(p) for p in PATHS},
        "disparity.peel_calls": len(peels),
        "disparity.peel_s": sum(spans[i].duration for i in peels),
        "disparity.subsolves_per_occluded_row": subsolves / len(peels) if peels else 0.0,
        "disparity.self_s": self_s("disparity.disparity_map", "disparity.peel"),
    }
    metrics["trace.accounted_frac"] = (
        1.0 - metrics["cli.self_s"] / wall_s if wall_s > 0 else 0.0
    )
    return metrics
