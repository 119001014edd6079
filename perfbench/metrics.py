"""Every metric the benchmark reports, with its unit and direction.

END_TO_END holds the metrics a user of the command line sees; the
benchmark's final line carries the ones with a bound, which are the ones
BENCHMARK.json lists. PER_LAYER holds the traced metrics, each with the
end-to-end metrics and workloads it is expected to move.
"""
from __future__ import annotations

from outputs import PATHS

# Iteration budgets that differ from the command line's default of
# 100000; a workload not named here runs at the default. At the default
# the stop rule never fires at epsilon 0.1, and the README row alone
# costs about 30 s, more than one benchmark run may take.
NITER = {"occluded_bands": 10000}

WORKLOADS = {
    "occluded_bands": "README row plus right-frame and mirror occlusion rows: "
    "exercises the peel loop, shifted_sinkhorn and monotone_plan, and keeps "
    "the mirror defect in view",
    "wide_roundtrip": "640x480 frame with one unique balanced row through generate, "
    "disparity and reconstruct: file IO, scene, a 640-wide kernel and dedup carry the "
    "work; the peel loop is bypassed",
}

ALL = tuple(WORKLOADS)

# name: (unit, better, bound or None, description). The gated timings
# are wall times scaled to a fixed machine speed (run.REFERENCE_S): on
# the shared 2-core machine this was built on, the speed of the same
# process drifts by up to 1.9x over seconds to minutes (see README.md).
# The plain wall times are printed beside them.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "time of one `otstereo generate` of the workload's scene, "
                "at the reference speed"),
    "disparity_s": ("s", "lower", 0.25,
                    "time of one `otstereo disparity` process, at the reference speed"),
    "reconstruct_s": ("s", "lower", 0.25,
                      "time of one `otstereo reconstruct` on disparity.csv, "
                      "at the reference speed"),
    "setup_wall_s": ("s", "lower", None, "wall time of one `otstereo generate`"),
    "disparity_wall_s": ("s", "lower", None, "wall time of one `otstereo disparity`"),
    "reconstruct_wall_s": ("s", "lower", None, "wall time of one `otstereo reconstruct`"),
    "reference_s": ("s", "lower", None,
                    "wall time of one reference.py run; the machine's speed"),
    "reference_loop_s": ("s", "lower", None,
                         "time of the small-array loop in one reference.py run"),
    "scanlines_per_s": ("1/s", "higher", None,
                        "image height over disparity_s; gated through disparity_s"),
    "peak_rss_mb": ("MB", "lower", 0.10,
                    "peak resident memory of the disparity process"),
    "max_err_px": ("px", "lower", 0.10,
                   "largest error over truth-visible pixels with an estimate"),
    "good_px_frac": ("frac", "higher", 0.05, "1 - bad_px_frac"),
    "occlusion_iou": ("frac", "higher", 0.05,
                      "IoU of recovered against true right-frame occluded columns"),
    "bad_px_frac": ("frac", "lower", None,
                    "share of truth-visible pixels off by more than 0.5 px or "
                    "without estimate; 0 on some workloads, so gated as good_px_frac"),
    "failed_ops_frac": ("frac", "lower", None,
                        "share of invocations that failed; 0 at the seed, "
                        "reported as `failed` in the result line"),
    "failed_rows_frac": ("frac", "lower", None,
                         "share of scanlines on the failed path; 0 at the seed"),
}

GATED = {name: spec for name, spec in END_TO_END.items() if spec[2] is not None}

WIDE = ("wide_roundtrip",)
OCCLUDED = ("occluded_bands",)
_SCENE = (("setup_s", ALL), ("reconstruct_s", WIDE))
_SOLVE = (("disparity_s", ALL), ("scanlines_per_s", ALL))
_WIDE_KERNEL = (("disparity_s", WIDE), ("peak_rss_mb", WIDE))
_ACCURACY = (("max_err_px", ALL), ("good_px_frac", ALL))

# name: (unit, better, moves); moves pairs an end-to-end metric with the
# workloads on which the layer metric should move it.
PER_LAYER = {
    "cli.import_s": ("s", "lower", (("setup_s", ALL), ("reconstruct_s", ALL),
                                    ("disparity_s", ALL))),
    "cli.self_s": ("s", "lower", (("disparity_s", ALL),)),
    "fileio.read_pgm_s": ("s", "lower", (("disparity_s", WIDE), ("reconstruct_s", WIDE))),
    "fileio.read_pgm_mb": ("MB", "lower", (("disparity_s", WIDE), ("reconstruct_s", WIDE))),
    "fileio.write_pgm_s": ("s", "lower", (("setup_s", WIDE),)),
    "fileio.write_disparity_pgm_s": ("s", "lower", (("disparity_s", WIDE),)),
    "fileio.write_csv_s": ("s", "lower", (("setup_s", WIDE), ("disparity_s", WIDE))),
    "fileio.read_csv_s": ("s", "lower", (("reconstruct_s", WIDE),)),
    "fileio.write_json_s": ("s", "lower", (("disparity_s", WIDE),)),
    "fileio.write_ply_s": ("s", "lower", (("reconstruct_s", WIDE),)),
    "scene.load_scene_s": ("s", "lower", _SCENE),
    "scene.render_pair_s": ("s", "lower", _SCENE),
    "scene.reconstruct_s": ("s", "lower", (("reconstruct_s", WIDE),)),
    "scene.map_from_values_s": ("s", "lower", (("reconstruct_s", WIDE),)),
    "kernel.build_s": ("s", "lower", _WIDE_KERNEL),
    "kernel.dense_mb": ("MB", "lower", _WIDE_KERNEL),
    "kernel.lam": ("frac", "lower", _ACCURACY),
    "measures.s": ("s", "lower", (("disparity_s", ALL),)),
    "sinkhorn.calls": ("count", "lower", _SOLVE),
    "sinkhorn.iterations": ("count", "lower", _SOLVE),
    "sinkhorn.s": ("s", "lower", _SOLVE),
    "sinkhorn.us_per_iter": ("us", "lower", _SOLVE),
    "sinkhorn.cells": ("count", "lower", _SOLVE),
    "sinkhorn.ns_per_cell": ("ns", "lower", _SOLVE),
    "sinkhorn.budget_stop_frac": ("frac", "lower", _SOLVE + _ACCURACY),
    "sinkhorn.max_marginal_violation": ("mass", "lower", _ACCURACY),
    "sinkhorn.empirical_rate": ("frac", "lower", _ACCURACY),
    "shifted.calls": ("count", "lower", (("disparity_s", OCCLUDED),)),
    "shifted.iterations": ("count", "lower", (("disparity_s", OCCLUDED),)),
    "shifted.s": ("s", "lower", (("disparity_s", OCCLUDED),)),
    "shifted.us_per_iter": ("us", "lower", (("disparity_s", OCCLUDED),)),
    "shifted.budget_stop_frac": ("frac", "lower", (("disparity_s", OCCLUDED),
                                                   ("occlusion_iou", OCCLUDED))),
    "exact.monotone_calls": ("count", "lower", (("disparity_s", OCCLUDED),)),
    "exact.monotone_s": ("s", "lower", (("disparity_s", OCCLUDED),)),
    "disparity.rows": ("count", "higher", (("scanlines_per_s", ALL),)),
    "disparity.unique_rows": ("count", "lower", _SOLVE),
    "disparity.dedup_ratio": ("frac", "lower", (("disparity_s", WIDE),)),
    **{
        f"disparity.path.{path}": ("count", "lower", (("disparity_s", OCCLUDED),))
        for path in PATHS
    },
    "disparity.peel_calls": ("count", "lower", (("disparity_s", OCCLUDED),)),
    "disparity.peel_s": ("s", "lower", (("disparity_s", OCCLUDED),)),
    "disparity.subsolves_per_occluded_row": ("count", "lower",
                                             (("disparity_s", OCCLUDED),)),
    "disparity.self_s": ("s", "lower", _SOLVE),
    **{
        f"disparity.max_err_px.{path}": ("px", "lower", (("max_err_px", ALL),))
        for path in ("balanced", "occlusion", "unbalanced-mirror")
    },
    "trace.overhead_frac": ("frac", "lower", ()),
    "trace.accounted_frac": ("frac", "higher", ()),
}

