"""Accuracy of a disparity run against the renderer's ground truth.

Truth-visible pixels have a defined truth and lie outside the
right_frame hidden intervals of occlusions.json. A pixel is bad when it
has no estimate or its error exceeds BAD_PIXEL_PX, the Middlebury
bad-pixel convention (Scharstein and Szeliski, IJCV 2002).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from outputs import PATHS, read_csv, read_json

BAD_PIXEL_PX = 0.5


def _mask(scanlines, key: str, shape: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for line in scanlines:
        for lo, hi in line[key]:
            mask[line["y"], lo : hi + 1] = True
    return mask


def _max_error(error: np.ndarray) -> float:
    finite = error[np.isfinite(error)]
    return float(finite.max(initial=0.0))


def score(truth_dir: Path, run_dir: Path) -> dict:
    """Accuracy of the run in run_dir against the scene in truth_dir.

    Returns max_err_px, bad_px_frac, occlusion_iou, failed_rows_frac and
    max_err_px.<path> for each row path of diagnostics.json; a path with
    no truth-visible estimated pixel scores 0.
    """
    truth = read_csv(truth_dir / "truth_disparity.csv")
    estimate = read_csv(run_dir / "disparity.csv")
    hidden = _mask(read_json(truth_dir / "occlusions.json")["scanlines"],
                   "right_frame", truth.shape)
    recovered = _mask(read_json(run_dir / "occlusion_report.json")["scanlines"],
                      "intervals", truth.shape)
    paths = np.array(
        [line["path"] for line in read_json(run_dir / "diagnostics.json")["scanlines"]]
    )
    visible = np.isfinite(truth) & ~hidden
    error = np.where(visible, np.abs(estimate - truth), np.nan)
    bad = visible & ~(error <= BAD_PIXEL_PX)
    union = np.count_nonzero(hidden | recovered)
    result = {
        "max_err_px": _max_error(error),
        "bad_px_frac": np.count_nonzero(bad) / max(np.count_nonzero(visible), 1),
        "occlusion_iou": np.count_nonzero(hidden & recovered) / union if union else 1.0,
        "failed_rows_frac": float(np.mean(paths == "failed")),
    }
    for path in PATHS:
        result[f"max_err_px.{path}"] = _max_error(error[paths == path])
    return result
