"""Disparity grids and the run-length helpers that read them.

The renderer builds its ground truth from these and the solver its
output, so they depend on numpy alone: commands that never solve
(`generate`, `reconstruct`) load this module and not the solver stack.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .records import Record

if TYPE_CHECKING:
    from .disparity import OcclusionReport


class DisparityMap(Record):
    """Per-pixel disparity of a full image pair, one row per scanline.

    values is an (h, d) array, NaN where there is no data: empty
    scanlines, columns without source mass, and recovered occluded
    intervals. occluded marks the latter alone and defaults to none.
    """

    __slots__ = _fields = ("values", "occluded", "reports", "diagnostics")

    def __init__(
        self,
        values: np.ndarray,
        occluded: np.ndarray | None = None,
        reports: tuple[OcclusionReport, ...] = (),
        diagnostics: tuple[dict, ...] = (),
    ):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {values.shape}")
        if occluded is None:
            occluded = np.zeros(values.shape, dtype=bool)
        self._set(values=values, occluded=occluded, reports=reports,
                  diagnostics=diagnostics)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def defined_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def no_data(self) -> np.ndarray:
        return ~self.defined_mask


def value_runs(values) -> list[tuple[int, int]]:
    """Inclusive (start, end) of each maximal run of one positive value, left to right."""
    values = np.asarray(values, dtype=float)
    starts = np.flatnonzero(np.diff(values, prepend=np.nan) != 0.0).tolist()
    ends = [start - 1 for start in starts[1:]] + [values.size - 1]
    return [(lo, hi) for lo, hi in zip(starts, ends) if values[lo] > 0.0]


def mask_runs(mask) -> list[tuple[int, int]]:
    """Inclusive (start, end) of each maximal run of true entries, left to right."""
    return value_runs(np.asarray(mask, dtype=bool))
