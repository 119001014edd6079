"""Scanline rows as discrete measures on the pixel grid.

A grayscale scanline becomes a nonnegative vector indexed by column;
its entries are the masses the transport solver moves around. Mass
bookkeeping between the two views of a stereo pair decides whether a
scanline is balanced or carries an occlusion.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyScanlineError, InvalidIntensityError

DEFAULT_BALANCE_TOLERANCE = 1e-6


def measure_from_row(row, *, require_mass: bool = False) -> np.ndarray:
    """Validate one row of pixel intensities as a measure on the grid.

    Args:
        row: sequence of intensities, each finite and within [0, 1].
        require_mass: raise EmptyScanlineError on an all-zero row
            instead of returning the zero measure.

    Returns:
        The row as a 1-d float64 array, one mass per column; its sum
        is the row's mass.
    """
    values = np.asarray(row, dtype=float)
    if values.ndim != 1:
        raise InvalidIntensityError(f"expected a 1-d row, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidIntensityError("intensities must be finite")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise InvalidIntensityError("intensities must lie in [0, 1]")
    if require_mass and values.sum() == 0.0:
        raise EmptyScanlineError("scanline carries no mass")
    return values


def compare_masses(m0: float, m1: float) -> bool:
    """Whether the masses of the two views of one scanline balance.

    They do when |m0 - m1| is within DEFAULT_BALANCE_TOLERANCE
    relative to the larger mass; two empty rows balance. The same
    tolerance ends the occlusion loop of the disparity pipeline: a
    row that is not balanced carries content one view hides, and a
    balanced one is solved as it is.
    """
    return abs(m0 - m1) <= DEFAULT_BALANCE_TOLERANCE * max(m0, m1)
