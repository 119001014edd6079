"""Scanline rows as discrete measures on the pixel grid.

A grayscale scanline becomes a nonnegative vector indexed by column;
its entries are the masses the transport solver moves around. Mass
bookkeeping between the two views of a stereo pair decides whether a
scanline is balanced or carries an occlusion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyScanlineError, InvalidIntensityError

DEFAULT_BALANCE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ScanlineMeasure:
    """Nonnegative mass per column of one scanline."""

    values: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mass", float(values.sum()))

    @property
    def support(self) -> np.ndarray:
        """Indices of the columns that carry positive mass."""
        return np.flatnonzero(self.values > 0.0)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MassComparison:
    """Mass bookkeeping for one scanline pair.

    m0 and m1 are the left and right row masses, phi their quotient
    m1 / m0. balanced is true when the masses agree up to the
    tolerance, relative to the larger of the two.
    """

    m0: float
    m1: float
    phi: float
    balanced: bool


def measure_from_row(row, *, require_mass: bool = False) -> ScanlineMeasure:
    """Build a measure from one row of pixel intensities.

    Args:
        row: sequence of intensities, each finite and within [0, 1].
        require_mass: raise EmptyScanlineError on an all-zero row
            instead of returning the zero measure.

    Returns:
        The row wrapped as a ScanlineMeasure.
    """
    values = np.asarray(row, dtype=float)
    if values.ndim != 1:
        raise InvalidIntensityError(f"expected a 1-d row, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidIntensityError("intensities must be finite")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise InvalidIntensityError("intensities must lie in [0, 1]")
    measure = ScanlineMeasure(values)
    if require_mass and measure.mass == 0.0:
        raise EmptyScanlineError("scanline carries no mass")
    return measure


def normalize(measure: ScanlineMeasure, by_mass: float | None = None) -> ScanlineMeasure:
    """Rescale a measure, by its own mass when by_mass is omitted.

    The stereo pipeline divides both rows of a pair by one shared mass
    so the target becomes a probability vector and the source keeps
    the mass quotient. Raises EmptyScanlineError when the divisor is
    not positive.
    """
    divisor = measure.mass if by_mass is None else float(by_mass)
    if divisor <= 0.0:
        raise EmptyScanlineError("cannot normalize by a nonpositive mass")
    return ScanlineMeasure(measure.values / divisor)


def compare_masses(
    left: ScanlineMeasure,
    right: ScanlineMeasure,
    balance_tolerance: float = DEFAULT_BALANCE_TOLERANCE,
) -> MassComparison:
    """Compare the masses of the two views of one scanline.

    phi is the right-to-left quotient m1 / m0. The pair counts as
    balanced when |m0 - m1| is within balance_tolerance relative to
    the larger mass. The disparity pipeline uses the default, and the
    same tolerance ends its occlusion loop: a row that is not
    balanced carries content one view hides, and a balanced one is
    solved as it is.
    """
    m0 = left.mass
    m1 = right.mass
    if m0 <= 0.0 and m1 <= 0.0:
        return MassComparison(m0=m0, m1=m1, phi=1.0, balanced=True)
    scale = max(m0, m1)
    phi = m1 / m0 if m0 > 0.0 else float("inf")
    balanced = abs(m0 - m1) <= balance_tolerance * scale
    return MassComparison(m0=m0, m1=m1, phi=phi, balanced=balanced)
