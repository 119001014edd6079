"""Depth geometry of a rectified two-camera rig.

A point at depth z appears in the left view shifted right of its
right-view column by focal * baseline / (beta * z) pixels. The
renderer rounds that shift to whole pixels (pixel_shift); reconstruct
inverts it, lifting a disparity map to a point cloud. This module
depends on numpy alone, so `reconstruct` loads neither the scene
parser nor the renderer.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .records import Record

if TYPE_CHECKING:
    from .maps import DisparityMap


class CameraRig(Record):
    """Rectified two-camera geometry.

    baseline is the distance between the optical centers, focal the
    distance of the image plane from the optical line (both in length
    units), beta the pixels-per-length-unit conversion; each must be
    positive and finite.
    """

    __slots__ = _fields = ("baseline", "focal", "beta")

    def __init__(self, baseline: float = 10.0, focal: float = 1000.0, beta: float = 2.0):
        self._set(baseline=baseline, focal=focal, beta=beta)
        for name in self._fields:
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def pixel_shift(depth: float, rig: CameraRig) -> int:
    """Integer disparity of a point at the given depth.

    A depth so small that the shift overflows is a ValueError.
    """
    if not depth > 0.0:
        raise ValueError(f"depth must be positive, got {depth!r}")
    shift = rig.focal * rig.baseline / (rig.beta * depth)
    if not math.isfinite(shift):
        raise ValueError(f"depth {depth!r} gives a pixel shift that is not finite")
    return int(round(shift))


def depth_from_disparity(shift_px: float, rig: CameraRig) -> float:
    """Depth of a point seen with the given pixel shift.

    Nonpositive shifts belong to points at infinity; they map to inf
    and produce no point in a reconstruction.
    """
    if not shift_px > 0.0:
        return float("inf")
    return rig.focal * rig.baseline / (rig.beta * shift_px)


def reconstruct(disparity: DisparityMap, rig: CameraRig, right_image: np.ndarray) -> np.ndarray:
    """One 3-D point per defined, unoccluded pixel with positive shift.

    Returns an (n, 4) float64 array, one row per point: x (image
    column), y (scanline), depth, intensity.
    """
    image = np.asarray(right_image, dtype=float)
    if image.shape != disparity.values.shape:
        raise ValueError(
            f"disparity grid {disparity.values.shape} does not match image {image.shape}"
        )
    values = disparity.values
    # one mask, built in place: NaN fails both tests, -inf the first, inf the second
    keep = values > 0.0
    keep &= values < np.inf
    keep[disparity.occluded] = False
    ys, xs = np.nonzero(keep)
    depth = rig.focal * rig.baseline / (rig.beta * values[ys, xs])
    return np.column_stack([xs.astype(float), ys.astype(float), depth, image[ys, xs]])
