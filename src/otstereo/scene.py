"""Synthetic cartoon scenes and their stereo rendering.

Scenes are stacks of constant-depth, constant-intensity rectangles
over a zero background. Rendering projects each rectangle into both
views of a rectified rig: the right view keeps the object's columns,
the left view shifts them right by an integer pixel count inversely
proportional to depth. Painting far to near produces occlusion, and
the renderer emits exact per-pixel shifts plus the hidden regions of
both views, so solver output can be scored against ground truth.

The rig and its depth geometry live in otstereo.geometry, and the
disparity grids in otstereo.maps.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import OutOfFrameError, SceneFormatError
from .geometry import CameraRig, depth_from_disparity, pixel_shift
from .maps import DisparityMap, value_runs
from .records import Record


class SceneObject(Record):
    """Axis-aligned rectangle at constant depth.

    x0 is the leftmost column in the right view; the object spans
    rows y0 to y0 + height - 1, cut at the frame's bottom edge, and
    height None spans the full image.
    """

    __slots__ = _fields = ("x0", "width", "depth", "intensity", "y0", "height")

    def __init__(
        self,
        x0: int,
        width: int,
        depth: float,
        intensity: float,
        y0: int = 0,
        height: int | None = None,
    ):
        if width < 1:
            raise ValueError(f"width must be at least 1, got {width!r}")
        if not depth > 0.0:
            raise ValueError(f"depth must be positive, got {depth!r}")
        if not 0.0 < intensity <= 1.0:
            raise ValueError(f"intensity must lie in (0, 1], got {intensity!r}")
        if y0 < 0:
            raise ValueError(f"y0 must be nonnegative, got {y0!r}")
        if height is not None and height < 1:
            raise ValueError(f"height must be at least 1, got {height!r}")
        self._set(x0=x0, width=width, depth=depth, intensity=intensity, y0=y0,
                  height=height)

    def rows(self, image_height: int) -> range:
        if self.height is None:
            return range(image_height)
        return range(self.y0, min(self.y0 + self.height, image_height))


class CartoonScene(Record):
    """A fixed-size frame plus its objects, in no particular order."""

    __slots__ = _fields = ("width", "height", "objects")

    def __init__(self, width: int, height: int, objects: tuple[SceneObject, ...] = ()):
        if width < 1 or height < 1:
            raise ValueError(f"frame {width}x{height} is empty")
        self._set(width=width, height=height, objects=tuple(objects))


class RenderedPair(NamedTuple):
    """Both views plus exact ground truth.

    truth holds the applied integer shift for every right-view object
    pixel, its occluded mask flagging the pixels invisible in the
    left view. hidden maps a scanline to the occluded intervals of
    that row: key "right_frame" for content missing from the left
    view (right-image columns), "left_frame" for the mirror case.
    non_occluded is true when every object pixel is visible in both
    views.
    """

    left: np.ndarray
    right: np.ndarray
    truth: DisparityMap
    hidden: dict[int, dict[str, list[tuple[int, int]]]]
    non_occluded: bool


def render_pair(scene: CartoonScene, rig: CameraRig) -> RenderedPair:
    """Project a scene into both views and derive its ground truth.

    Nearer objects are painted last and overwrite farther ones in
    both views, which is what creates occlusion. Every object must
    fit inside the frame in both views, else OutOfFrameError.
    """
    d, h = scene.width, scene.height
    shifts = []
    for k, obj in enumerate(scene.objects):
        s = pixel_shift(obj.depth, rig)
        if obj.x0 < 0 or obj.x0 + obj.width > d:
            raise OutOfFrameError(
                f"object {k} spans columns [{obj.x0}, {obj.x0 + obj.width - 1}] "
                f"outside the {d}-wide frame"
            )
        if obj.x0 + s < 0 or obj.x0 + obj.width + s > d:
            raise OutOfFrameError(
                f"object {k} shifted by {s} leaves the {d}-wide frame in the left view"
            )
        shifts.append(s)

    left = np.zeros((h, d))
    right = np.zeros((h, d))
    truth_values = np.full((h, d), np.nan)
    # each pixel's object, -1 on the background, in the smallest type
    owner_type = np.min_scalar_type(-1 - len(scene.objects))
    right_owner = np.full((h, d), -1, dtype=owner_type)
    left_owner = np.full((h, d), -1, dtype=owner_type)

    boxes = []
    for k in sorted(range(len(scene.objects)), key=lambda k: -scene.objects[k].depth):
        obj = scene.objects[k]
        s = shifts[k]
        rows = obj.rows(h)
        ys = slice(rows.start, rows.stop)
        sl_r = slice(obj.x0, obj.x0 + obj.width)
        sl_l = slice(obj.x0 + s, obj.x0 + obj.width + s)
        right[ys, sl_r] = obj.intensity
        right_owner[ys, sl_r] = k
        truth_values[ys, sl_r] = float(s)
        left[ys, sl_l] = obj.intensity
        left_owner[ys, sl_l] = k
        boxes.append((k, ys, sl_r, sl_l))

    # A right-view pixel of object k at column x is hidden from the
    # left view exactly when the left owner at x + s_k is not k, and
    # a left-view pixel at x + s_k is hidden from the right view when
    # the right owner at x is not k. Both tests read k's two boxes,
    # which the shift aligns, so no pixel outside them is visited.
    occluded = np.zeros((h, d), dtype=bool)
    hidden_l = np.zeros((h, d), dtype=bool)
    hidden_rows = np.zeros(h, dtype=bool)
    for k, ys, sl_r, sl_l in boxes:
        mine_r = right_owner[ys, sl_r] == k
        mine_l = left_owner[ys, sl_l] == k
        unseen_r = mine_r & ~mine_l
        unseen_l = mine_l & ~mine_r
        occluded[ys, sl_r] |= unseen_r
        hidden_l[ys, sl_l] |= unseen_l
        hidden_rows[ys] |= (unseen_r | unseen_l).any(axis=1)
    # the rows of a band share their masks, so each distinct pair of
    # masks is read once; every row gets lists of its own
    runs = {}
    hidden = {}
    for y in np.flatnonzero(hidden_rows).tolist():
        key = occluded[y].tobytes() + hidden_l[y].tobytes()
        if key not in runs:
            runs[key] = value_runs(occluded[y]), value_runs(hidden_l[y])
        right_frame, left_frame = runs[key]
        hidden[y] = {"right_frame": list(right_frame), "left_frame": list(left_frame)}

    return RenderedPair(
        left=left,
        right=right,
        truth=DisparityMap(truth_values, occluded),
        hidden=hidden,
        non_occluded=not hidden,
    )


_SCENE_SCALARS = {"width", "height", "baseline", "focal", "beta"}
_OBJECT_KEYS = {"x0", "width", "y0", "height", "depth", "shift", "intensity"}


def _parse_object(body: str, line_no: int) -> dict:
    fields = {}
    for token in body.split():
        key, sep, raw = token.partition(":")
        if not sep or key not in _OBJECT_KEYS:
            raise SceneFormatError(f"unknown object field {token!r}", line=line_no)
        if key in fields:
            raise SceneFormatError(f"duplicate object field {key!r}", line=line_no)
        try:
            fields[key] = float(raw) if key in ("depth", "shift", "intensity") else int(raw)
        except ValueError:
            raise SceneFormatError(f"bad value for {key!r}: {raw!r}", line=line_no)
    for required in ("x0", "width", "intensity"):
        if required not in fields:
            raise SceneFormatError(f"object missing field {required!r}", line=line_no)
    if ("depth" in fields) == ("shift" in fields):
        raise SceneFormatError(
            "object needs exactly one of depth: or shift:", line=line_no
        )
    return fields


def parse_scene(text: str) -> tuple[CartoonScene, CameraRig]:
    """Read a scene description from flat key = value text.

    Scalar lines set the frame (width, height, whole numbers) and the
    rig (baseline, focal, beta, all optional). Each `object = k:v k:v ...` line adds
    one rectangle; it takes x0, width, intensity plus either depth or
    shift (a positive whole number of pixels, converted through the
    rig), and optionally y0 and height.
    Blank lines and lines starting with # are skipped. Errors carry
    the offending line number.
    """
    scalars: dict[str, float] = {}
    raw_objects: list[tuple[dict, int]] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise SceneFormatError(f"expected key = value, got {line!r}", line=line_no)
        if key == "object":
            raw_objects.append((_parse_object(value, line_no), line_no))
        elif key in _SCENE_SCALARS:
            if key in scalars:
                raise SceneFormatError(f"duplicate key {key!r}", line=line_no)
            try:
                scalars[key] = float(value)
            except ValueError:
                raise SceneFormatError(f"bad value for {key!r}: {value!r}", line=line_no)
            if key in ("width", "height") and not scalars[key].is_integer():
                raise SceneFormatError(
                    f"{key} must be a whole number, got {value!r}", line=line_no
                )
        else:
            raise SceneFormatError(f"unknown key {key!r}", line=line_no)

    for required in ("width", "height"):
        if required not in scalars:
            raise SceneFormatError(f"missing required key {required!r}")
    try:
        rig = CameraRig(**{key: scalars[key] for key in CameraRig._fields if key in scalars})
    except ValueError as exc:
        raise SceneFormatError(str(exc))

    objects = []
    for fields, line_no in raw_objects:
        if "shift" in fields:
            shift = fields.pop("shift")
            # the renderer rounds the shift back from the depth, so
            # anything but a positive whole number would be changed
            if not (shift > 0.0 and shift.is_integer()):
                raise SceneFormatError(
                    f"shift must be a positive whole number, got {shift!r}", line=line_no
                )
            fields["depth"] = depth_from_disparity(shift, rig)
        try:
            objects.append(SceneObject(**fields))
        except (TypeError, ValueError) as exc:
            raise SceneFormatError(str(exc), line=line_no)
    try:
        scene = CartoonScene(
            width=int(scalars["width"]),
            height=int(scalars["height"]),
            objects=tuple(objects),
        )
    except ValueError as exc:
        raise SceneFormatError(str(exc))
    return scene, rig


def load_scene(path) -> tuple[CartoonScene, CameraRig]:
    with open(path, encoding="utf-8") as handle:
        return parse_scene(handle.read())
