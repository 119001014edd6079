"""Seeded scene descriptions for the benchmark workloads.

Each workload is a fixed set of scanline layouts. The seed moves every
layout sideways to a random free position and shuffles the order of the
rows, so each seed gives different input files. It never changes a
layout itself: the solver works on the support of each row only and its
cost depends on column differences, so a translated row is the same
transport problem. The accuracy reached within the iteration budget
varies by orders of magnitude between layouts, and keeping the layouts
fixed keeps the accuracy metrics comparable between seeds and runs.

A layout is a tuple of objects (offset, width, shift, intensity), with
offset measured from the layout's own left edge in the right view.
"""
from __future__ import annotations

import random

BAND_WIDTH = 120

# Verbatim row of the README example: the near object on the left hides
# four columns of the far one in the left view.
README_ROW = ((20, 26, 9, 0.5), (47, 40, 4, 0.6))

# Rows below the README row. The first hides content from the left view
# (right-frame occlusion) but the peel loop does not localize it today;
# the other two hide content from the right view (mirror occlusion).
OCCLUDED_LAYOUTS = (
    ((0, 20, 7, 0.45), (20, 16, 3, 0.8), (40, 20, 3, 0.6)),
    ((0, 30, 3, 0.5), (25, 25, 8, 0.7)),
    ((0, 30, 2, 0.4), (26, 20, 7, 0.8)),
)

WIDE_WIDTH = 640
WIDE_HEIGHT = 480
WIDE_LAYOUT = ((0, 20, 6, 0.5), (24, 16, 4, 0.7), (44, 12, 3, 0.4))


def _place(rng: random.Random, layout, frame_width: int) -> int:
    """A left edge that keeps every object inside the frame in both views."""
    right_end = max(off + width + shift for off, width, shift, _ in layout)
    return rng.randint(0, frame_width - right_end)


def _object_line(x0: int, obj, y0: int | None = None) -> str:
    _, width, shift, intensity = obj
    line = f"object = x0:{x0} width:{width} shift:{shift} intensity:{intensity}"
    if y0 is not None:
        line += f" y0:{y0} height:1"
    return line


def _band_scene(rows) -> str:
    """One scanline per row; rows are (x, layout) with x the layout's left edge."""
    lines = [f"width = {BAND_WIDTH}", f"height = {len(rows)}"]
    for y, (x, layout) in enumerate(rows):
        lines.extend(_object_line(x + obj[0], obj, y) for obj in layout)
    return "\n".join(lines) + "\n"


def occluded_bands(seed: int) -> str:
    rng = random.Random(seed)
    rows = [(_place(rng, layout, BAND_WIDTH), layout) for layout in OCCLUDED_LAYOUTS]
    rng.shuffle(rows)
    return _band_scene([(0, README_ROW)] + rows)


def wide_roundtrip(seed: int) -> str:
    rng = random.Random(seed)
    x = _place(rng, WIDE_LAYOUT, WIDE_WIDTH)
    lines = [f"width = {WIDE_WIDTH}", f"height = {WIDE_HEIGHT}"]
    lines.extend(_object_line(x + obj[0], obj) for obj in WIDE_LAYOUT)
    return "\n".join(lines) + "\n"


SCENES = {
    "occluded_bands": occluded_bands,
    "wide_roundtrip": wide_roundtrip,
}
