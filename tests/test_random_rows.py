"""Seeded random scanlines against the renderer's ground truth.

A row holds 2-3 objects laid out left to right in one view, its base
view, with gaps of 0-3 px; objects that touch in either view have
distinct intensities. A row is kept when the renderer hides exactly
one interval, inside one object, in one frame: content hidden from
the left camera when the base view is the right one, and from the
right camera when it is the left one.
"""
import itertools

import numpy as np
import pytest

from otstereo.cli import RunConfig
from otstereo.disparity import disparity_map
from otstereo.errors import OutOfFrameError
from otstereo.scene import (
    CameraRig,
    CartoonScene,
    SceneObject,
    depth_from_disparity,
    render_pair,
)

RIG = CameraRig()
WIDTH = 100
INTENSITIES = (0.3, 0.45, 0.6, 0.75, 0.9)
# dim objects leave mass gaps of the order of 1e-4 between the views
DIM_INTENSITIES = (0.02, 0.05, 0.6, 0.9, 1.0)
CONFIG = RunConfig(niter=10000).sinkhorn_config()
FRAMES = ("right_frame", "left_frame")


def spans(obj):
    """Inclusive columns of an (x0, width, shift, intensity) object, right then left view."""
    x0, width, shift, _ = obj
    return (x0, x0 + width - 1), (x0 + shift, x0 + shift + width - 1)


def touch(p, q):
    return any(max(a[0], b[0]) <= min(a[1], b[1]) + 1 for a, b in zip(spans(p), spans(q)))


def layout(rng, intensities):
    base_is_left = rng.random() < 0.5
    x = int(rng.integers(0, 12))
    objects = []
    for _ in range(int(rng.integers(2, 4))):
        width = int(rng.integers(4, 21))
        shift = int(rng.integers(1, 10))
        intensity = float(rng.choice(intensities))
        objects.append((x - shift if base_is_left else x, width, shift, intensity))
        x += width + int(rng.integers(0, 4))
    return objects


def random_row(rng, intensities=INTENSITIES):
    """A rendered one-row pair drawn until it has the one hidden interval."""
    while True:
        objects = layout(rng, intensities)
        if any(touch(p, q) and p[3] == q[3] for p, q in itertools.combinations(objects, 2)):
            continue
        scene = CartoonScene(WIDTH, 1, tuple(
            SceneObject(x0, width, depth_from_disparity(shift, RIG), intensity)
            for x0, width, shift, intensity in objects
        ))
        try:
            pair = render_pair(scene, RIG)
        except OutOfFrameError:
            continue
        hidden = pair.hidden.get(0, {})
        found = [(view, iv) for view, key in enumerate(FRAMES) for iv in hidden.get(key, [])]
        if len(found) != 1:
            continue
        view, (lo, hi) = found[0]
        if any(span[view][0] <= lo and hi <= span[view][1] for span in map(spans, objects)):
            return pair


@pytest.mark.parametrize(
    "seed, intensities", [(1, INTENSITIES), (3, DIM_INTENSITIES)], ids=["seed1", "seed3-dim"]
)
def test_random_single_occlusion_rows(seed, intensities):
    rng = np.random.default_rng(seed)
    pairs = [random_row(rng, intensities) for _ in range(30)]
    left = np.vstack([p.left for p in pairs])
    right = np.vstack([p.right for p in pairs])
    truth = np.vstack([p.truth.values for p in pairs])
    visible = np.isfinite(truth) & ~np.vstack([p.truth.occluded for p in pairs])
    result = disparity_map(left, right, CONFIG)
    error = np.abs(result.values - truth)
    ok = ~visible | (error <= 0.5) | result.no_data
    assert [info["y"] for info in result.diagnostics
            if info.get("stop_reason") == "max-iterations"] == []
    assert [y for y in range(len(pairs)) if not ok[y].all()] == []
    solved = [y for y in range(len(pairs)) if (error[y][visible[y]] <= 1e-3).all()]
    assert len(solved) >= 24
    reports = {report.y: report for report in result.reports}
    for y in solved:
        hidden = pairs[y].hidden[0]
        assert list(reports[y].intervals) == hidden["right_frame"]
        assert list(reports[y].left_frame) == hidden["left_frame"]
    # runs are deterministic, and a row's result does not depend on the others
    again = disparity_map(left[:8], right[:8], CONFIG)
    assert np.array_equal(again.values, result.values[:8], equal_nan=True)
    assert again.diagnostics == result.diagnostics[:8]


def test_object_shifts_are_the_rendered_whole_pixel_shifts():
    rng = np.random.default_rng(2)
    pairs = [random_row(rng) for _ in range(12)]
    result = disparity_map(
        np.vstack([p.left for p in pairs]), np.vstack([p.right for p in pairs]), CONFIG
    )
    checked = 0
    for report in result.reports:
        if result.diagnostics[report.y]["path"] == "failed":
            continue
        pair = pairs[report.y]
        left_heavy = pair.left.sum() > pair.right.sum()
        for col, shift in report.object_shifts:
            assert shift == round(shift)
            # a left-image column shows the right-image pixel shift px
            # to its left, whose rendered shift the truth holds
            xr = col - int(shift) if left_heavy else col
            assert pair.truth.values[0, xr] == shift
            checked += 1
    assert checked >= 15
