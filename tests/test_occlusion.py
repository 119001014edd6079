import dataclasses

import numpy as np
import pytest

from otstereo.cli import RunConfig
from otstereo.disparity import disparity_map, estimate_phi, recover_occlusions
from otstereo.errors import UnresolvedOcclusionError, WrongPathError
from otstereo.kernel import build_kernel
from otstereo.measures import measure_from_row
from otstereo.scene import (
    CameraRig,
    CartoonScene,
    SceneObject,
    depth_from_disparity,
    render_pair,
)
from otstereo.sinkhorn import SinkhornConfig

RIG = CameraRig()
CONFIG = SinkhornConfig(epsilon=0.1, max_iterations=10000, stop_tolerance=1e-9)


def scene_rows(objects, d, h=2):
    scene = CartoonScene(width=d, height=h, objects=objects)
    return render_pair(scene, RIG)


def obj(x0, width, shift, intensity):
    return SceneObject(
        x0=x0, width=width, depth=depth_from_disparity(shift, RIG), intensity=intensity
    )


def four_object_pair():
    # one object hides the head of its right neighbor; two far
    # objects keep their full outline in both views
    objects = (
        obj(20, 26, 9, 0.5),
        obj(47, 40, 4, 0.6),
        obj(92, 10, 3, 0.55),
        obj(106, 10, 2, 0.55),
    )
    return scene_rows(objects, d=120, h=4)


def test_wrong_path_for_target_heavy_rows():
    kern = build_kernel(16, 0.5)
    a = np.zeros(16)
    a[2:5] = 0.2
    b = np.zeros(16)
    b[2:8] = 0.2
    with pytest.raises(WrongPathError):
        recover_occlusions(a, b, kern, SinkhornConfig(epsilon=0.5))


def test_balanced_input_gives_empty_report():
    kern = build_kernel(20, 0.1)
    row = np.zeros(20)
    row[4:9] = 0.5
    shifted = np.zeros(20)
    shifted[7:12] = 0.5
    prof, report = recover_occlusions(row, shifted, kern, CONFIG)
    assert report.intervals == ()
    assert report.object_shifts == ()
    assert report.phi == pytest.approx(1.0)
    assert np.allclose(prof.values[prof.defined_mask], 3.0, atol=0.01)


def test_two_column_hidden_interval_is_exact():
    pair = scene_rows((obj(10, 10, 7, 0.5), obj(21, 20, 4, 0.6)), d=60)
    assert pair.hidden[0]["right_frame"] == [(21, 22)]
    kern = build_kernel(60, CONFIG.epsilon)
    nu0 = measure_from_row(pair.right[0])
    nu1 = measure_from_row(pair.left[0])
    prof, report = recover_occlusions(nu0, nu1, kern, CONFIG)
    assert report.intervals == ((21, 22),)
    i0, raw = report.object_shifts[0]
    assert i0 == 10
    assert round(raw) == 7
    assert report.phi == pytest.approx(nu1.mass / nu0.mass)
    # the occluder's columns carry the rigid integer shift
    assert np.allclose(prof.values[10:20], 7.0)
    # the freed remainder matches the second object's shift
    tail = prof.values[23:41]
    assert np.all(np.isfinite(tail))
    assert np.abs(tail - 4.0).max() < 0.5


def test_four_object_scene_report():
    pair = four_object_pair()
    truth_interval = pair.hidden[0]["right_frame"]
    assert truth_interval == [(47, 50)]
    nu0 = measure_from_row(pair.right[0])
    nu1 = measure_from_row(pair.left[0])
    kern = build_kernel(120, CONFIG.epsilon)
    prof, report = recover_occlusions(nu0, nu1, kern, CONFIG)
    assert report.intervals == ((47, 50),)
    assert round(report.object_shifts[0][1]) == 9
    assert np.allclose(prof.values[20:46], 9.0)
    quotient = nu1.mass / nu0.mass
    assert abs(estimate_phi_of(report) - quotient) < 5e-3


def estimate_phi_of(report):
    assert report.compression_plateau is not None
    return 1.0 / (1.0 - report.compression_plateau)


def test_unresolved_surplus_carries_partial_report():
    kern = build_kernel(40, 0.1)
    a = np.zeros(40)
    a[5] = 0.8
    a[30] = 0.8
    b = np.zeros(40)
    b[5] = 0.8
    with pytest.raises(UnresolvedOcclusionError) as info:
        recover_occlusions(a, b, kern, CONFIG)
    report = info.value.report
    assert report is not None
    assert len(report.object_shifts) >= 1


def test_map_routes_occluded_rows():
    pair = four_object_pair()
    result = disparity_map(pair.left, pair.right, CONFIG)
    assert np.array_equal(result.occluded, pair.truth.occluded)
    assert len(result.reports) == 4
    assert all(r.y == y for y, r in enumerate(result.reports))
    assert all(r.intervals == ((47, 50),) for r in result.reports)
    assert result.diagnostics[0]["path"] == "occlusion"
    # occluded columns stay undefined instead of guessing a depth
    assert np.all(np.isnan(result.values[0, 47:51]))


def test_map_on_identical_images():
    image = np.zeros((3, 40))
    image[:, 10:20] = 0.5
    result = disparity_map(image, image, CONFIG)
    defined = ~result.no_data
    assert np.array_equal(defined, image > 0)
    assert np.abs(result.values[defined]).max() < 0.5


def test_map_marks_empty_rows_no_data():
    left = np.zeros((3, 30))
    right = np.zeros((3, 30))
    left[1, 10:14] = 0.5
    right[1, 8:12] = 0.5
    result = disparity_map(left, right, CONFIG)
    assert result.no_data[0].all() and result.no_data[2].all()
    assert result.diagnostics[0]["path"] == "empty"
    assert not result.no_data[1, 8:12].any()


def test_map_mirror_rows_take_profile_only_path():
    # the left view carries more mass: content hidden from the right
    # camera; only the profile is produced, no report
    left = np.zeros((2, 50))
    left[:, 5:15] = 0.5
    left[:, 30:36] = 0.4
    right = np.zeros((2, 50))
    right[:, 5:15] = 0.5
    result = disparity_map(left, right, CONFIG)
    assert result.diagnostics[0]["path"] == "unbalanced-mirror"
    assert result.reports == ()
    assert np.isfinite(result.values[0, 5:15]).all()


def test_mirror_rows_keep_the_fixed_epsilon_solve():
    left = np.zeros((1, 50))
    left[:, 5:15] = 0.5
    left[:, 30:36] = 0.4
    right = np.zeros((1, 50))
    right[:, 5:15] = 0.5
    annealed = RunConfig(niter=2000).sinkhorn_config()
    assert annealed.anneal
    fixed = dataclasses.replace(annealed, anneal=False)
    result = disparity_map(left, right, annealed)
    reference = disparity_map(left, right, fixed)
    assert result.diagnostics[0]["path"] == "unbalanced-mirror"
    assert result.diagnostics == reference.diagnostics
    assert result.diagnostics[0]["stop_reason"] == "max-iterations"
    assert np.array_equal(result.values, reference.values, equal_nan=True)


def test_map_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        disparity_map(np.zeros((2, 10)), np.zeros((3, 10)), CONFIG)
