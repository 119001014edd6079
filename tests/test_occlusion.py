import numpy as np
import pytest

from otstereo.disparity import (
    DEFAULT_CONFIG,
    disparity_map,
    measure_from_row,
    recover_occlusions,
)
from otstereo import disparity, scaling
from otstereo.errors import (
    DimensionMismatchError,
    EmptyScanlineError,
    MassMismatchError,
    UnresolvedOcclusionError,
)
from otstereo.reference import brute_force_plan, estimate_phi, exact_cost
from otstereo.geometry import CameraRig, depth_from_disparity
from otstereo.scene import CartoonScene, SceneObject, render_pair
from otstereo.scaling import (
    SinkhornConfig,
    build_kernel,
    iteration_trace,
    monotone_plan,
    shifted_sinkhorn,
    sinkhorn,
)

RIG = CameraRig()
CONFIG = SinkhornConfig(epsilon=0.1, max_iterations=10000, stop_tolerance=1e-9)
WARM = SinkhornConfig(0.1, max_iterations=10000, stop_tolerance=1e-6, warm_start=True)


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


# four columns, so that the exhaustive search takes the rows too
ROW = np.array([0.0, 0.5, 0.5, 0.0])
SHIFTED = np.roll(ROW, 1)
KERNEL4 = build_kernel(4, CONFIG.epsilon)

NO_MASS = "both scanlines must carry positive mass"
NEGATIVE = "measures must be nonnegative"
NOT_FINITE = "measures must be finite"

SOLVE_ENTRIES = {
    "sinkhorn": lambda a, b: sinkhorn(a, b, KERNEL4, CONFIG),
    "shifted_sinkhorn": lambda a, b: shifted_sinkhorn(a, b, KERNEL4, CONFIG),
    "iteration_trace": lambda a, b: iteration_trace(a, b, KERNEL4, CONFIG),
    "recover_occlusions": lambda a, b: recover_occlusions(a, b, KERNEL4, CONFIG),
    "monotone_plan": monotone_plan,
    "exact_cost": exact_cost,
    "brute_force_plan": lambda a, b: brute_force_plan(a, b, 4),
}


@pytest.mark.parametrize("nu0, nu1, error, message", [
    (ROW, np.zeros(4), EmptyScanlineError, NO_MASS),
    (np.zeros(4), np.zeros(4), EmptyScanlineError, NO_MASS),
    (-ROW, -SHIFTED, ValueError, NEGATIVE),
    (ROW, SHIFTED - 0.01, ValueError, NEGATIVE),
    (np.array([0.0, np.nan, 0.5, 0.0]), SHIFTED, ValueError, NOT_FINITE),
    (ROW, np.array([0.0, 0.0, np.inf, 0.5]), ValueError, NOT_FINITE),
    (ROW[None, :], SHIFTED, DimensionMismatchError, r"measures of length \(1, 4\) and \(4,\)"),
    (0.5, 0.5, DimensionMismatchError, r"measures of length \(\) and \(\)"),
], ids=["zero-target", "zero-rows", "negated", "negative-entry", "nan", "inf", "2-d", "0-d"])
@pytest.mark.parametrize("entry", SOLVE_ENTRIES.values(), ids=SOLVE_ENTRIES)
def test_rows_are_checked_as_the_solvers_check_them(monkeypatch, entry, nu0, nu1, error,
                                                    message):
    # a NaN mass never ends the monotone walk: a row that reaches it
    # fails here instead of hanging the run
    def walk(*_):
        raise AssertionError("the rows reached the monotone walk")

    monkeypatch.setattr(scaling, "monotone_cells", walk)
    with pytest.raises(error, match=f"^{message}") as raised:
        entry(nu0, nu1)
    assert type(raised.value) is error


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
    assert np.allclose(prof[np.isfinite(prof)], 3.0, atol=0.01)


def test_stretched_balanced_row_is_solved_unchecked():
    # equal masses, one view twice as wide: no whole-pixel shifts carry
    # one row onto the other, so the reproduction check must not run
    right = np.zeros((1, 40))
    right[0, 10:20] = 0.5
    left = np.zeros((1, 40))
    left[0, 12:32] = 0.25
    result = disparity_map(left, right, DEFAULT_CONFIG)
    info = result.diagnostics[0]
    assert (info["path"], info["iterations"], info["stop_reason"]) == (
        "balanced", 2, "converged"
    )
    assert result.reports == ()
    assert np.array_equal(result.defined_mask[0], right[0] > 0.0)
    assert np.abs(result.values[0, 10:20] - (np.arange(10) + 2.5)).max() < 1e-4


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
    assert report.phi == pytest.approx(nu1.sum() / nu0.sum())
    # the occluder's columns carry the rigid integer shift
    assert np.allclose(prof[10:20], 7.0)
    # the freed remainder matches the second object's shift
    tail = prof[23:41]
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
    assert np.allclose(prof[20:46], 9.0)
    quotient = nu1.sum() / nu0.sum()
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


def test_touching_objects_split_at_the_intensity_change():
    # the occluder touches its right neighbor, which touches a third
    # object; one run of mass, three objects
    pair = scene_rows(
        (obj(8, 20, 7, 0.45), obj(28, 16, 3, 0.8), obj(48, 20, 3, 0.6)), d=80, h=1
    )
    assert pair.hidden[0]["right_frame"] == [(28, 31)]
    result = disparity_map(pair.left, pair.right, WARM)
    assert result.reports[0].intervals == ((28, 31),)
    truth = pair.truth.values
    visible = np.isfinite(truth) & ~pair.truth.occluded
    assert np.array_equal(result.defined_mask, visible)
    assert np.abs(result.values - truth)[visible].max() < 1e-4


def test_neighbor_hidden_in_full_is_one_interval():
    pair = scene_rows(
        (obj(1, 7, 8, 0.9), obj(10, 4, 1, 0.45), obj(15, 14, 5, 0.6)), d=80, h=1
    )
    assert pair.hidden[0]["right_frame"] == [(10, 13)]
    result = disparity_map(pair.left, pair.right, WARM)
    assert result.reports[0].intervals == ((10, 13),)
    truth = pair.truth.values
    visible = np.isfinite(truth) & ~pair.truth.occluded
    assert np.abs(result.values - truth)[visible].max() < 1e-4


def test_hidden_neighbor_is_told_from_a_later_object_of_its_value():
    # the left view's second object hides behind the near one in the
    # right view; the next run right of the near object's image has
    # the hidden object's value but is another object
    pair = scene_rows(
        (obj(0, 10, 8, 0.45), obj(17, 4, 2, 0.45), obj(17, 13, 8, 0.75)), d=80, h=1
    )
    assert pair.hidden[0] == {"right_frame": [], "left_frame": [(19, 22)]}
    result = disparity_map(pair.left, pair.right, WARM)
    assert result.reports[0].left_frame == ((19, 22),)
    truth = pair.truth.values
    assert np.array_equal(result.defined_mask, np.isfinite(truth))
    assert np.abs(result.values - truth)[np.isfinite(truth)].max() < 1e-4


def test_occluder_landing_past_its_neighbors_start_fails_the_row():
    # the narrow near object's image lands inside its neighbor's image,
    # so the target starts with the neighbor: no monotone matching
    # reads that, and the recovered shifts fail the check
    pair = scene_rows((obj(8, 4, 9, 0.3), obj(12, 15, 3, 0.75)), d=80, h=1)
    assert pair.hidden[0]["right_frame"] == [(14, 17)]
    result = disparity_map(pair.left, pair.right, WARM)
    info = result.diagnostics[0]
    assert info["path"] == "failed"
    assert info["stop_reason"] == "converged"
    assert "do not carry the source row" in info["error"]
    assert result.no_data.all()


def mirror_pair(h=2):
    # the nearer object hides columns 36-39 of the left view's first
    # object from the right camera; the left row is the heavier one
    return scene_rows((obj(8, 30, 2, 0.4), obj(34, 20, 7, 0.8)), d=120, h=h)


def test_mirror_row_profile_and_left_frame_are_exact():
    pair = mirror_pair()
    assert pair.hidden[0] == {"right_frame": [], "left_frame": [(36, 39)]}
    result = disparity_map(pair.left, pair.right, WARM)
    report = result.reports[0]
    assert result.diagnostics[0]["path"] == "occlusion"
    assert result.diagnostics[0]["stop_reason"] == "converged"
    assert report.intervals == ()
    assert report.left_frame == ((36, 39),)
    # the occluder's rightmost left-image column and its shift
    assert report.object_shifts[0][0] == 60
    assert round(report.object_shifts[0][1]) == 7
    truth = pair.truth.values
    assert np.array_equal(result.defined_mask, np.isfinite(truth))
    assert np.abs(result.values - truth)[np.isfinite(truth)].max() < 1e-4
    # nothing of the right image is hidden from the left camera
    assert not result.occluded.any()


def test_target_heavy_row_is_peeled_on_flipped_rows():
    pair = mirror_pair()
    nu0 = measure_from_row(pair.right[0])
    nu1 = measure_from_row(pair.left[0])
    prof, report = recover_occlusions(nu0, nu1, build_kernel(120, WARM.epsilon), WARM)
    assert report.left_frame == ((36, 39),)
    assert report.intervals == ()
    assert report.object_shifts[0] == (60, 7.0)
    truth = pair.truth.values[0]
    visible = np.isfinite(truth) & ~pair.truth.occluded[0]
    assert np.abs(prof[visible] - truth[visible]).max() < 1e-4


def test_mirror_rows_agree_with_and_without_warm_start():
    pair = mirror_pair(h=1)
    result = disparity_map(pair.left, pair.right, WARM)
    fixed = disparity_map(pair.left, pair.right, CONFIG)
    assert result.reports[0].left_frame == fixed.reports[0].left_frame == ((36, 39),)
    assert [round(s) for _, s in result.reports[0].object_shifts] == [
        round(s) for _, s in fixed.reports[0].object_shifts
    ]
    assert np.array_equal(result.defined_mask, fixed.defined_mask)
    # at a fixed epsilon the balanced remainder stops on its budget,
    # about 0.01 px short of the warm-started solve's accuracy
    assert fixed.diagnostics[0]["stop_reason"] == "max-iterations"
    assert np.array_equal(np.rint(result.values), np.rint(fixed.values), equal_nan=True)
    assert np.allclose(result.values, fixed.values, atol=0.05, equal_nan=True)


def test_mirror_rows_write_nothing_on_right_background():
    # the near object's image lands inside the far one's, which no
    # monotone matching reads; the row fails before any solve runs
    pair = scene_rows((obj(5, 18, 3, 0.3), obj(17, 4, 9, 0.45)), d=80, h=1)
    assert pair.hidden[0]["left_frame"] == [(20, 23)]
    result = disparity_map(pair.left, pair.right, DEFAULT_CONFIG)
    info = result.diagnostics[0]
    assert (info["path"], info["iterations"]) == ("failed", 0)
    assert result.no_data.all()
    # the failed row's report is in left-image columns, as a solved
    # mirror row's is: each object's rightmost left-image column
    (report,) = result.reports
    assert report.intervals == ()
    assert report.object_shifts == ((29, 7.0), (25, 7.0))


def test_mass_mismatch_in_the_matching_fails_only_its_rows(monkeypatch):
    # an occlusion row, a mirror row and an unoccluded row
    occlusion, mirror = four_object_pair(), mirror_pair(h=1)
    plain = np.zeros((1, 120))
    plain[0, 30:60] = 0.5
    left = np.vstack([occlusion.left[:1], mirror.left, plain])
    right = np.vstack([occlusion.right[:1], mirror.right, plain])

    def mismatch(*args, **kwargs):
        raise MassMismatchError("masses differ")

    monkeypatch.setattr(disparity, "monotone_plan", mismatch)
    result = disparity_map(left, right, WARM)
    paths = [info["path"] for info in result.diagnostics]
    assert paths == ["failed", "failed", "balanced"]
    assert all("masses differ" in info["error"] for info in result.diagnostics[:2])
    assert np.isnan(result.values[:2]).all()
    assert not result.occluded[:2].any()
    assert not np.isnan(result.values[2, 30:60]).any()


# ROADMAP item 3's simplest case: the near object covers the far one's
# columns 30-39 in the right view and its columns 40-49 in the left
# view, so the masses agree and the row takes the balanced path, which
# converges on a matching that is off by up to 9.5 px on 10 of the 40
# pixels both views show
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a row that hides content from both views")
def test_a_row_hiding_content_from_both_views_is_right_or_no_data():
    pair = scene_rows((obj(20, 50, 10, 0.4), obj(30, 10, 20, 0.8)), d=100, h=3)
    result = disparity_map(pair.left, pair.right, DEFAULT_CONFIG)
    truth = pair.truth.values[0]
    visible = np.isfinite(truth) & ~pair.truth.occluded[0]
    assert visible.sum() == 40
    found = result.values[0, visible]
    assert (np.isnan(found) | (np.abs(found - truth[visible]) <= 0.5)).all()


def test_map_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        disparity_map(np.zeros((2, 10)), np.zeros((3, 10)), CONFIG)


@pytest.mark.parametrize(
    "source, target, profile, expected",
    [
        # both rows shifted by one onto the target
        ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1.0, 1.0, np.nan], True),
        # both pixels land on column 1: in range, on their own value,
        # as many as the target's pixels, but not one to one
        ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, np.nan], False),
        # a pixel leaving the frame
        ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1.0, 2.0, np.nan], False),
        # a pixel landing on another value
        ([0.5, 0.7, 0.0], [0.0, 0.5, 0.5], [1.0, 1.0, np.nan], False),
        # a target pixel no source pixel reaches
        ([0.5, 0.0, 0.0], [0.0, 0.5, 0.5], [1.0, np.nan, np.nan], False),
    ],
)
def test_reproduces_checks_each_clause(source, target, profile, expected):
    result = disparity._reproduces(np.array(source), np.array(target), np.array(profile))
    assert bool(result) is expected
