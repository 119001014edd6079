import numpy as np
import pytest

from otstereo.disparity import compression, disparity_profile
from otstereo.errors import NoPlateauError
from otstereo.maps import value_runs
from otstereo.reference import estimate_phi
from otstereo.scaling import SinkhornConfig, build_kernel, shifted_sinkhorn


@pytest.mark.parametrize(
    "mask, runs",
    [
        ([], []),
        ([0, 0, 0], []),
        ([1, 1, 1], [(0, 2)]),
        ([1, 1, 0, 0], [(0, 1)]),
        ([0, 0, 1, 1], [(2, 3)]),
        ([1, 0, 1, 0, 1], [(0, 0), (2, 2), (4, 4)]),
        ([0, 1, 1, 0, 1, 0], [(1, 2), (4, 4)]),
    ],
    ids=["empty", "all-off", "all-on", "left-edge", "right-edge", "single-pixels",
         "interior"],
)
def test_mask_runs(mask, runs):
    assert value_runs(np.array(mask, dtype=bool)) == runs


def test_mask_runs_matches_a_scan():
    def scan(mask):
        runs, start = [], None
        for i, flag in enumerate(mask):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                runs.append((start, i - 1))
                start = None
        if start is not None:
            runs.append((start, len(mask) - 1))
        return runs

    rng = np.random.default_rng(5)
    for size in range(1, 40):
        mask = rng.uniform(size=size) < 0.5
        assert value_runs(mask) == scan(mask)


def test_single_atom_plan():
    entries = np.zeros((3, 3))
    entries[0, 1] = 1.0
    prof = disparity_profile(entries)
    assert prof[0] == pytest.approx(1.0)
    assert list(np.isfinite(prof)) == [True, False, False]
    assert np.isnan(prof[1]) and np.isnan(prof[2])


def test_two_term_barycenter():
    entries = np.zeros((3, 3))
    entries[0, 0] = 0.5
    entries[0, 2] = 0.5
    prof = disparity_profile(entries)
    # barycenter (0.5*0 + 0.5*2) minus the row index 0
    assert prof[0] == pytest.approx(1.0)


def test_identity_plan_has_zero_shift():
    nu = np.array([0.2, 0.0, 0.5, 0.3])
    prof = disparity_profile(np.diag(nu))
    assert np.allclose(prof[np.isfinite(prof)], 0.0)
    assert list(np.isfinite(prof)) == [True, False, True, True]


def test_defined_values_are_finite():
    rng = np.random.default_rng(3)
    entries = rng.uniform(0.0, 1.0, size=(6, 6))
    entries[2] = 0.0
    prof = disparity_profile(entries)
    # every row but the empty one carries mass, so only that one is NaN
    assert np.all(np.isfinite(np.delete(prof, 2)))
    assert np.isnan(prof[2])


@pytest.mark.parametrize("m0", [1.0, 2.0, 17.5])
def test_scale_invariance(m0):
    rng = np.random.default_rng(11)
    entries = rng.uniform(0.0, 1.0, size=(8, 8))
    entries[rng.uniform(size=(8, 8)) < 0.3] = 0.0
    base = disparity_profile(entries)
    scaled = disparity_profile(entries / m0)
    assert np.array_equal(np.isfinite(base), np.isfinite(scaled))
    gap = np.abs(base - scaled)[np.isfinite(base)]
    assert gap.max(initial=0.0) <= 1e-12


def test_scale_invariance_of_shifted_limits():
    # even and odd limits differ by the factor m0 only, so their
    # profiles must agree
    a = np.zeros(16)
    a[3:9] = 0.30
    b = np.zeros(16)
    b[5:11] = 0.25
    b = b / b.sum()
    a = a / a.sum() * 1.2
    kern = build_kernel(16, 0.5)
    limits = shifted_sinkhorn(
        a, b, kern, SinkhornConfig(epsilon=0.5, max_iterations=400)
    )
    even = disparity_profile(limits.even)
    odd = disparity_profile(limits.odd)
    assert np.array_equal(np.isfinite(even), np.isfinite(odd))
    # the iterates are proportional only in the limit, so the bound
    # here is looser than for exact rescaling
    gap = np.abs(even - odd)[np.isfinite(even)]
    assert gap.max() <= 1e-10


def test_compression_of_constant_profile():
    delta = compression(np.array([4.0, 4.0, 4.0, np.nan]))
    assert delta.shape == (3,)
    assert np.allclose(delta[:2], 0.0)
    assert np.isnan(delta[2])


def test_compression_of_linear_profile():
    delta = compression(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(delta, [1.0, 1.0])


def test_compression_masks_half_defined_pairs():
    delta = compression(np.array([1.0, np.nan, 3.0, 3.5]))
    assert np.isnan(delta[0]) and np.isnan(delta[1])
    assert delta[2] == pytest.approx(0.5)


def test_phi_from_measured_plateau():
    # a run of a measured plateau value surrounded by junk
    delta = np.array([0.4, -0.05637, -0.05637, -0.05637, 0.2])
    phi = estimate_phi(delta)
    assert phi == pytest.approx(1.0 / 1.05637, abs=1e-9)
    assert abs(phi - 0.95) < 5e-3


def test_phi_of_balanced_plateau_is_one():
    assert estimate_phi(np.array([0.0, 0.0, 0.1])) == pytest.approx(1.0)


def test_phi_of_minus_one_plateau_is_half():
    assert estimate_phi(np.array([-1.0, -1.0])) == pytest.approx(0.5)


def test_no_adjacent_repeat_raises():
    with pytest.raises(NoPlateauError):
        estimate_phi(np.array([0.1, 0.2, 0.3, 0.4]))


def test_plateau_at_or_above_one_raises():
    # 1 - 1/phi >= 1 has no positive phi
    with pytest.raises(NoPlateauError):
        estimate_phi(np.array([1.5, 1.5]))


def test_nan_gaps_do_not_pair():
    with pytest.raises(NoPlateauError):
        estimate_phi(np.array([0.3, np.nan, 0.3]))


def test_modal_plateau_wins():
    # two candidate plateaus; the longer run decides
    delta = np.array([-0.2, -0.2, -0.05, -0.05, -0.05, -0.05])
    assert estimate_phi(delta) == pytest.approx(1.0 / 1.05)


def test_monotone_barycenter_bound():
    rng = np.random.default_rng(23)
    for _ in range(50):
        entries = rng.uniform(0.0, 1.0, size=(10, 10))
        entries[rng.uniform(size=(10, 10)) < 0.5] = 0.0
        prof = disparity_profile(entries)
        for i in np.flatnonzero(np.isfinite(prof)):
            support = np.flatnonzero(entries[i])
            assert support.min() - i - 1e-12 <= prof[i]
            assert prof[i] <= support.max() - i + 1e-12
