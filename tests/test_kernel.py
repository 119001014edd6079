import math
import pickle
import sys
import warnings

import numpy as np
import pytest

from otstereo.disparity import DEFAULT_CONFIG, disparity_map
from otstereo.errors import DimensionMismatchError, SupportMismatchError
from otstereo.reference import hilbert_distance, kernel_entries, log_kernel
from otstereo.geometry import CameraRig, depth_from_disparity
from otstereo.scene import CartoonScene, SceneObject, render_pair
from otstereo.scaling import GibbsKernel, build_kernel

RIG = CameraRig()


def brute_force_eta(K: np.ndarray) -> float:
    """Exhaustive cross ratio max K_ij K_kl / (K_kj K_il)."""
    d = K.shape[0]
    best = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    ratio = (K[i, j] * K[k, l]) / (K[k, j] * K[i, l])
                    best = max(best, ratio)
    return best


def test_kernel_basic_shape_and_values():
    K = kernel_entries(build_kernel(3, 1.0))
    assert K.shape == (3, 3)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(K, K.T)
    assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert K[0, 2] == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_kernel_two_columns_unit_epsilon():
    kern = build_kernel(2, 1.0)
    assert math.exp(kern.log_eta) == pytest.approx(math.e**2, rel=1e-12)
    assert kern.lam == pytest.approx((math.e - 1) / (math.e + 1), rel=1e-12)


def test_kernel_single_column_is_trivial():
    kern = build_kernel(1, 0.5)
    assert math.exp(kern.log_eta) == pytest.approx(1.0)
    assert kern.lam == 0.0


def test_kernel_narrow_blur_entry():
    kern = build_kernel(3, 0.1)
    assert kernel_entries(kern)[0, 2] == pytest.approx(math.exp(-40.0), rel=1e-12)


def test_closed_form_eta_matches_brute_force():
    for d, eps in [(2, 1.0), (3, 0.7), (4, 2.0), (5, 5.0), (8, 20.0), (12, 60.0)]:
        kern = build_kernel(d, eps)
        assert math.log(brute_force_eta(kernel_entries(kern))) == pytest.approx(
            kern.log_eta, rel=1e-9
        ), (d, eps)


def test_lambda_from_eta_identity():
    for d, eps in [(2, 1.0), (4, 3.0), (6, 10.0)]:
        kern = build_kernel(d, eps)
        root = math.sqrt(math.exp(kern.log_eta))
        assert kern.lam == pytest.approx((root - 1) / (root + 1), rel=1e-12)
        assert 0.0 <= kern.lam < 1.0


def test_image_scale_kernel_overflows_eta_not_lambda():
    kern = build_kernel(120, 0.1)
    assert kern.log_eta > math.log(sys.float_info.max)
    assert kern.lam == pytest.approx(1.0)
    with pytest.warns(RuntimeWarning):
        assert kernel_entries(kern)[0, 119] == 0.0
    assert np.isfinite(kern.log_eta)


def test_log_entries_exact_at_any_scale():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kern = build_kernel(50, 0.1)
        assert log_kernel(kern)[0, 49] == pytest.approx(-(49.0**2) / 0.1, rel=1e-15)


def test_log_domain_map_never_builds_the_dense_kernel():
    # the dense 640 x 640 kernel underflows; the log path must not build it
    layout = ((300, 20, 6, 0.5), (324, 16, 4, 0.7), (344, 12, 3, 0.4))
    objects = tuple(
        SceneObject(x0=x0, width=w, depth=depth_from_disparity(s, RIG), intensity=i)
        for x0, w, s, i in layout
    )
    pair = render_pair(CartoonScene(width=640, height=2, objects=objects), RIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = disparity_map(pair.left, pair.right, DEFAULT_CONFIG)
    assert [row["path"] for row in result.diagnostics] == ["balanced", "balanced"]
    assert np.nanmax(np.abs(result.values - pair.truth.values)) < 1e-3


def test_hilbert_distance_examples():
    assert hilbert_distance([1.0, 2.0], [2.0, 1.0]) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-12
    )
    assert hilbert_distance([3.0, 3.0], [1.0, 1.0]) == 0.0


def test_hilbert_distance_scale_invariance():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.1, 5.0, size=9)
    v = rng.uniform(0.1, 5.0, size=9)
    base = hilbert_distance(u, v)
    assert hilbert_distance(13.0 * u, v) == pytest.approx(base, rel=1e-12)
    assert hilbert_distance(u, v / 97.0) == pytest.approx(base, rel=1e-12)


def test_hilbert_distance_shared_zeros_ignored():
    assert hilbert_distance([0.0, 1.0, 2.0], [0.0, 2.0, 1.0]) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-12
    )


def test_hilbert_distance_support_mismatch():
    with pytest.raises(SupportMismatchError):
        hilbert_distance([0.0, 1.0], [1.0, 1.0])


def test_hilbert_distance_of_zero_vectors_is_zero():
    assert hilbert_distance([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_hilbert_distance_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        hilbert_distance([1.0, 1.0], [1.0, 1.0, 1.0])


def test_hilbert_distance_rejects_non_finite_entries():
    for u, v in (([np.nan, 1.0], [np.nan, 2.0]), ([np.inf, 1.0], [1.0, 1.0]),
                 ([1.0, 1.0], [1.0, np.inf])):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            hilbert_distance(u, v)


def test_kernel_accepts_numpy_scalars():
    for epsilon in (np.float32(0.1), np.float64(0.1), np.int64(2)):
        kern = build_kernel(np.int64(5), epsilon)
        assert kern.epsilon == float(epsilon) and type(kern.epsilon) is float
        assert kern.d == 5 and type(kern.d) is int
    for bad in (np.float32(0.0), np.float64(-1.0), np.float32(np.nan), np.float64(np.inf)):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            build_kernel(5, bad)


def test_kernel_is_an_immutable_record_that_holds_no_entries():
    kern = build_kernel(4, 0.5)
    assert GibbsKernel.__slots__ == ("epsilon", "d", "log_eta", "lam")
    assert kern == build_kernel(4, 0.5) and kern != build_kernel(4, 0.25)
    assert repr(kern) == "GibbsKernel(epsilon=0.5, d=4)"
    with pytest.raises(AttributeError):
        kern.epsilon = 1.0
    copy = pickle.loads(pickle.dumps(kern))
    assert copy == kern and np.array_equal(kernel_entries(copy), kernel_entries(kern))


def test_kernel_rejects_bad_config():
    with pytest.raises(ValueError):
        build_kernel(0, 1.0)
    with pytest.raises(ValueError):
        build_kernel(3, 0.0)
    with pytest.raises(ValueError):
        build_kernel(3, float("nan"))
