import numpy as np
import pytest

from otstereo.errors import WrongPathError
from otstereo.reference import kernel_entries
from otstereo.scaling import SinkhornConfig, build_kernel, shifted_sinkhorn

TIGHT = dict(max_iterations=200000, stop_tolerance=1e-14)


def unbalanced_pair(rng, d, m0):
    a = rng.uniform(0.1, 1.0, size=d)
    b = rng.uniform(0.1, 1.0, size=d)
    return m0 * a / a.sum(), b / b.sum()


@pytest.mark.parametrize("m0", [1.05, 1.5, 2.0])
def test_even_and_odd_limits(m0):
    rng = np.random.default_rng(int(m0 * 100))
    a, b = unbalanced_pair(rng, 6, m0)
    kern = build_kernel(6, 1.0)
    limits = shifted_sinkhorn(a, b, kern, SinkhornConfig(1.0, **TIGHT))
    # odd limit is feasible for the source, even limit for the target
    assert np.allclose(limits.odd.sum(axis=1), a, atol=1e-12)
    assert np.allclose(limits.even.sum(axis=0), b, atol=1e-12)
    # the two limits differ exactly by the mass quotient
    assert np.allclose(limits.odd, m0 * limits.even, atol=1e-10)
    assert limits.odd.sum() == pytest.approx(m0, rel=1e-10)
    assert limits.even.sum() == pytest.approx(1.0, rel=1e-10)


def test_even_limit_row_marginal_is_rescaled_source():
    rng = np.random.default_rng(8)
    m0 = 1.5
    a, b = unbalanced_pair(rng, 5, m0)
    kern = build_kernel(5, 1.0)
    limits = shifted_sinkhorn(a, b, kern, SinkhornConfig(1.0, **TIGHT))
    assert np.allclose(limits.even.sum(axis=1), a / m0, atol=1e-10)


def test_log_domain_matches_plain():
    rng = np.random.default_rng(15)
    a, b = unbalanced_pair(rng, 6, 1.3)
    kern = build_kernel(6, 1.0)
    limits = shifted_sinkhorn(a, b, kern, SinkhornConfig(1.0, max_iterations=80))
    # reference: raw scalings on the dense kernel; the solver's rescaling
    # of v by the mass quotient cancels out of both plans
    K = kernel_entries(kern)
    v = (b > 0.0).astype(float)
    for _ in range(80):
        u = a / (K @ v)
        odd = u[:, None] * K * v[None, :]
        v = b / (K.T @ u)
    even = u[:, None] * K * v[None, :]
    assert np.allclose(limits.odd, odd, atol=1e-10)
    assert np.allclose(limits.even, even, atol=1e-10)


def test_plain_domain_survives_long_unbalanced_runs():
    # without drift compensation the log scalings would drift apart
    # by log(m0) every iteration
    rng = np.random.default_rng(4)
    a, b = unbalanced_pair(rng, 5, 2.0)
    kern = build_kernel(5, 1.0)
    limits = shifted_sinkhorn(a, b, kern, SinkhornConfig(1.0, max_iterations=5000))
    assert np.all(np.isfinite(limits.odd))
    assert limits.odd.sum() == pytest.approx(2.0, rel=1e-10)


def test_balanced_input_is_the_wrong_path():
    kern = build_kernel(4, 1.0)
    b = np.full(4, 0.25)
    with pytest.raises(WrongPathError):
        shifted_sinkhorn(b, b, kern, SinkhornConfig(1.0))
    with pytest.raises(WrongPathError):
        shifted_sinkhorn(0.5 * b, b, kern, SinkhornConfig(1.0))


def test_target_must_be_probability():
    kern = build_kernel(4, 1.0)
    a = np.full(4, 0.5)
    with pytest.raises(ValueError):
        shifted_sinkhorn(a, a, kern, SinkhornConfig(1.0))


@pytest.mark.parametrize("warm_start", [False, True])
def test_tolerance_stop_fires_on_the_scaled_target(warm_start):
    rng = np.random.default_rng(12)
    m0 = 1.4
    a, b = unbalanced_pair(rng, 7, m0)
    kern = build_kernel(7, 0.5)
    config = SinkhornConfig(0.5, max_iterations=100000, stop_tolerance=1e-10,
                            warm_start=warm_start)
    limits = shifted_sinkhorn(a, b, kern, config)
    assert limits.report.stop_reason == "converged"
    assert limits.report.iterations < 100000
    # the odd plan's column marginal converges to m0 * nu1, not nu1
    assert np.abs(limits.odd.sum(axis=0) - m0 * b).max() <= 1e-10
    assert limits.report.marginal_violation <= 1e-10


def test_warm_solve_stops_on_the_marginal():
    a, b = unbalanced_pair(np.random.default_rng(12), 7, 1.4)
    kern = build_kernel(7, 0.5)
    config = SinkhornConfig(0.5, max_iterations=100000, stop_tolerance=1e-10, warm_start=True)
    report = shifted_sinkhorn(a, b, kern, config).report
    assert report.stop_reason == "converged"
    assert report.marginal_violation <= config.stop_tolerance
    # one iteration less is still short of the marginal stop, so no
    # other rule stopped the solve
    early = SinkhornConfig(
        config.epsilon, report.iterations - 1, config.stop_tolerance, config.warm_start
    )
    cut = shifted_sinkhorn(a, b, kern, early).report
    assert cut.stop_reason == "max-iterations"
    assert cut.marginal_violation > config.stop_tolerance
