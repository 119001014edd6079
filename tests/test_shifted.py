import numpy as np
import pytest

from otstereo.errors import WrongPathError
from otstereo.kernel import build_kernel
from otstereo.sinkhorn import SinkhornConfig, shifted_sinkhorn

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
    assert np.allclose(limits.odd.row_marginal, a, atol=1e-12)
    assert np.allclose(limits.even.col_marginal, b, atol=1e-12)
    # the two limits differ exactly by the mass quotient
    assert np.allclose(limits.odd.entries, m0 * limits.even.entries, atol=1e-10)
    assert limits.odd.mass == pytest.approx(m0, rel=1e-10)
    assert limits.even.mass == pytest.approx(1.0, rel=1e-10)


def test_even_limit_row_marginal_is_rescaled_source():
    rng = np.random.default_rng(8)
    m0 = 1.5
    a, b = unbalanced_pair(rng, 5, m0)
    kern = build_kernel(5, 1.0)
    limits = shifted_sinkhorn(a, b, kern, SinkhornConfig(1.0, **TIGHT))
    assert np.allclose(limits.even.row_marginal, a / m0, atol=1e-10)


def test_log_domain_matches_plain():
    rng = np.random.default_rng(15)
    a, b = unbalanced_pair(rng, 6, 1.3)
    kern = build_kernel(6, 1.0)
    plain = shifted_sinkhorn(a, b, kern, SinkhornConfig(1.0, max_iterations=80))
    logged = shifted_sinkhorn(
        a, b, kern, SinkhornConfig(1.0, max_iterations=80, log_domain=True)
    )
    assert np.allclose(plain.odd.entries, logged.odd.entries, atol=1e-10)
    assert np.allclose(plain.even.entries, logged.even.entries, atol=1e-10)


def test_plain_domain_survives_long_unbalanced_runs():
    # without drift compensation the scaling vectors would overflow
    rng = np.random.default_rng(4)
    a, b = unbalanced_pair(rng, 5, 2.0)
    kern = build_kernel(5, 1.0)
    limits = shifted_sinkhorn(a, b, kern, SinkhornConfig(1.0, max_iterations=5000))
    assert np.all(np.isfinite(limits.odd.entries))
    assert limits.odd.mass == pytest.approx(2.0, rel=1e-10)


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


@pytest.mark.parametrize("anneal", [False, True])
def test_tolerance_stop_fires_on_the_scaled_target(anneal):
    rng = np.random.default_rng(12)
    m0 = 1.4
    a, b = unbalanced_pair(rng, 7, m0)
    kern = build_kernel(7, 0.5)
    config = SinkhornConfig(0.5, max_iterations=100000, stop_tolerance=1e-10,
                            log_domain=True, anneal=anneal)
    limits = shifted_sinkhorn(a, b, kern, config)
    assert limits.report.stop_reason == "converged"
    assert limits.report.iterations < 100000
    # the odd plan's column marginal converges to m0 * nu1, not nu1
    assert np.abs(limits.odd.col_marginal - m0 * b).max() <= 1e-10
    assert limits.report.marginal_violation <= 1e-10
