import math

import numpy as np
import pytest

from otstereo.errors import (
    EmptyScanlineError,
    InfeasibleProjectionError,
    NumericalUnderflowError,
)
from otstereo.exact import monotone_plan
from otstereo.kernel import build_kernel
from otstereo.sinkhorn import (
    SinkhornConfig,
    TransportPlan,
    kl_divergence,
    project_cols,
    project_rows,
    regularized_cost,
    sinkhorn,
    sinkhorn_log,
    transport_cost,
)


def random_probability(rng, d, zeros=0):
    p = rng.uniform(0.1, 1.0, size=d)
    if zeros:
        p[rng.choice(d, size=zeros, replace=False)] = 0.0
    return p / p.sum()


def test_row_marginal_exact_after_one_iteration():
    kern = build_kernel(4, 1.0)
    a = np.array([0.4, 0.1, 0.3, 0.2])
    b = np.array([0.25, 0.25, 0.25, 0.25])
    plan, _, _ = sinkhorn(a, b, kern, SinkhornConfig(epsilon=1.0, max_iterations=1))
    assert np.allclose(plan.row_marginal, a, atol=1e-15)
    # first odd iterate is the row projection of the kernel
    expected = project_rows(kern.entries, a)
    assert np.allclose(plan.entries, expected.entries, atol=1e-15)


def test_odd_plan_keeps_row_marginal_every_budget():
    rng = np.random.default_rng(5)
    kern = build_kernel(6, 1.5)
    a = random_probability(rng, 6, zeros=1)
    b = random_probability(rng, 6, zeros=2)
    for iters in (1, 2, 7, 40):
        plan, _, report = sinkhorn(a, b, kern, SinkhornConfig(1.5, max_iterations=iters))
        assert np.allclose(plan.row_marginal, a, atol=1e-13)
        assert report.iterations == iters
        assert report.stop_reason == "max-iterations"


def test_marginal_violation_decreases():
    rng = np.random.default_rng(9)
    kern = build_kernel(8, 1.0)
    a = random_probability(rng, 8)
    b = random_probability(rng, 8)
    _, _, early = sinkhorn(a, b, kern, SinkhornConfig(1.0, max_iterations=2))
    late_config = SinkhornConfig(1.0, max_iterations=5000, stop_tolerance=1e-13)
    _, _, late = sinkhorn(a, b, kern, late_config)
    assert late.marginal_violation < early.marginal_violation
    assert late.marginal_violation < 1e-10


def test_tolerance_stop_reports_convergence():
    rng = np.random.default_rng(2)
    kern = build_kernel(5, 2.0)
    a = random_probability(rng, 5)
    b = random_probability(rng, 5)
    config = SinkhornConfig(2.0, max_iterations=100000, stop_tolerance=1e-12)
    _, _, report = sinkhorn(a, b, kern, config)
    assert report.stop_reason == "converged"
    assert report.iterations < 100000
    assert len(report.hilbert_u) == report.iterations
    assert report.marginal_violation <= 1e-12


def test_annealed_solve_matches_long_fixed_epsilon_solve():
    rng = np.random.default_rng(29)
    for _ in range(5):
        d = int(rng.integers(5, 13))
        eps = float(rng.uniform(0.3, 1.0))
        kern = build_kernel(d, eps)
        a = random_probability(rng, d, zeros=int(rng.integers(0, 3)))
        b = random_probability(rng, d, zeros=int(rng.integers(0, 3)))
        fixed = SinkhornConfig(eps, max_iterations=200000, stop_tolerance=1e-13,
                               log_domain=True)
        annealed = SinkhornConfig(eps, max_iterations=200000, stop_tolerance=1e-10,
                                  log_domain=True, anneal=True)
        reference, _, _ = sinkhorn(a, b, kern, fixed)
        plan, _, report = sinkhorn(a, b, kern, annealed)
        assert report.stop_reason == "converged"
        assert report.marginal_violation <= 1e-10
        assert np.abs(plan.entries - reference.entries).max() < 1e-8


def test_annealing_iterations_count_toward_the_budget():
    kern = build_kernel(8, 0.5)
    a = np.full(8, 1 / 8)
    b = np.roll(a, 3)
    config = SinkhornConfig(0.5, max_iterations=30, stop_tolerance=1e-6,
                            log_domain=True, anneal=True)
    plan, _, report = sinkhorn(a, b, kern, config)
    # the schedule from epsilon 49 down to 0.5 alone takes 13 stages of 20
    assert report.stop_reason == "max-iterations"
    assert report.iterations == len(report.hilbert_u) == 30
    assert np.allclose(plan.row_marginal, a, atol=1e-13)


def test_unequal_masses_never_report_convergence():
    rng = np.random.default_rng(31)
    kern = build_kernel(6, 1.0)
    a = 0.8 * random_probability(rng, 6)
    b = random_probability(rng, 6)
    for log_domain in (False, True):
        config = SinkhornConfig(1.0, max_iterations=2000, stop_tolerance=1e-3,
                                log_domain=log_domain, anneal=log_domain)
        _, _, report = sinkhorn(a, b, kern, config)
        assert report.stop_reason == "max-iterations"
        assert report.iterations == 2000
        assert report.marginal_violation > 1e-3


def test_plain_and_log_domains_agree():
    rng = np.random.default_rng(17)
    kern = build_kernel(7, 1.0)
    a = random_probability(rng, 7, zeros=1)
    b = random_probability(rng, 7, zeros=1)
    config = SinkhornConfig(1.0, max_iterations=60)
    plan_plain, vec_plain, _ = sinkhorn(a, b, kern, config)
    plan_log, vec_log, _ = sinkhorn_log(a, b, kern, config)
    assert np.allclose(plan_plain.entries, plan_log.entries, atol=1e-10)
    assert vec_log.log_domain and not vec_plain.log_domain
    # scaling vectors reconstruct the returned plan in both modes
    assert np.allclose(vec_plain.reconstruct(kern), plan_plain.entries, atol=1e-13)
    assert np.allclose(vec_log.reconstruct(kern), plan_log.entries, atol=1e-13)


def test_log_domain_flag_dispatches():
    rng = np.random.default_rng(21)
    kern = build_kernel(5, 0.05)
    a = random_probability(rng, 5)
    b = random_probability(rng, 5)
    config = SinkhornConfig(0.05, max_iterations=50, log_domain=True)
    plan, vectors, _ = sinkhorn(a, b, kern, config)
    assert vectors.log_domain
    assert np.all(np.isfinite(plan.entries))


def test_plain_domain_underflow_raises():
    # far-apart supports at small epsilon zero out the kernel application
    kern = build_kernel(24, 0.1)
    a = np.zeros(24)
    b = np.zeros(24)
    a[0] = 1.0
    b[23] = 1.0
    with pytest.warns(RuntimeWarning), pytest.raises(NumericalUnderflowError):
        sinkhorn(a, b, kern, SinkhornConfig(0.1, max_iterations=5))
    plan, _, _ = sinkhorn_log(a, b, kern, SinkhornConfig(0.1, max_iterations=5))
    assert plan.entries[0, 23] == pytest.approx(1.0, rel=1e-12)


def test_entropic_plan_approaches_exact_cost():
    a = np.array([0.5, 0.5, 0.0])
    b = np.array([0.0, 0.5, 0.5])
    exact = monotone_plan(a, b)
    kern = build_kernel(3, 0.01)
    config = SinkhornConfig(0.01, max_iterations=5000, stop_tolerance=1e-13, log_domain=True)
    plan, _, _ = sinkhorn(a, b, kern, config)
    assert np.abs(plan.entries - exact.plan.entries).max() < 1e-3
    assert transport_cost(plan) == pytest.approx(exact.cost, abs=1e-3)


def test_cost_decreases_as_blur_shrinks():
    rng = np.random.default_rng(33)
    a = random_probability(rng, 5)
    b = random_probability(rng, 5)
    exact = monotone_plan(a, b).cost
    costs = []
    for eps in (1.0, 0.3, 0.1, 0.03):
        kern = build_kernel(5, eps)
        config = SinkhornConfig(eps, max_iterations=20000, stop_tolerance=1e-13, log_domain=True)
        plan, _, _ = sinkhorn(a, b, kern, config)
        costs.append(transport_cost(plan))
    assert all(c1 >= c2 - 1e-12 for c1, c2 in zip(costs, costs[1:]))
    assert costs[-1] == pytest.approx(exact, abs=1e-3)


def test_empty_input_rejected():
    kern = build_kernel(3, 1.0)
    with pytest.raises(EmptyScanlineError):
        sinkhorn(np.zeros(3), np.ones(3) / 3, kern, SinkhornConfig(1.0))


def test_config_epsilon_must_match_kernel():
    kern = build_kernel(3, 1.0)
    with pytest.raises(ValueError):
        sinkhorn(np.ones(3) / 3, np.ones(3) / 3, kern, SinkhornConfig(0.5))


def test_config_validation():
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=1.0, max_iterations=0)
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=1.0, stop_tolerance=-1.0)
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=1.0, anneal=True)


def test_project_rows_scales_each_row():
    gamma = np.full((2, 2), 0.25)
    out = project_rows(gamma, np.array([0.1, 0.9]))
    assert np.allclose(out.row_marginal, [0.1, 0.9], atol=1e-15)
    assert np.allclose(out.entries, [[0.05, 0.05], [0.45, 0.45]], atol=1e-15)


def test_project_cols_mirror():
    gamma = np.full((2, 2), 0.25)
    out = project_cols(gamma, np.array([0.8, 0.2]))
    assert np.allclose(out.col_marginal, [0.8, 0.2], atol=1e-15)


def test_project_zero_target_zeroes_row():
    gamma = np.array([[0.5, 0.0], [0.25, 0.25]])
    out = project_rows(gamma, np.array([0.0, 1.0]))
    assert np.all(out.entries[0] == 0.0)
    assert out.row_marginal[1] == pytest.approx(1.0)


def test_project_infeasible_raises():
    gamma = np.array([[0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(InfeasibleProjectionError):
        project_rows(gamma, np.array([0.5, 0.5]))
    with pytest.raises(InfeasibleProjectionError):
        project_cols(np.array([[0.0, 0.5], [0.0, 0.5]]), np.array([0.5, 0.5]))


def test_projections_idempotent():
    rng = np.random.default_rng(41)
    gamma = rng.uniform(0.0, 1.0, size=(5, 5))
    mu = random_probability(rng, 5)
    once = project_rows(gamma, mu)
    twice = project_rows(once, mu)
    assert np.allclose(once.entries, twice.entries, atol=1e-15)


def test_kl_divergence_values():
    identical = np.diag([0.5, 0.5])
    assert kl_divergence(identical, identical) == 0.0
    uniform = np.full((2, 2), 0.25)
    assert kl_divergence(identical, uniform) == pytest.approx(math.log(2.0), rel=1e-12)
    support_violation = np.array([[0.5, 0.5], [0.0, 0.0]])
    reference = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert kl_divergence(support_violation, reference) == float("inf")


def test_regularized_cost_single_atom():
    gamma = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert regularized_cost(gamma, 1.0) == pytest.approx(-1.0, rel=1e-15)


def test_regularized_cost_kl_identity():
    rng = np.random.default_rng(13)
    for eps in (0.5, 1.0, 2.0):
        kern = build_kernel(4, eps)
        gamma = rng.uniform(0.0, 1.0, size=(4, 4))
        gamma[rng.uniform(size=(4, 4)) < 0.3] = 0.0
        gamma /= gamma.sum()
        lhs = eps * (kl_divergence(gamma, kern.entries) - gamma.sum())
        assert lhs == pytest.approx(regularized_cost(gamma, eps), rel=1e-10)


def test_transport_plan_marginals_consistent():
    entries = np.array([[0.1, 0.2], [0.3, 0.4]])
    plan = TransportPlan(entries)
    assert np.allclose(plan.row_marginal, entries.sum(axis=1), atol=1e-16)
    assert np.allclose(plan.col_marginal, entries.sum(axis=0), atol=1e-16)
    assert plan.mass == pytest.approx(1.0)
