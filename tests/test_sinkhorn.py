import itertools

import numpy as np
import pytest

import otstereo.scaling as scaling_module
from otstereo.errors import (
    DimensionMismatchError,
    EmptyScanlineError,
    InfeasibleProjectionError,
)
from otstereo.disparity import disparity_profile
from otstereo.reference import (
    brute_force_plan,
    exact_cost,
    kernel_entries,
    plan_from_scalings,
    project_cols,
    project_rows,
    transport_cost,
)
from otstereo.scaling import (
    SinkhornConfig,
    build_kernel,
    iteration_trace,
    monotone_plan,
    monotone_potentials,
    shifted_sinkhorn,
    sinkhorn,
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
    assert np.allclose(plan.sum(axis=1), a, atol=1e-15)
    # first odd iterate is the row projection of the kernel
    expected = project_rows(kernel_entries(kern), a)
    assert np.allclose(plan, expected, atol=1e-15)


def test_odd_plan_keeps_row_marginal_every_budget():
    rng = np.random.default_rng(5)
    kern = build_kernel(6, 1.5)
    a = random_probability(rng, 6, zeros=1)
    b = random_probability(rng, 6, zeros=2)
    for iters in (1, 2, 7, 40):
        plan, _, report = sinkhorn(a, b, kern, SinkhornConfig(1.5, max_iterations=iters))
        assert np.allclose(plan.sum(axis=1), a, atol=1e-13)
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


def test_warm_started_solve_matches_long_fixed_epsilon_solve():
    rng = np.random.default_rng(29)
    for _ in range(5):
        d = int(rng.integers(5, 13))
        eps = float(rng.uniform(0.3, 1.0))
        kern = build_kernel(d, eps)
        a = random_probability(rng, d, zeros=int(rng.integers(0, 3)))
        b = random_probability(rng, d, zeros=int(rng.integers(0, 3)))
        fixed = SinkhornConfig(eps, max_iterations=200000, stop_tolerance=1e-13)
        warm = SinkhornConfig(eps, max_iterations=200000, stop_tolerance=1e-10,
                              warm_start=True)
        reference, _, _ = sinkhorn(a, b, kern, fixed)
        plan, _, report = sinkhorn(a, b, kern, warm)
        assert report.stop_reason == "converged"
        assert report.marginal_violation <= 1e-10
        assert np.abs(plan - reference).max() < 1e-8


def test_warm_start_iterations_count_toward_the_budget():
    rng = np.random.default_rng(3)
    kern = build_kernel(8, 0.5)
    a = random_probability(rng, 8)
    b = random_probability(rng, 8)
    config = SinkhornConfig(0.5, max_iterations=30, stop_tolerance=1e-6, warm_start=True)
    plan, _, report = sinkhorn(a, b, kern, config)
    # at epsilon 0.5 the entropic potentials of this pair lie far from
    # the exact ones: the warm-started solve needs about 200 iterations
    assert report.stop_reason == "max-iterations"
    assert report.iterations == len(report.hilbert_u) == 30
    assert np.allclose(plan.sum(axis=1), a, atol=1e-13)


def test_unequal_masses_never_report_convergence():
    rng = np.random.default_rng(31)
    kern = build_kernel(6, 1.0)
    a = 0.8 * random_probability(rng, 6)
    b = random_probability(rng, 6)
    for warm_start in (False, True):
        config = SinkhornConfig(1.0, max_iterations=2000, stop_tolerance=1e-3,
                                warm_start=warm_start)
        _, _, report = sinkhorn(a, b, kern, config)
        assert report.stop_reason == "max-iterations"
        assert report.iterations == 2000
        assert report.marginal_violation > 1e-3


@pytest.mark.parametrize("mass, stop_reason", [(1.0, "converged"), (1.3, "max-iterations")])
def test_iteration_trace_ends_at_the_endpoint_of_sinkhorn(mass, stop_reason):
    rng = np.random.default_rng(23)
    a = mass * random_probability(rng, 12, zeros=2)
    b = random_probability(rng, 12, zeros=1)
    kern = build_kernel(12, 4.0)
    config = SinkhornConfig(4.0, max_iterations=400, stop_tolerance=1e-9)
    records, plan, report = iteration_trace(a, b, kern, config)
    expected_plan, _, expected_report = sinkhorn(a, b, kern, config)
    assert report.stop_reason == stop_reason
    assert np.array_equal(plan, expected_plan)
    assert report == expected_report
    assert [r.iteration for r in records] == list(range(1, report.iterations + 1))
    assert records[-1].u_error == 0.0
    assert records[-1].profile_error < 1e-12


def test_plain_and_log_domains_agree():
    rng = np.random.default_rng(17)
    kern = build_kernel(7, 1.0)
    a = random_probability(rng, 7, zeros=1)
    b = random_probability(rng, 7, zeros=1)
    plan, vectors, _ = sinkhorn(a, b, kern, SinkhornConfig(1.0, max_iterations=60))
    # reference: raw scalings on the dense kernel, started like the
    # solver with v = 1 on the target's support
    K = kernel_entries(kern)
    v = (b > 0.0).astype(float)
    for _ in range(60):
        u = a / (K @ v)
        reference = u[:, None] * K * v[None, :]
        v = b / (K.T @ u)
    assert np.allclose(plan, reference, atol=1e-10)
    # the log scalings reconstruct the returned plan
    assert np.allclose(plan_from_scalings(vectors, kern), plan, atol=1e-13)


def test_a_small_epsilon_solve_stays_finite():
    rng = np.random.default_rng(21)
    kern = build_kernel(5, 0.05)
    a = random_probability(rng, 5)
    b = random_probability(rng, 5)
    plan, _, _ = sinkhorn(a, b, kern, SinkhornConfig(0.05, max_iterations=50))
    assert np.all(np.isfinite(plan))


def test_far_apart_supports_solve_where_the_kernel_underflows():
    # exp(-23**2 / 0.1) is zero in double precision; the solve never
    # builds the dense kernel, so it neither warns nor fails
    kern = build_kernel(24, 0.1)
    a = np.zeros(24)
    b = np.zeros(24)
    a[0] = 1.0
    b[23] = 1.0
    plan, _, _ = sinkhorn(a, b, kern, SinkhornConfig(0.1, max_iterations=5))
    assert plan[0, 23] == pytest.approx(1.0, rel=1e-12)


def box(d, lo, hi, level):
    row = np.zeros(d)
    row[lo:hi] = level
    return row


# (nu0, nu1, epsilon, warm_start): the four kinds of solve the pipeline runs
HOT_LOOP_CASES = {
    # README row: balanced, warm-started at epsilon 0.1
    "warm-balanced": (box(120, 20, 46, 0.5) + box(120, 47, 87, 0.6),
                          box(120, 29, 55, 0.5) + box(120, 51, 91, 0.6), 0.1, True),
    # mirror row: unequal masses, fixed epsilon
    "fixed-unequal": (box(60, 10, 30, 0.05), box(60, 14, 30, 0.06), 0.1, False),
    # peel-loop sub-solve: source-heavy pair against a probability target
    "source-heavy": (box(60, 10, 40, 1.3 / 30), box(60, 15, 35, 1 / 20), 0.1, True),
    # far-apart supports: every kernel entry between them underflows
    "far-apart": (box(44, 0, 3, 1 / 3), box(44, 40, 43, 1 / 3), 0.1, False),
}


@pytest.mark.parametrize("case", sorted(HOT_LOOP_CASES))
def test_scaling_iteration_never_underflows(case):
    # exp below about -708 leaves numpy's fast path, so a loop that
    # never underflows is a loop that stays on it
    a, b, eps, warm_start = HOT_LOOP_CASES[case]
    config = SinkhornConfig(eps, warm_start=warm_start)
    _, _, steps = scaling_module._prepare(a, b, build_kernel(a.size, eps), config)
    with np.errstate(under="raise"):
        for step in itertools.islice(steps, 1500):
            assert np.all(np.isfinite(step.u)) and np.all(np.isfinite(step.v_raw))


def _lse(x, axis):
    shift = x.max(axis=axis, keepdims=True)
    return (shift + np.log(np.exp(x - shift).sum(axis=axis, keepdims=True))).squeeze(axis)


def log_domain_solve(a, b, eps, max_iterations, stop_tolerance, warm_start, limit):
    """The scaling iteration on logarithms, one log-sum-exp per half-step.

    Returns (iterations, stop_reason, odd, even, u, v) with the plans
    and the log scalings at full width, as the solver reports them.
    """
    d = a.size
    s0 = np.flatnonzero(a > 0.0)
    s1 = np.flatnonzero(b > 0.0)
    la, lb = np.log(a[s0]), np.log(b[s1])
    cost = (s0[:, None] - s1[None, :]).astype(float) ** 2
    drift = np.log(a.sum()) - np.log(b.sum())
    lv = np.zeros(s1.size)
    if warm_start:
        _, g = monotone_potentials(cost, a[s0] / a.sum(), b[s1] / b.sum())
        lv = g / eps
    block = -cost / eps
    iterations = 0
    reason = None
    while not reason:
        lu = la - _lse(block + lv[None, :], axis=1)
        lv_prev = lv
        lv_raw = lb - _lse(block + lu[:, None], axis=0)
        lv = lv_raw + drift
        iterations += 1
        col = np.exp(lb + lv_prev - lv_raw)
        if stop_tolerance and np.abs(col - limit[s1]).max() <= stop_tolerance:
            reason = "converged"
        elif iterations >= max_iterations:
            reason = "max-iterations"
    odd, even = np.zeros((d, d)), np.zeros((d, d))
    odd[np.ix_(s0, s1)] = np.exp(lu[:, None] + block + lv_prev[None, :])
    even[np.ix_(s0, s1)] = np.exp(lu[:, None] + block + lv_raw[None, :])
    u, v = np.full(d, -np.inf), np.full(d, -np.inf)
    u[s0], v[s1] = lu, lv_prev
    return iterations, reason, odd, even, u, v


# (nu0, nu1, epsilon, warm_start, max_iterations, stop_tolerance)
AGREEMENT_CASES = {
    "warm": (box(40, 5, 15, 0.1) + box(40, 16, 26, 0.15),
                 box(40, 9, 19, 0.1) + box(40, 18, 28, 0.15), 0.1, True, 3000, 1e-6),
    "fixed": (box(12, 1, 6, 0.2), box(12, 3, 9, 1 / 6), 0.5, False, 3000, 1e-11),
    # every target column sits far from the source: the first v
    # half-steps run on logarithms
    "log-fallback": (box(44, 0, 3, 1 / 3), box(44, 40, 43, 1 / 3), 0.1, False, 200, 1e-9),
    # the potentials move by hundreds in the first iterations and
    # leave the absorbed kernel's range
    "re-absorbed": (box(30, 2, 8, 1 / 6), box(30, 6, 12, 1 / 6), 0.1, False, 200, 1e-9),
    # a source mass of 1e-300 sits below the absorbed kernel's floor,
    # so its row sums are too small to trust and every u half-step
    # runs on logarithms
    "tiny-mass": (box(12, 0, 1, 1e-300) + box(12, 1, 6, 0.2), box(12, 3, 9, 1 / 6), 0.1,
                  False, 200, 1e-9),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_absorbed_iteration_matches_the_log_domain_iteration(case, monkeypatch):
    a, b, eps, warm_start, budget, tol = AGREEMENT_CASES[case]
    calls = {0: 0, 1: 0}
    lse = scaling_module._lse

    def counted(matrix, axis):
        calls[axis] += 1
        return lse(matrix, axis)

    monkeypatch.setattr(scaling_module, "_lse", counted)
    kern = build_kernel(a.size, eps)
    config = SinkhornConfig(eps, max_iterations=budget, stop_tolerance=tol,
                            warm_start=warm_start)
    for scale in (1.0, 1.25):
        nu0, nu1 = scale * a / a.sum(), b / b.sum()
        iterations, reason, odd, even, u, v = log_domain_solve(
            nu0, nu1, eps, budget, tol, warm_start, scale * nu1)
        if scale > 1.0:
            limits = shifted_sinkhorn(nu0, nu1, kern, config)
            report = limits.report
            np.testing.assert_allclose(limits.even, even, rtol=1e-10, atol=1e-300)
            np.testing.assert_allclose(limits.odd, odd, rtol=1e-10, atol=1e-300)
        else:
            plan, vectors, report = sinkhorn(nu0, nu1, kern, config)
            np.testing.assert_allclose(plan, odd, rtol=1e-10, atol=1e-300)
            np.testing.assert_allclose(vectors.u, u, rtol=1e-10)
            np.testing.assert_allclose(vectors.v, v, rtol=1e-10)
        assert (report.iterations, report.stop_reason) == (iterations, reason)
    # the v half-step on logarithms is the only log-sum-exp over axis 0
    assert (calls[0] > 0) == (case == "log-fallback")
    if case == "re-absorbed":
        # each absorption takes one u half-step on logarithms; each of
        # the two fixed-epsilon solves absorbs once at its start
        assert calls[1] > 2


def test_entropic_plan_approaches_exact_cost():
    a = np.array([0.5, 0.5, 0.0])
    b = np.array([0.0, 0.5, 0.5])
    exact = monotone_plan(a, b)
    kern = build_kernel(3, 0.01)
    config = SinkhornConfig(0.01, max_iterations=5000, stop_tolerance=1e-13)
    plan, _, _ = sinkhorn(a, b, kern, config)
    assert np.abs(plan - exact).max() < 1e-3
    assert transport_cost(plan) == pytest.approx(transport_cost(exact), abs=1e-3)


def test_cost_decreases_as_blur_shrinks():
    rng = np.random.default_rng(33)
    a = random_probability(rng, 5)
    b = random_probability(rng, 5)
    exact = exact_cost(a, b)
    costs = []
    for eps in (1.0, 0.3, 0.1, 0.03):
        kern = build_kernel(5, eps)
        config = SinkhornConfig(eps, max_iterations=20000, stop_tolerance=1e-13)
        plan, _, _ = sinkhorn(a, b, kern, config)
        costs.append(transport_cost(plan))
    assert all(c1 >= c2 - 1e-12 for c1, c2 in zip(costs, costs[1:]))
    assert costs[-1] == pytest.approx(exact, abs=1e-3)


def test_empty_input_rejected():
    kern = build_kernel(3, 1.0)
    with pytest.raises(EmptyScanlineError):
        sinkhorn(np.zeros(3), np.ones(3) / 3, kern, SinkhornConfig(1.0))


def test_measure_of_the_wrong_length_rejected():
    kern = build_kernel(3, 1.0)
    with pytest.raises(DimensionMismatchError) as error:
        sinkhorn(np.ones(2) / 2, np.ones(3) / 3, kern, SinkhornConfig(1.0))
    assert str(error.value) == "measures of length (2,) and (3,) against a kernel of width 3"


def test_negative_entry_rejected():
    kern = build_kernel(3, 1.0)
    with pytest.raises(ValueError) as error:
        sinkhorn(np.array([0.6, -0.1, 0.5]), np.ones(3) / 3, kern, SinkhornConfig(1.0))
    assert str(error.value) == "measures must be nonnegative"


def test_config_epsilon_must_match_kernel():
    kern = build_kernel(3, 1.0)
    with pytest.raises(ValueError):
        sinkhorn(np.ones(3) / 3, np.ones(3) / 3, kern, SinkhornConfig(0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_measures_rejected(bad):
    kern = build_kernel(3, 1.0)
    good = np.array([0.5, 0.0, 0.5])
    broken = np.array([0.5, bad, 0.5])
    for nu0, nu1 in ((broken, good), (good, broken)):
        with pytest.raises(ValueError, match="finite"):
            sinkhorn(nu0, nu1, kern, SinkhornConfig(1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=1.0, max_iterations=0)
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=1.0, stop_tolerance=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            SinkhornConfig(epsilon=bad)
        with pytest.raises(ValueError, match="stop_tolerance must be nonnegative and finite"):
            SinkhornConfig(epsilon=1.0, stop_tolerance=bad)


def test_project_rows_scales_each_row():
    gamma = np.full((2, 2), 0.25)
    out = project_rows(gamma, np.array([0.1, 0.9]))
    assert np.allclose(out.sum(axis=1), [0.1, 0.9], atol=1e-15)
    assert np.allclose(out, [[0.05, 0.05], [0.45, 0.45]], atol=1e-15)


def test_project_cols_mirror():
    gamma = np.full((2, 2), 0.25)
    out = project_cols(gamma, np.array([0.8, 0.2]))
    assert np.allclose(out.sum(axis=0), [0.8, 0.2], atol=1e-15)


def test_project_zero_target_zeroes_row():
    gamma = np.array([[0.5, 0.0], [0.25, 0.25]])
    out = project_rows(gamma, np.array([0.0, 1.0]))
    assert np.all(out[0] == 0.0)
    assert out.sum(axis=1)[1] == pytest.approx(1.0)


def test_project_infeasible_raises():
    gamma = np.array([[0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(InfeasibleProjectionError):
        project_rows(gamma, np.array([0.5, 0.5]))
    with pytest.raises(InfeasibleProjectionError):
        project_cols(np.array([[0.0, 0.5], [0.0, 0.5]]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("project", [project_rows, project_cols])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_project_rejects_malformed_marginals(project, bad):
    gamma = np.full((2, 2), 0.25)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        project(gamma, np.array([bad, 0.5]))


def test_project_rejects_a_marginal_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError) as error:
        project_rows(np.full((2, 2), 0.25), np.ones(3) / 3)
    assert str(error.value) == "plan with 2 rows against a marginal of length 3"


def test_projections_idempotent():
    rng = np.random.default_rng(41)
    gamma = rng.uniform(0.0, 1.0, size=(5, 5))
    mu = random_probability(rng, 5)
    once = project_rows(gamma, mu)
    twice = project_rows(once, mu)
    assert np.allclose(once, twice, atol=1e-15)


def test_transport_cost_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            transport_cost(np.array([[0.5, bad]]))


def test_plans_are_float64_arrays():
    a = np.array([0.0, 0.6, 0.4])
    b = np.array([0.3, 0.7, 0.0])
    kern = build_kernel(3, 1.0)
    config = SinkhornConfig(1.0, max_iterations=5)
    limits = shifted_sinkhorn(1.5 * a, b, kern, config)
    rows = [[1, 2, 3], [4, 5, 6]]
    plans = {
        "sinkhorn": (sinkhorn(a, b, kern, config)[0], (3, 3)),
        "shifted even": (limits.even, (3, 3)),
        "shifted odd": (limits.odd, (3, 3)),
        "iteration_trace": (iteration_trace(a, b, kern, config)[1], (3, 3)),
        "monotone_plan": (monotone_plan(a, [0.5, 0.5]), (3, 2)),
        "brute_force_plan": (brute_force_plan([0.5, 0.5], [0.25, 0.25, 0.5], 4)[0], (2, 3)),
        "project_rows": (project_rows(rows, [0.5, 0.5]), (2, 3)),
        "project_cols": (project_cols(rows, [0.2, 0.3, 0.5]), (2, 3)),
    }
    for name, (plan, shape) in plans.items():
        assert type(plan) is np.ndarray, name
        assert plan.dtype == np.float64, name
        assert plan.shape == shape, name
    # the readers take any nested sequence a plan array can be made of
    plan = [[0.0, 0.5], [0.5, 0.0]]
    assert np.array_equal(disparity_profile(plan), [1.0, -1.0])
    assert transport_cost(plan) == 1.0
