import numpy as np
import pytest

from otstereo.errors import InstanceTooLargeError, MassMismatchError, QuantizationError
from otstereo.reference import brute_force_plan, exact_cost, transport_cost
from otstereo.scaling import monotone_cells, monotone_plan, monotone_potentials


def test_monotone_shift_instance():
    plan = monotone_plan([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
    expected = np.zeros((3, 3))
    expected[0, 1] = 0.5
    expected[1, 2] = 0.5
    assert np.array_equal(plan, expected)
    assert transport_cost(plan) == pytest.approx(1.0, abs=1e-15)


def test_monotone_identity_for_equal_measures():
    nu = [0.2, 0.0, 0.5, 0.3]
    plan = monotone_plan(nu, nu)
    assert np.array_equal(plan, np.diag(nu))
    assert transport_cost(plan) == 0.0


def test_monotone_tie_advances_both_pointers():
    plan = monotone_plan([0.5, 0.5], [0.5, 0.5])
    assert np.array_equal(plan, np.diag([0.5, 0.5]))


def test_monotone_requires_equal_mass():
    with pytest.raises(MassMismatchError):
        monotone_plan([1.0, 0.0], [0.5, 0.0])


def test_monotone_marginals_match_inputs():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.uniform(0.0, 1.0, size=7)
        b = rng.uniform(0.0, 1.0, size=7)
        b *= a.sum() / b.sum()
        plan = monotone_plan(a, b)
        assert np.allclose(plan.sum(axis=1), a, atol=1e-12)
        assert np.allclose(plan.sum(axis=0), b, atol=1e-12)


def test_monotone_plans_never_cross():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.integers(0, 5, size=6) / 8.0
        b = rng.permutation(a)
        if a.sum() == 0.0:
            continue
        plan = monotone_plan(a, b)
        rows, cols = np.nonzero(plan)
        for p in range(len(rows)):
            for q in range(len(rows)):
                if rows[p] < rows[q]:
                    assert cols[p] <= cols[q]


def test_brute_force_matches_monotone_cost_exactly():
    # masses on a power-of-two grid keep every float operation exact
    rng = np.random.default_rng(0)
    grid = 8
    for _ in range(30):
        a = rng.multinomial(grid, np.full(3, 1 / 3)) / grid
        b = rng.multinomial(grid, np.full(3, 1 / 3)) / grid
        _, exhaustive_cost = brute_force_plan(a, b, grid_steps=grid)
        assert exact_cost(a, b) == exhaustive_cost


def test_brute_force_rejects_large_instances():
    with pytest.raises(InstanceTooLargeError):
        brute_force_plan([0.2] * 5, [0.2] * 5, grid_steps=5)


def test_brute_force_rejects_off_grid_masses():
    with pytest.raises(QuantizationError):
        brute_force_plan([0.3, 0.7], [0.5, 0.5], grid_steps=4)


def test_exact_cost_quadratic_in_shift():
    base = np.array([0.0, 1.0, 0.0, 0.0])
    for shift in (1, 2):
        target = np.roll(base, shift)
        assert exact_cost(base, target) == pytest.approx(float(shift**2))


def boxes(d, spans):
    row = np.zeros(d)
    for lo, hi, level in spans:
        row[lo:hi] = level
    return row


def potential_cases():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 25))
        a = rng.uniform(0.1, 1.0, d) * (rng.uniform(size=d) < 0.7)
        b = rng.uniform(0.1, 1.0, d) * (rng.uniform(size=d) < 0.7)
        a[rng.integers(d)] = b[rng.integers(d)] = 0.5
        yield a, b
    # equal-mass objects: the staircase breaks into one block per object
    yield (boxes(60, [(5, 15, 0.3), (16, 36, 0.7), (40, 45, 0.2)]),
           boxes(60, [(9, 19, 0.3), (21, 41, 0.7), (42, 47, 0.2)]))
    # single-point supports, alone and against a spread measure
    yield boxes(9, [(2, 3, 1.0)]), boxes(9, [(7, 8, 1.0)])
    yield boxes(9, [(4, 5, 1.0)]), boxes(9, [(0, 9, 1.0)])
    # 0.1 + 0.2 != 0.3 in floating point, so the block break at 0.3
    # is only equal up to rounding
    yield np.array([0.1, 0.2, 0.7, 0.0]), np.array([0.0, 0.3, 0.3, 0.4])
    # a last point lighter than the block tolerance: the walk ends
    # before it, and its potential is the c-transform of the others
    yield np.array([1.0, 1e-13, 0.0]), np.array([0.0, 0.0, 1.0])


POTENTIAL_CASES = list(potential_cases())


@pytest.mark.parametrize("case", range(len(POTENTIAL_CASES)))
def test_potentials_certify_the_monotone_plan(case):
    a, b = POTENTIAL_CASES[case]
    a, b = a / a.sum(), b / b.sum()
    s0, s1 = np.flatnonzero(a), np.flatnonzero(b)
    cost = (s0[:, None] - s1[None, :]).astype(float) ** 2
    f, g = monotone_potentials(cost, a[s0], b[s1])
    plan = monotone_plan(a, b)
    slack = cost - f[:, None] - g[None, :]
    scale = cost.max() + 1.0
    # tight on the plan's support, feasible everywhere
    assert np.abs(slack[plan[np.ix_(s0, s1)] > 0.0]).max() <= 1e-12 * scale
    assert slack.min() >= -1e-12 * scale
    assert a[s0] @ f + b[s1] @ g == pytest.approx(
        transport_cost(plan), rel=1e-12, abs=1e-12 * scale
    )


def test_block_break_drops_the_rounding_residue():
    a = np.array([0.1, 0.2, 0.7, 0.0])
    b = np.array([0.0, 0.3, 0.3, 0.4])
    cells = [(i, j, starts) for i, j, _, starts in monotone_cells(a, b)]
    assert cells == [(0, 1, True), (1, 1, False), (2, 2, True), (2, 3, False)]
