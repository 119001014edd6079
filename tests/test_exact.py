import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otstereo.errors import InstanceTooLargeError, MassMismatchError, QuantizationError
from otstereo.reference import brute_force_plan, exact_cost, transport_cost
from otstereo.scaling import BLOCK_RTOL, monotone_cells, monotone_plan, monotone_potentials


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


def test_monotone_requires_positive_mass():
    with pytest.raises(MassMismatchError) as error:
        monotone_plan([0.0, 0.0], [0.0, 0.0])
    assert str(error.value) == "both measures must carry positive mass"


def test_a_nan_entry_is_rejected_before_the_walk():
    # the walk on a NaN mass never ended, so the calls run in a child
    # interpreter whose timeout fails the test instead of hanging it
    code = """\
import numpy as np
from otstereo.disparity import DEFAULT_CONFIG, recover_occlusions
from otstereo.scaling import build_kernel, monotone_plan
row = np.array([0.0, 0.5, np.nan, 0.5, 0.0, 0.0])
for call in (lambda: monotone_plan([np.nan, 1.0], [0.5, 0.5]),
             lambda: recover_occlusions(row, np.roll(np.nan_to_num(row), 1),
                                        build_kernel(6, 0.1), DEFAULT_CONFIG)):
    try:
        call()
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
"""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "MassMismatchError: measures must be finite",
        "UnresolvedOcclusionError: measures must be finite",
    ]


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


def test_brute_force_rejects_a_grid_of_no_steps():
    with pytest.raises(ValueError) as error:
        brute_force_plan([0.5, 0.5], [0.5, 0.5], grid_steps=0)
    assert str(error.value) == "grid_steps must be a positive integer"


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
    # an integer shift of distinct masses: every pixel is its own block
    row = np.random.default_rng(8).uniform(0.1, 1.0, 30)
    yield np.r_[row, np.zeros(4)], np.r_[np.zeros(4), row]


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
    # each block's free constant is the midpoint of its range: as much
    # slack toward the earlier columns as toward the earlier rows
    i, j, _, first = monotone_cells(a[s0], b[s1])
    starts = list(zip(i[first], j[first]))
    ends = [*starts[1:], (i[-1] + 1, j[-1] + 1)]
    for (i0, j0), (i1, j1) in zip(starts[1:], ends[1:]):
        assert slack[i0:i1, :j0].min() == pytest.approx(
            slack[:i0, j0:j1].min(), abs=1e-12 * scale
        )


def test_block_break_drops_the_rounding_residue():
    a = np.array([0.1, 0.2, 0.7, 0.0])
    b = np.array([0.0, 0.3, 0.3, 0.4])
    i, j, _, starts = monotone_cells(a, b)
    cells = list(zip(i.tolist(), j.tolist(), starts.tolist()))
    assert cells == [(0, 1, True), (1, 1, False), (2, 2, True), (2, 3, False)]


# Reference forms: the staircase as a generator walk that keeps a
# block flag, and its potentials as a per-cell loop. The array forms
# in otstereo.scaling must match them bit for bit.
def reference_cells(a, b):
    tol = BLOCK_RTOL * max(float(a.sum()), float(b.sum()))
    n, m = len(a), len(b)
    i = j = 0
    left_a, left_b = float(a[0]), float(b[0])
    starts = True
    while True:
        move = min(left_a, left_b)
        if move > 0.0:
            yield i, j, move, starts
            starts = False
        left_a -= move
        left_b -= move
        done_row = left_a <= tol
        done_col = left_b <= tol
        starts = starts or (done_row and done_col)
        i += done_row
        j += done_col
        if i == n or j == m:
            return
        if done_row:
            left_a = float(a[i])
        if done_col:
            left_b = float(b[j])


def reference_potentials(cost, p, q):
    n, m = cost.shape
    f = np.empty(n)
    g = np.empty(m)
    starts = []
    i = j = -1
    for i_new, j_new, _, first in reference_cells(p, q):
        if first:
            starts.append((i_new, j_new))
            f[i_new] = 0.0
            g[j_new] = cost[i_new, j_new]
        elif i_new > i:
            f[i_new] = cost[i_new, j_new] - g[j_new]
        else:
            g[j_new] = cost[i_new, j_new] - f[i_new]
        i, j = i_new, j_new
    # blocks [i0, i1) x [j0, j1) after the first, each set after the one before
    for (i0, j0), (i1, j1) in zip(starts[1:], [*starts[2:], (i + 1, j + 1)]):
        lower = f[i0 - 1] + g[j0] - cost[i0 - 1, j0]
        upper = cost[i0, j0 - 1] - f[i0] - g[j0 - 1]
        t = 0.5 * (lower + upper)
        f[i0:i1] += t
        g[j0:j1] -= t
    f[i + 1:] = (cost[i + 1:, :] - g[None, :]).min(axis=1)
    g[j + 1:] = (cost[:, j + 1:] - f[:, None]).min(axis=0)
    return f, g


def shifted_blocks(rng, levels):
    """The same equal-mass blocks in both rows, the second shifted right."""
    width = int(rng.integers(1, 6))
    pad = int(rng.integers(0, 5))
    row = np.repeat(levels, width)
    return np.r_[row, np.zeros(pad)], np.r_[np.zeros(pad), row]


def oracle_row(rng, kind):
    d = int(rng.integers(2, 40))
    if kind == "uniform":
        a, b = rng.uniform(size=d), rng.uniform(size=d)
        return a, b * (a.sum() / b.sum())
    if kind == "k/255":
        a = rng.integers(0, 256, d) * (rng.uniform(size=d) < 0.7) / 255.0
        a[rng.integers(d)] = 1.0
        b = rng.permutation(a) if rng.uniform() < 0.5 else np.roll(a, int(rng.integers(d)))
        return a, b
    levels = rng.uniform(0.1, 1.0, int(rng.integers(2, 8)))
    if kind == "blocks":
        return shifted_blocks(rng, levels)
    # near-tie: one entry off by about 1e-13 of itself, so that later
    # block breaks meet within BLOCK_RTOL without being equal
    a, b = shifted_blocks(rng, levels)
    k = rng.choice(np.flatnonzero(a))
    a[k] *= 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e-13
    return a, b


ROW_KINDS = ["uniform", "k/255", "blocks", "near-tie"]


@pytest.mark.parametrize("kind", ROW_KINDS)
def test_array_staircase_matches_the_walk_bit_for_bit(kind):
    rng = np.random.default_rng(ROW_KINDS.index(kind))
    near_ties = 0
    for _ in range(600):
        a, b = oracle_row(rng, kind)
        cells = monotone_cells(a, b)
        walked = list(reference_cells(a, b))
        expected = [np.array([cell[k] for cell in walked]) for k in range(4)]
        for got, want in zip(cells, expected):
            assert np.array_equal(got, want)
        plan = np.zeros((len(a), len(b)))
        for i, j, move, _ in walked:
            plan[i, j] = move
        assert np.array_equal(monotone_plan(a, b), plan)
        # the pipeline's warm start: unit masses on the supports,
        # squared differences of pixel indices as the cost
        s0, s1 = np.flatnonzero(a), np.flatnonzero(b)
        p, q = a[s0] / a[s0].sum(), b[s1] / b[s1].sum()
        cost = (s0[:, None] - s1[None, :]).astype(float) ** 2
        f, g = monotone_potentials(cost, p, q)
        f_ref, g_ref = reference_potentials(cost, p, q)
        assert np.array_equal(f, f_ref) and np.array_equal(g, g_ref)
        gaps = np.abs(np.cumsum(a)[:, None] - np.cumsum(b)[None, :])
        near_ties += bool(((gaps > 0.0) & (gaps <= BLOCK_RTOL * a.sum())).any())
    if kind == "near-tie":
        assert near_ties >= 500
