"""Exact minimizers of the quadratic scanline transport.

For a convex cost on the line the optimal plan never lets transport
rays cross, so the greedy northwest-corner sweep is optimal. A tiny
exhaustive search over quantized plans backs that claim up in tests
and pins down entropic solver accuracy.
"""
from __future__ import annotations

import numpy as np

from .errors import InstanceTooLargeError, MassMismatchError, QuantizationError
from .scaling import monotone_cells, transport_cost

BRUTE_FORCE_LIMIT = 4
MASS_EQUALITY_RTOL = 1e-10


def _check_equal_masses(a: np.ndarray, b: np.ndarray):
    ma = float(a.sum())
    mb = float(b.sum())
    if ma <= 0.0 or mb <= 0.0:
        raise MassMismatchError("both measures must carry positive mass")
    if abs(ma - mb) > MASS_EQUALITY_RTOL * max(ma, mb):
        raise MassMismatchError(f"masses differ: {ma} vs {mb}")
    return ma


def monotone_plan(nu0, nu1) -> np.ndarray:
    """Optimal plan by the greedy monotone sweep (monotone_cells).

    Returns the (n, m) float64 plan array. Its positive entries never
    cross, which is the optimality certificate for the quadratic cost.
    """
    a = np.asarray(nu0, dtype=float)
    b = np.asarray(nu1, dtype=float)
    _check_equal_masses(a, b)
    plan = np.zeros((a.shape[0], b.shape[0]))
    for i, j, move, _ in monotone_cells(a, b):
        plan[i, j] = move
    return plan


def exact_cost(nu0, nu1) -> float:
    """Cost of the optimal plan between two equal-mass measures."""
    return transport_cost(monotone_plan(nu0, nu1))


def _quantize(values: np.ndarray, unit: float, grid_steps: int) -> np.ndarray:
    counts = np.rint(values / unit).astype(int)
    if np.any(np.abs(counts * unit - values) > 1e-9 * max(1.0, float(values.sum()))):
        raise QuantizationError(
            f"measure entries are not multiples of mass/{grid_steps}"
        )
    return counts


def _tables(row_counts, col_remaining, row_index, table, out):
    """Recursively enumerate integer tables with the given margins."""
    n = len(row_counts)
    if row_index == n:
        out.append([row.copy() for row in table])
        return
    need = row_counts[row_index]
    m = len(col_remaining)

    def fill(col, left):
        if col == m - 1:
            if left <= col_remaining[col]:
                table[row_index][col] = left
                col_remaining[col] -= left
                _tables(row_counts, col_remaining, row_index + 1, table, out)
                col_remaining[col] += left
                table[row_index][col] = 0
            return
        top = min(left, col_remaining[col])
        for take in range(top + 1):
            table[row_index][col] = take
            col_remaining[col] -= take
            fill(col + 1, left - take)
            col_remaining[col] += take
            table[row_index][col] = 0

    fill(0, need)


def brute_force_plan(nu0, nu1, grid_steps: int) -> tuple[np.ndarray, float]:
    """Exhaustive minimizer over all plans on a uniform mass grid.

    Both measures must consist of whole multiples of mass/grid_steps.
    Enumeration cost grows fast, so widths above 4 columns are
    rejected. Returns (plan, cost): the (n, m) float64 plan array and
    its cost, accumulated in integer grid units and scaled once, which
    makes comparisons against exact_cost exact.
    """
    a = np.asarray(nu0, dtype=float)
    b = np.asarray(nu1, dtype=float)
    if a.shape[0] > BRUTE_FORCE_LIMIT or b.shape[0] > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"exhaustive search is limited to {BRUTE_FORCE_LIMIT} columns"
        )
    if grid_steps < 1:
        raise ValueError("grid_steps must be a positive integer")
    total = _check_equal_masses(a, b)
    unit = total / grid_steps
    row_counts = _quantize(a, unit, grid_steps)
    col_counts = _quantize(b, unit, grid_steps)
    if row_counts.sum() != grid_steps or col_counts.sum() != grid_steps:
        raise QuantizationError("quantized masses do not add up to grid_steps units")

    n = a.shape[0]
    m = b.shape[0]
    weights = (np.arange(n)[:, None] - np.arange(m)[None, :]) ** 2
    tables: list[list[list[int]]] = []
    _tables(row_counts.tolist(), col_counts.tolist(), 0, [[0] * m for _ in range(n)], tables)

    best_units = None
    best_table = None
    for table in tables:
        cost_units = int(np.sum(np.asarray(table) * weights))
        if best_units is None or cost_units < best_units:
            best_units = cost_units
            best_table = table
    return np.asarray(best_table, dtype=float) * unit, float(best_units) * unit
