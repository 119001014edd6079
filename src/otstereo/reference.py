"""Reference statements of the paper's claims, for tests and readers.

No command and no pipeline module imports this module. It holds what
the acceptance criteria check the pipeline against: the exact cost
and an exhaustive search backing the optimality of the monotone
staircase, the dense Gibbs kernel and the Hilbert distance it
contracts in, the projections onto one marginal, and the mass
quotient phi read off the compression plateau 1 - 1/phi.
"""
from __future__ import annotations

import warnings

import numpy as np

from .disparity import _plateau_value
from .errors import (
    DimensionMismatchError,
    InfeasibleProjectionError,
    InstanceTooLargeError,
    NoPlateauError,
    QuantizationError,
    SupportMismatchError,
)
from .scaling import GibbsKernel, ScalingVectors, _check_equal_masses, _check_inputs, monotone_plan

BRUTE_FORCE_LIMIT = 4


def transport_cost(gamma) -> float:
    """Quadratic transport cost sum gamma_ij * (i - j)^2; entries must be finite."""
    entries = np.asarray(gamma, dtype=float)
    if not np.isfinite(entries).all():
        raise ValueError("plan entries must be finite")
    n, m = entries.shape
    diff = np.arange(n, dtype=float)[:, None] - np.arange(m, dtype=float)[None, :]
    return float(np.sum(entries * diff * diff))


def exact_cost(nu0, nu1) -> float:
    """Cost of the optimal plan between two rows; rejects what monotone_plan rejects."""
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
    The checks run in this order: the rows the scaling solves reject
    (_check_inputs); widths above 4 columns, since enumeration cost
    grows fast; grid_steps below 1; then unequal masses, as
    monotone_plan rejects them. Returns (plan, cost): the (n, m)
    float64 plan array and its cost, accumulated in integer grid units
    and scaled once, which makes comparisons against exact_cost exact.
    """
    a, b, m0, m1 = _check_inputs(nu0, nu1)
    if a.shape[0] > BRUTE_FORCE_LIMIT or b.shape[0] > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"exhaustive search is limited to {BRUTE_FORCE_LIMIT} columns"
        )
    if grid_steps < 1:
        raise ValueError("grid_steps must be a positive integer")
    _check_equal_masses(m0, m1)
    unit = m0 / grid_steps
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


def log_kernel(kernel: GibbsKernel) -> np.ndarray:
    """The dense d x d logarithms -(i-j)^2 / epsilon, free of underflow."""
    idx = np.arange(kernel.d, dtype=float)
    diff = idx[:, None] - idx[None, :]
    return -(diff * diff) / kernel.epsilon


def kernel_entries(kernel: GibbsKernel) -> np.ndarray:
    """The dense d x d kernel exp(-(i-j)^2 / epsilon).

    Emits a RuntimeWarning when off-diagonal entries underflow to
    zero in double precision.
    """
    entries = np.exp(log_kernel(kernel))
    if np.any(entries == 0.0):
        warnings.warn(
            f"kernel entries underflow for epsilon={kernel.epsilon} at width {kernel.d}; "
            "log_kernel holds their exact logarithms",
            RuntimeWarning,
            stacklevel=2,
        )
    return entries


def plan_from_scalings(vectors: ScalingVectors, kernel: GibbsKernel) -> np.ndarray:
    """The plan diag(e^u) K diag(e^v) of log scalings against the dense kernel."""
    with np.errstate(invalid="ignore"):
        exponent = vectors.u[:, None] + log_kernel(kernel) + vectors.v[None, :]
    # -inf + -inf stays -inf; nan can only come from inf - inf
    exponent = np.where(np.isnan(exponent), -np.inf, exponent)
    return np.exp(exponent)


def hilbert_distance(u, v) -> float:
    """Hilbert projective distance between two nonnegative vectors.

    Equals the variation norm (max minus min) of log(u) - log(v) over
    the shared positive support, so it is invariant under rescaling
    either argument. Coordinates where both vectors vanish are
    ignored; a zero in exactly one vector has infinite projective
    distance and raises SupportMismatchError. Negative or non-finite
    entries are a ValueError.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatchError(f"incompatible shapes {u.shape} and {v.shape}")
    if not all(np.all(np.isfinite(w) & (w >= 0.0)) for w in (u, v)):
        raise ValueError("vectors must be finite and nonnegative")
    pos_u = u > 0.0
    pos_v = v > 0.0
    if np.any(pos_u != pos_v):
        raise SupportMismatchError("vectors carry mass on different supports")
    if not np.any(pos_u):
        return 0.0
    ratio = np.log(u[pos_u]) - np.log(v[pos_v])
    return float(ratio.max() - ratio.min())


def _project(gamma, marginal, axis: int) -> np.ndarray:
    """Scale the plan along axis (0: rows, 1: columns) to the marginal."""
    entries = np.asarray(gamma, dtype=float)
    target = np.asarray(marginal, dtype=float)
    lines = ("rows", "columns")[axis]
    if entries.shape[axis] != target.shape[0]:
        raise DimensionMismatchError(
            f"plan with {entries.shape[axis]} {lines} against a marginal of length {target.shape[0]}"
        )
    if not np.isfinite(target).all() or np.any(target < 0.0):
        raise ValueError("marginal entries must be finite and nonnegative")
    sums = entries.sum(axis=1 - axis)
    bad = (target > 0.0) & (sums == 0.0)
    if np.any(bad):
        raise InfeasibleProjectionError(
            f"{lines} {np.flatnonzero(bad).tolist()} have no mass to carry the requested marginal"
        )
    scale = np.zeros_like(target)
    positive = sums > 0.0
    scale[positive] = target[positive] / sums[positive]
    return entries * np.expand_dims(scale, 1 - axis)


def project_rows(gamma, mu) -> np.ndarray:
    """Scale each row of a plan to match the row marginal mu.

    This is the Kullback-Leibler projection onto the set of plans
    with row sums mu. Rows where mu vanishes are zeroed; a positive
    mu entry on a row without mass is infeasible, and a negative or
    non-finite one is a ValueError.
    """
    return _project(gamma, mu, 0)


def project_cols(gamma, nu) -> np.ndarray:
    """Column mirror of project_rows."""
    return _project(gamma, nu, 1)


def estimate_phi(delta) -> float:
    """Mass quotient from the repeated adjacent disparity increment.

    A source compressed by a quotient phi < 1 produces increments
    that repeat only at the value 1 - 1/phi, so phi = 1/(1 - v) for
    the modal repeated value v. Raises NoPlateauError when no
    adjacent increments repeat; callers can fall back to the measured
    mass quotient.
    """
    delta = np.asarray(delta, dtype=float)
    value = _plateau_value(delta)
    if value >= 1.0:
        raise NoPlateauError(f"plateau value {value} admits no positive quotient")
    return 1.0 / (1.0 - value)
