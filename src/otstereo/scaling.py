"""Scaling iterations for entropic transport on one scanline.

The solver alternates diagonal scalings against the Gibbs kernel
exp(-(i - j)^2 / epsilon) of the quadratic pixel cost (GibbsKernel,
built by build_kernel). The kernel's cross ratio bounds the
contraction of that iteration in the Hilbert projective metric, which
is what the convergence diagnostics are measured against. The solver
keeps the logarithms of the scalings and absorbs them into a kernel
block, so each half-step is a matrix-vector product on bounded
numbers; it takes a log-domain half-step wherever that block would
lose precision. It therefore survives small blur values where the
kernel entries underflow. The unbalanced variant, the paper's
projection for a source heavier than its target, reads the even and
odd iterate limits, which differ exactly by the mass quotient of the
inputs. A solve can start warm, from the dual potentials of the exact
monotone matching, which on the line are read off the northwest-corner
staircase in one sweep; at small epsilon the entropic potentials lie
close to them. The same sweep fills monotone_plan, the exact matching
the occlusion loop reads shifts from. A solve stops on the marginal
violation of its odd plan, or on its iteration budget.
disparity_profile reads a plan's per-column shifts, and iteration_trace
records how a solve approaches its own endpoint. The dense kernel and
the identities the solves are checked against live in
otstereo.reference.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyScanlineError,
    MassMismatchError,
    WrongPathError,
)
from .records import Record

STOP_CONVERGED = "converged"
STOP_MAX_ITERATIONS = "max-iterations"

# Two remainders of the monotone walk that are both within this
# fraction of the total mass have run out together: the walk starts a
# new block there instead of a cell that carries only rounding error.
BLOCK_RTOL = 1e-12
# monotone_plan accepts two masses that agree to this relative gap.
MASS_EQUALITY_RTOL = 1e-10

# numpy's exp leaves its vectorized path for arguments below about -708
# and runs over a hundred times slower in the denormal range. Every sum
# the iteration takes has a term of order one, so terms below
# exp(LOG_FLOOR) ~ 1e-304 cannot change it and are floored instead.
LOG_FLOOR = -700.0
# Stabilized scaling (Schmitzer, arXiv 1610.06519, section 3, Alg. 2):
# the potentials are absorbed into the kernel block and the iteration
# runs on the small deviations exp(lu - alpha), exp(lv - beta). Once a
# deviation leaves [-ABSORB_BOUND, ABSORB_BOUND] the potentials are
# absorbed again. Kernel entries are floored at LOG_FLOOR + ABSORB_BOUND
# so that every product with a deviation stays a normal float.
ABSORB_BOUND = 30.0
# A row or column sum of the absorbed kernel below this is too close to
# the floored entries to trust; that half-step runs on logarithms instead.
MIN_COLUMN_SUM = 1e-200


class SinkhornConfig(Record):
    """Knobs for one scaling solve.

    stop_tolerance > 0 stops the solve once the odd plan's column
    marginal is within stop_tolerance of its limit in the max norm
    (nu1 for sinkhorn, m0 * nu1 for shifted_sinkhorn), checked at
    every iteration; zero reproduces a fixed iteration count.
    epsilon must match the kernel the solve runs against. warm_start
    starts the scalings at the exact dual potentials divided by
    epsilon (see monotone_potentials) instead of at one.
    """

    __slots__ = _fields = ("epsilon", "max_iterations", "stop_tolerance", "warm_start")

    def __init__(
        self,
        epsilon: float,
        max_iterations: int = 1000,
        stop_tolerance: float = 0.0,
        warm_start: bool = False,
    ):
        if not (np.isfinite(epsilon) and epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (np.isfinite(stop_tolerance) and stop_tolerance >= 0.0):
            raise ValueError(
                f"stop_tolerance must be nonnegative and finite, got {stop_tolerance!r}"
            )
        self._set(epsilon=epsilon, max_iterations=max_iterations,
                  stop_tolerance=stop_tolerance, warm_start=warm_start)


class GibbsKernel(Record):
    """The Gibbs kernel of the quadratic cost on a d-column pixel grid.

    Its entry for columns i, j is exp(-(i - j)^2 / epsilon). eta is
    the extremal cross ratio max K_ij K_kl / (K_kj K_il); for this
    kernel it equals exp(2 (d-1)^2 / epsilon), attained at the corner
    indices, so only its logarithm is stored. The contraction factor
    lam = (sqrt(eta) - 1) / (sqrt(eta) + 1) of the scaling iteration
    in the Hilbert metric is computed from the exponent directly and
    stays finite for every image width. The solvers build only the
    kernel blocks of each row's support; otstereo.reference builds the
    dense d x d entries.
    """

    _fields = ("epsilon", "d")
    __slots__ = _fields + ("log_eta", "lam")

    def __init__(self, epsilon: float, d: int):
        log_eta = 2.0 * (d - 1) ** 2 / epsilon
        # tanh(t/2) == (e^t - 1) / (e^t + 1) with t = log(sqrt(eta))
        self._set(epsilon=epsilon, d=d, log_eta=log_eta, lam=math.tanh(log_eta / 4.0))


def build_kernel(d: int, epsilon: float) -> GibbsKernel:
    """Validate the width and blur and return their Gibbs kernel."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"kernel size must be a positive integer, got {d!r}")
    real = (int, float, np.integer, np.floating)
    if not (isinstance(epsilon, real) and math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return GibbsKernel(epsilon=float(epsilon), d=int(d))


class ScalingVectors(NamedTuple):
    """Diagonal scalings that reproduce a plan against the kernel.

    u and v hold logarithms, with -inf marking columns outside the
    support; reference.plan_from_scalings builds their plan.
    """

    u: np.ndarray
    v: np.ndarray


class ConvergenceReport(NamedTuple):
    """Per-solve diagnostics.

    hilbert_u and hilbert_v hold the Hilbert-metric step of each
    update, measured on the positive support. marginal_violation is
    the max-norm gap between the returned plan's column sums and their
    limit, the quantity the tolerance stop tests. stop_reason is
    converged or max-iterations. The solve's contraction factor is its
    kernel's lam.
    """

    iterations: int
    hilbert_u: list[float]
    hilbert_v: list[float]
    marginal_violation: float
    stop_reason: str


class ShiftedLimits(NamedTuple):
    """Even and odd limit plans, d x d arrays, of the unbalanced scaling iteration."""

    even: np.ndarray
    odd: np.ndarray
    report: ConvergenceReport


class IterationRecord(NamedTuple):
    """Convergence probes for one iteration of a traced solve.

    u_error and profile_error measure how far the iterate still is
    from the solve's own endpoint: u_error is 0 at the last record,
    profile_error zero up to rounding.
    """

    iteration: int
    hilbert_u_step: float
    hilbert_v_step: float
    u_error: float
    profile_error: float


def _oscillation(delta: np.ndarray) -> float:
    """Variation seminorm of a finite nonempty vector."""
    return float(delta.max() - delta.min())


def _check_inputs(nu0, nu1, kernel: GibbsKernel | None = None):
    """The rows of a solve as float arrays, and their masses: (a, b, ma, mb).

    The rows are checked in this order: 1-d, kernel.d wide when a
    kernel is given (DimensionMismatchError); finite, read off each
    sum, which a NaN or infinite entry or an overflow leaves
    non-finite; nonnegative; with mass (EmptyScanlineError).
    """
    a = np.asarray(nu0, dtype=float)
    b = np.asarray(nu1, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or (kernel is not None and not len(a) == len(b) == kernel.d):
        width = "are not both rows" if kernel is None else f"against a kernel of width {kernel.d}"
        raise DimensionMismatchError(f"measures of length {a.shape} and {b.shape} {width}")
    ma, mb = float(a.sum()), float(b.sum())
    if not (math.isfinite(ma) and math.isfinite(mb)):
        raise ValueError("measures must be finite")
    if (a < 0.0).any() or (b < 0.0).any():
        raise ValueError("measures must be nonnegative")
    if ma <= 0.0 or mb <= 0.0:
        raise EmptyScanlineError("both scanlines must carry positive mass")
    return a, b, ma, mb


class _Step(NamedTuple):
    """One scaling iteration on the support block, in logarithms.

    u pairs with v_prev in the odd plan and with v_raw in the even
    plan, both against the log kernel block; col is the odd plan's
    column marginal. _solve returns the last one.
    """

    u: np.ndarray
    v_prev: np.ndarray
    v_raw: np.ndarray
    du: float
    dv: float
    col: np.ndarray
    block: np.ndarray


def _floored_exp(exponent: np.ndarray, floor: float = LOG_FLOOR) -> np.ndarray:
    """exp with the exponents raised to floor, so that nothing underflows."""
    return np.exp(np.maximum(exponent, floor))


def _lse(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp reduction with max shift; inputs are finite.

    Each sum holds its max term exp(0) = 1, so flooring the other
    exponents at LOG_FLOOR leaves it unchanged.
    """
    shift = matrix.max(axis=axis, keepdims=True)
    total = _floored_exp(matrix - shift).sum(axis=axis)
    return shift.reshape(total.shape) + np.log(total)


def monotone_cells(a: np.ndarray, b: np.ndarray):
    """Walk the northwest-corner staircase between two equal masses.

    Moves as much mass as the current source entry still holds and the
    current target entry still accepts, left to right, and returns the
    cells that move mass as arrays (i, j, mass, starts). An entry whose
    remainder is within BLOCK_RTOL of the total mass counts as run out,
    so rounding leaves no cell between blocks. An index advances only
    when its own entry runs out, so a cell past the one before in both
    i and j follows two entries that ran out in one step: starts marks
    it, the first of a new block, and the first cell. On the line these
    cells are the optimal plan for any convex cost.
    """
    tol = BLOCK_RTOL * max(float(a.sum()), float(b.sum()))
    a, b = a.tolist(), b.tolist()
    n, m = len(a), len(b)
    i = j = 0
    left_a, left_b = a[0], b[0]
    cells = []
    while True:
        move = min(left_a, left_b)
        if move > 0.0:
            cells += i, j, move
        left_a -= move
        left_b -= move
        done_row = left_a <= tol
        done_col = left_b <= tol
        i += done_row
        j += done_col
        if i == n or j == m:
            break
        if done_row:
            left_a = a[i]
        if done_col:
            left_b = b[j]
    i, j, mass = np.array(cells).reshape(-1, 3).T
    starts = (np.diff(i, prepend=-1) > 0) & (np.diff(j, prepend=-1) > 0)
    return i.astype(np.intp), j.astype(np.intp), mass, starts


def _check_equal_masses(ma: float, mb: float) -> None:
    if abs(ma - mb) > MASS_EQUALITY_RTOL * max(ma, mb):
        raise MassMismatchError(f"masses differ: {ma} vs {mb}")


def monotone_plan(nu0, nu1) -> np.ndarray:
    """Optimal plan by the greedy monotone sweep (monotone_cells).

    Rejects the rows the scaling solves reject, and unequal masses.
    Returns the (n, m) float64 plan array, whose positive entries never
    cross: the optimality certificate for the quadratic cost.
    """
    a, b, ma, mb = _check_inputs(nu0, nu1)
    _check_equal_masses(ma, mb)
    plan = np.zeros((a.shape[0], b.shape[0]))
    i, j, move, _ = monotone_cells(a, b)
    plan[i, j] = move
    return plan


def monotone_potentials(cost: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Dual potentials (f, g) of the monotone matching of p onto q.

    p and q are positive masses of equal total on increasing support
    points, and cost is the squared distance between those points.
    f_i + g_j equals cost_ij on every cell of monotone_cells and is at
    most cost_ij everywhere, so sum p f + sum q g is the exact cost
    (Thornton & Cuturi, arXiv 2206.07630). Along a block f starts at 0
    and changes by the cost step wherever i moves, and g = cost - f.
    Each block is free up to one constant t, entering as f + t, g - t,
    and t is the midpoint of the range that keeps the slack
    cost - f - g nonnegative between the block and the earlier ones.
    The slack only grows away from the staircase, so only the two
    cells beside the previous block's last cell (i0 - 1, j0 - 1) bound
    it: (i0, j0 - 1) from above and (i0 - 1, j0) from below. Points
    the walk leaves, carrying at most rounding error, get the
    c-transform of the others. The costs of whole-pixel shifts give
    integer and half-integer potentials, which these sums hold
    exactly; other costs round.
    """
    i, j, _, starts = monotone_cells(p, q)
    c = cost[i, j]
    block = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    f_run = np.cumsum(np.where(np.diff(i, prepend=-1) > 0, np.diff(c, prepend=0.0), 0.0))
    f_cells = f_run - f_run[first][block]
    f, g = np.empty(cost.shape[0]), np.empty(cost.shape[1])
    f[i], g[j] = f_cells, c - f_cells
    i0, j0 = i[first[1:]], j[first[1:]]
    lower = f[i0 - 1] + g[j0] - cost[i0 - 1, j0]
    upper = cost[i0, j0 - 1] - f[i0] - g[j0 - 1]
    # a block's constant is its own midpoint plus the previous block's
    t = np.cumsum(np.r_[0.0, 0.5 * (lower + upper)])[block]
    f[i] += t
    g[j] -= t
    f[i[-1] + 1:] = (cost[i[-1] + 1:, :] - g[None, :]).min(axis=1)
    g[j[-1] + 1:] = (cost[:, j[-1] + 1:] - f[:, None]).min(axis=0)
    return f, g


def _iterate(la_sub, cost, lb_sub, log_drift, epsilon, lu, lv):
    """Yield a _Step per scaling iteration at epsilon, from lu, lv.

    The iterates are those of the log-domain scaling
    lu = la - lse(block + lv), lv = lb - lse(block + lu), computed on
    a kernel that absorbs the potentials alpha, beta:
    kernel = exp(block + alpha + beta), so that each half-step is one
    matrix-vector product with exp(lv - beta) or exp(lu - alpha).
    The potentials are absorbed at the start, whenever a deviation
    exceeds ABSORB_BOUND and whenever a row sum falls below
    MIN_COLUMN_SUM, each time from a log-domain u half-step. A v
    half-step whose column sums fall below MIN_COLUMN_SUM runs on
    logarithms. lv is the start; lu only enters the first step's du.

    log v is shifted by the log mass quotient after every update so
    that the scalings stay bounded for unbalanced inputs; the shift
    cancels out of every plan built from matching iterates.
    """
    block = -cost / epsilon
    kernel = None
    while True:
        if kernel is not None:
            row_sums = kernel @ np.exp(lv - beta)
            lu_new = la_sub + alpha - np.log(row_sums)
            if row_sums.min() < MIN_COLUMN_SUM or np.abs(lu_new - alpha).max() > ABSORB_BOUND:
                kernel = None
        if kernel is None:
            lu_new = la_sub - _lse(block + lv[None, :], axis=1)
            alpha, beta = lu_new, lv
            kernel = _floored_exp(block + alpha[:, None] + beta[None, :],
                                  LOG_FLOOR + ABSORB_BOUND)
        col_sums = kernel.T @ np.exp(lu_new - alpha)
        if col_sums.min() >= MIN_COLUMN_SUM:
            lv_raw = lb_sub + beta - np.log(col_sums)
        else:
            lv_raw = lb_sub - _lse(block + lu_new[:, None], axis=0)
        lv_new = lv_raw + log_drift
        du = _oscillation(lu_new - lu)
        dv = _oscillation(lv_new - lv)
        # a column mass below exp(LOG_FLOOR) is as far from its
        # limit as zero is, so the stop rule reads it the same
        col = _floored_exp(lb_sub + lv - lv_raw)
        yield _Step(lu_new, lv, lv_raw, du, dv, col, block)
        lu, lv = lu_new, lv_new
        if np.abs(lv - beta).max() > ABSORB_BOUND:
            kernel = None


def _prepare(a: np.ndarray, b: np.ndarray, kernel: GibbsKernel, config: SinkhornConfig):
    """The supports of checked measures a, b and a live iteration generator on them."""
    if abs(config.epsilon - kernel.epsilon) > 1e-12 * max(config.epsilon, kernel.epsilon):
        raise ValueError(
            f"config epsilon {config.epsilon} does not match kernel epsilon {kernel.epsilon}"
        )
    support0 = np.flatnonzero(a > 0.0)
    support1 = np.flatnonzero(b > 0.0)
    a_sub = a[support0]
    b_sub = b[support1]
    diff = support0[:, None].astype(float) - support1[None, :].astype(float)
    cost = diff * diff
    if config.warm_start:
        # unit masses: the even limit of shifted_sinkhorn is the
        # projection for nu0 / m0, so one matching serves both solves
        f, g = monotone_potentials(cost, a_sub / a_sub.sum(), b_sub / b_sub.sum())
        lu, lv = f / kernel.epsilon, g / kernel.epsilon
    else:
        lu, lv = np.zeros_like(a_sub), np.zeros_like(b_sub)
    log_drift = np.log(a_sub.sum()) - np.log(b_sub.sum())
    steps = _iterate(np.log(a_sub), cost, np.log(b_sub), log_drift, kernel.epsilon,
                     lu, lv)
    return support0, support1, steps


def _solve(a: np.ndarray, b: np.ndarray, kernel: GibbsKernel, config: SinkhornConfig,
           limit: np.ndarray, observe=None):
    """Run one scaling solve on checked measures a, b.

    limit is the full-width vector the odd plan's column marginal
    converges to; the tolerance stop compares against it. observe, if
    given, is called with (iteration, step) after every iteration.
    Returns (support0, support1, odd, step, report): the supports, the
    odd plan on them, the last _Step and the report. The odd plan
    pairs the last u with the previous v, so its row marginal is
    exactly a. Off the support the plan carries no mass and the limit
    is zero, so the report's marginal violation is read off the block.
    """
    support0, support1, steps = _prepare(a, b, kernel, config)
    limit_sub = limit[support1]
    hilbert_u: list[float] = []
    hilbert_v: list[float] = []
    stop_reason = STOP_MAX_ITERATIONS
    for iterations, step in enumerate(steps, 1):
        hilbert_u.append(step.du)
        hilbert_v.append(step.dv)
        if observe is not None:
            observe(iterations, step)
        if (
            config.stop_tolerance > 0.0
            and np.abs(step.col - limit_sub).max() <= config.stop_tolerance
        ):
            stop_reason = STOP_CONVERGED
            break
        if iterations >= config.max_iterations:
            break

    odd = np.exp(step.u[:, None] + step.block + step.v_prev[None, :])
    report = ConvergenceReport(
        iterations=iterations,
        hilbert_u=hilbert_u,
        hilbert_v=hilbert_v,
        marginal_violation=float(np.abs(odd.sum(axis=0) - limit_sub).max()),
        stop_reason=stop_reason,
    )
    return support0, support1, odd, step, report


def _scatter(support0, support1, block: np.ndarray, d: int) -> np.ndarray:
    """The d x d plan array holding block on the support, zero off it."""
    plan = np.zeros((d, d))
    plan[np.ix_(support0, support1)] = block
    return plan


def disparity_profile(plan) -> np.ndarray:
    """Per-column rightward shift read off an (n, m) plan array.

    Each source column's shift is its row's barycenter minus the
    column index; it is NaN on rows without mass.
    """
    entries = np.asarray(plan, dtype=float)
    row_mass = entries.sum(axis=1)
    rows = np.flatnonzero(row_mass > 0.0)
    values = np.full(len(entries), np.nan)
    cols = np.arange(entries.shape[1], dtype=float)
    values[rows] = (entries[rows] @ cols) / row_mass[rows] - rows
    return values


def sinkhorn(nu0, nu1, kernel: GibbsKernel, config: SinkhornConfig):
    """Solve the balanced scanline matching by diagonal scaling.

    Args:
        nu0: source measure, the rows of the returned plan.
        nu1: target measure, the columns.
        kernel: Gibbs kernel built for the same width and epsilon.
        config: iteration budget, stopping rule and start.

    Returns:
        (plan, ScalingVectors, ConvergenceReport). The plan is the
        d x d float64 array of the odd iterate, whose row sums equal
        nu0 exactly; the report records how far its column sums are
        from nu1.
    """
    a, b, _, _ = _check_inputs(nu0, nu1, kernel)
    support0, support1, odd, step, report = _solve(a, b, kernel, config, b)
    u = np.full(kernel.d, -np.inf)
    v = np.full(kernel.d, -np.inf)
    u[support0] = step.u
    v[support1] = step.v_prev
    return _scatter(support0, support1, odd, kernel.d), ScalingVectors(u=u, v=v), report


def shifted_sinkhorn(nu0, nu1, kernel: GibbsKernel, config: SinkhornConfig) -> ShiftedLimits:
    """Unbalanced solve for a source carrying more mass than the target.

    Requires m(nu0) > 1 with nu1 a probability vector. The iteration
    is the same as in the balanced case; the even iterates converge
    to the entropic projection of the kernel for the rescaled source
    nu0 / m0 (column marginal exactly nu1), and the odd iterates to
    m0 times that plan (row marginal exactly nu0). Both limits share
    one disparity profile. The tolerance stop therefore compares the
    odd plan's column marginal with m0 * nu1.

    The occlusion loop of the disparity pipeline does not run this
    solve: on the line the exact monotone matching of the rescaled
    pair already gives each occluder's whole-pixel shift.
    """
    a, b, m0, m1 = _check_inputs(nu0, nu1, kernel)
    if abs(m1 - 1.0) > 1e-6:
        raise ValueError(f"target must be a probability vector, its mass is {m1!r}")
    if m0 <= 1.0:
        raise WrongPathError(
            f"source mass {m0} does not exceed the target's; use sinkhorn or swap roles"
        )
    support0, support1, odd, step, report = _solve(a, b, kernel, config, m0 * b)
    # the even plan pairs the last u with the v it produced
    even = np.exp(step.u[:, None] + step.block + step.v_raw[None, :])
    return ShiftedLimits(
        even=_scatter(support0, support1, even, kernel.d),
        odd=_scatter(support0, support1, odd, kernel.d),
        report=report,
    )


def iteration_trace(
    nu0, nu1, kernel: GibbsKernel, config: SinkhornConfig
) -> tuple[list[IterationRecord], np.ndarray, ConvergenceReport]:
    """Run a solve while recording per-iteration convergence probes.

    The solve runs twice with config: once to find its endpoint, then
    again to record, per iteration, the Hilbert step of each scaling
    update, the Hilbert distance of u to the endpoint's, and the
    sup-norm gap between the iterate's disparity values and the
    endpoint's profile (disparity_profile of its plan). The solve stops
    by the same rule as sinkhorn, so the records number its
    iterations. Returns (records, plan, report); plan and report are
    those sinkhorn returns, the plan a d x d float64 array.
    """
    a, b, _, _ = _check_inputs(nu0, nu1, kernel)
    support0, support1, odd, end, report = _solve(a, b, kernel, config, b)
    plan = _scatter(support0, support1, odd, kernel.d)
    end_f = disparity_profile(plan)[support0]
    rows = support0.astype(float)
    cols = support1.astype(float)
    records: list[IterationRecord] = []

    def record(iteration: int, step: _Step) -> None:
        # each row sums to nu0_i, so the floor cannot change f
        odd_block = _floored_exp(step.u[:, None] + step.block + step.v_prev[None, :])
        f = (odd_block @ cols) / odd_block.sum(axis=1) - rows
        good = np.isfinite(end_f) & np.isfinite(f)
        gap = float(np.abs(f[good] - end_f[good]).max()) if good.any() else 0.0
        records.append(
            IterationRecord(
                iteration=iteration,
                hilbert_u_step=step.du,
                hilbert_v_step=step.dv,
                u_error=_oscillation(step.u - end.u),
                profile_error=gap,
            )
        )

    _solve(a, b, kernel, config, b, observe=record)
    return records, plan, report
