"""Scaling iterations for entropic transport on one scanline.

The solver alternates diagonal scalings against the Gibbs kernel.
It keeps the logarithms of the scalings and absorbs them into a kernel
block built per epsilon stage, so each half-step is a matrix-vector
product on bounded numbers; it takes a log-domain half-step wherever
that block would lose precision. It therefore survives small blur
values where the kernel entries underflow. The unbalanced variant
reads the even and odd iterate limits, which differ exactly by the
mass quotient of the inputs. A solve can anneal: it iterates through
a geometric epsilon schedule before the configured epsilon.
A solve stops on the marginal violation of its odd plan, or on its
iteration budget.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyScanlineError,
    InfeasibleProjectionError,
    WrongPathError,
)
from .kernel import GibbsKernel
from .measures import ScanlineMeasure

STOP_CONVERGED = "converged"
STOP_MAX_ITERATIONS = "max-iterations"

# Geometric epsilon schedule of the annealed solve (Schmitzer,
# arXiv 1610.06519, section 3). It starts at the largest cost on the
# support block, where the plan is close to the product of its marginals,
# and shrinks by ANNEAL_FACTOR every ANNEAL_STAGE_ITERATIONS iterations
# until it reaches the configured epsilon.
ANNEAL_FACTOR = 0.7
ANNEAL_STAGE_ITERATIONS = 20

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
# A column sum of the absorbed kernel below this is too close to the
# floored entries to trust; that half-step runs on logarithms instead.
MIN_COLUMN_SUM = 1e-200


@dataclass(frozen=True)
class SinkhornConfig:
    """Knobs for one scaling solve.

    stop_tolerance > 0 stops the solve once the odd plan's column
    marginal is within stop_tolerance of its limit in the max norm
    (nu1 for sinkhorn, m0 * nu1 for shifted_sinkhorn), checked at
    every iteration at the final epsilon; zero reproduces a fixed
    iteration count. epsilon must match the kernel the solve runs
    against. anneal runs the solve through the geometric epsilon
    schedule above before iterating at epsilon; the schedule's
    iterations count toward max_iterations.
    """

    epsilon: float
    max_iterations: int = 1000
    stop_tolerance: float = 0.0
    anneal: bool = False

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.stop_tolerance < 0.0:
            raise ValueError("stop_tolerance must be nonnegative")


@dataclass(frozen=True)
class TransportPlan:
    """Mass assignment between source columns (rows) and target columns."""

    entries: np.ndarray
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)
    mass: float = field(init=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "row_marginal", entries.sum(axis=1))
        object.__setattr__(self, "col_marginal", entries.sum(axis=0))
        object.__setattr__(self, "mass", float(entries.sum()))


@dataclass(frozen=True)
class ScalingVectors:
    """Diagonal scalings that reproduce a plan against the kernel.

    u and v hold logarithms, with -inf marking columns outside the
    support.
    """

    u: np.ndarray
    v: np.ndarray

    def reconstruct(self, kernel: GibbsKernel) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            exponent = self.u[:, None] + kernel.log_entries + self.v[None, :]
        # -inf + -inf stays -inf; nan can only come from inf - inf
        exponent = np.where(np.isnan(exponent), -np.inf, exponent)
        return np.exp(exponent)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-solve diagnostics.

    hilbert_u and hilbert_v hold the Hilbert-metric step of each
    update, measured on the positive support, including the updates
    of an epsilon schedule. marginal_violation is the max-norm gap
    between the returned plan's column sums and their limit, the
    quantity the tolerance stop tests.
    """

    iterations: int
    hilbert_u: list[float]
    hilbert_v: list[float]
    marginal_violation: float
    lam: float
    stop_reason: str


@dataclass(frozen=True)
class ShiftedLimits:
    """Even and odd limits of the unbalanced scaling iteration."""

    even: TransportPlan
    odd: TransportPlan
    report: ConvergenceReport


@dataclass(frozen=True)
class IterationRecord:
    """Convergence probes for one iteration of a traced solve.

    u_error and profile_error compare against a caller-supplied
    reference (typically a longer run) and are NaN when no reference
    was given.
    """

    iteration: int
    hilbert_u_step: float
    hilbert_v_step: float
    u_error: float
    profile_error: float


def _as_values(measure) -> np.ndarray:
    if isinstance(measure, ScanlineMeasure):
        return measure.values
    return np.asarray(measure, dtype=float)


def _as_entries(plan) -> np.ndarray:
    if isinstance(plan, TransportPlan):
        return plan.entries
    return np.asarray(plan, dtype=float)


def _oscillation(delta: np.ndarray) -> float:
    """Variation seminorm of a finite vector; zero when empty."""
    if delta.size == 0:
        return 0.0
    return float(delta.max() - delta.min())


def _check_inputs(nu0, nu1, kernel: GibbsKernel):
    a = _as_values(nu0)
    b = _as_values(nu1)
    if a.shape != (kernel.d,) or b.shape != (kernel.d,):
        raise DimensionMismatchError(
            f"measures of length {a.shape} and {b.shape} against a kernel of width {kernel.d}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("measures must be finite")
    if a.sum() <= 0.0 or b.sum() <= 0.0:
        raise EmptyScanlineError("both scanlines must carry positive mass")
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("measures must be nonnegative")
    return a, b


class _Step(NamedTuple):
    """One scaling iteration on the support block, in logarithms.

    u pairs with v_prev in the odd plan and with v_raw in the even
    plan, both against the log kernel block; col is the odd plan's
    column marginal, computed only on final steps (None before).
    final is false while an epsilon schedule is still above the
    configured epsilon.
    """

    u: np.ndarray
    v_prev: np.ndarray
    v_raw: np.ndarray
    du: float
    dv: float
    col: np.ndarray | None
    block: np.ndarray
    final: bool


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


def _epsilon_schedule(epsilon: float, start: float, anneal: bool) -> list[float]:
    """Stage epsilons; every stage but the last runs ANNEAL_STAGE_ITERATIONS."""
    stages = []
    if anneal:
        eps = start
        while eps > epsilon:
            stages.append(eps)
            eps *= ANNEAL_FACTOR
    stages.append(epsilon)
    return stages


def _iterate(la_sub, cost, lb_sub, log_drift, epsilons):
    """Yield a _Step per scaling iteration over a schedule of epsilons.

    The iterates are those of the log-domain scaling
    lu = la - lse(block + lv), lv = lb - lse(block + lu), computed on
    a kernel that absorbs the potentials alpha, beta:
    kernel = exp(block + alpha + beta), so that each half-step is one
    matrix-vector product with exp(lv - beta) or exp(lu - alpha).
    The potentials are absorbed at the start of every stage and
    whenever a deviation exceeds ABSORB_BOUND, each time from a
    log-domain u half-step. A v half-step whose column sums fall
    below MIN_COLUMN_SUM runs on logarithms.

    log v is shifted by the log mass quotient after every update so
    that the scalings stay bounded for unbalanced inputs; the shift
    cancels out of every plan built from matching iterates. Between
    stages the log scalings are rescaled by the ratio of the epsilons,
    which keeps the dual potentials epsilon * log u fixed.
    """
    lu = np.zeros_like(la_sub)
    lv = np.zeros_like(lb_sub)
    for k, eps in enumerate(epsilons):
        final = k == len(epsilons) - 1
        if k:
            ratio = epsilons[k - 1] / eps
            lu = lu * ratio
            lv = lv * ratio
        block = -cost / eps
        kernel = None
        for _ in itertools.count() if final else range(ANNEAL_STAGE_ITERATIONS):
            if kernel is not None:
                lu_new = la_sub + alpha - np.log(kernel @ np.exp(lv - beta))
                if np.abs(lu_new - alpha).max() > ABSORB_BOUND:
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
            col = _floored_exp(lb_sub + lv - lv_raw) if final else None
            yield _Step(lu_new, lv, lv_raw, du, dv, col, block, final)
            lu, lv = lu_new, lv_new
            if np.abs(lv - beta).max() > ABSORB_BOUND:
                kernel = None


def _scatter_plan(block: np.ndarray, support0, support1, d: int) -> TransportPlan:
    entries = np.zeros((d, d))
    entries[np.ix_(support0, support1)] = block
    return TransportPlan(entries)


@dataclass
class _Prepared:
    """Support-restricted problem plus a live iteration generator."""

    b: np.ndarray
    support0: np.ndarray
    support1: np.ndarray
    steps: object


def _prepare(nu0, nu1, kernel: GibbsKernel, config: SinkhornConfig) -> _Prepared:
    a, b = _check_inputs(nu0, nu1, kernel)
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
    epsilons = _epsilon_schedule(kernel.epsilon, float(cost.max()), config.anneal)
    log_drift = np.log(a_sub.sum()) - np.log(b_sub.sum())
    steps = _iterate(np.log(a_sub), cost, np.log(b_sub), log_drift, epsilons)
    return _Prepared(b=b, support0=support0, support1=support1, steps=steps)


def _plan_block(u, block, v) -> np.ndarray:
    return np.exp(u[:, None] + block + v[None, :])


def _run(prep: _Prepared, kernel: GibbsKernel, config: SinkhornConfig, limit, observe=None):
    """Drive the scaling iteration and package plans plus report.

    limit is the full-width vector the odd plan's column marginal
    converges to; the tolerance stop compares against it. observe, if
    given, is called with (iteration, step) after every iteration.
    Returns (odd_plan, even_plan, vectors, report); the odd plan pairs
    the final u with the previous v, so its row marginal is exactly
    nu0, while the even plan's column marginal is exactly nu1.
    """
    support0, support1 = prep.support0, prep.support1
    limit_sub = limit[support1]
    d = kernel.d

    hilbert_u: list[float] = []
    hilbert_v: list[float] = []
    stop_reason = STOP_MAX_ITERATIONS
    iterations = 0
    for step in prep.steps:
        iterations += 1
        hilbert_u.append(step.du)
        hilbert_v.append(step.dv)
        if observe is not None:
            observe(iterations, step)
        if (
            config.stop_tolerance > 0.0
            and step.final
            and np.abs(step.col - limit_sub).max() <= config.stop_tolerance
        ):
            stop_reason = STOP_CONVERGED
            break
        if iterations >= config.max_iterations:
            break

    odd_block = _plan_block(step.u, step.block, step.v_prev)
    even_block = _plan_block(step.u, step.block, step.v_raw)
    u_full = np.full(d, -np.inf)
    v_full = np.full(d, -np.inf)
    u_full[support0] = step.u
    v_full[support1] = step.v_prev
    odd = _scatter_plan(odd_block, support0, support1, d)
    even = _scatter_plan(even_block, support0, support1, d)
    violation = float(np.abs(odd.col_marginal - limit).max())
    report = ConvergenceReport(
        iterations=iterations,
        hilbert_u=hilbert_u,
        hilbert_v=hilbert_v,
        marginal_violation=violation,
        lam=kernel.lam,
        stop_reason=stop_reason,
    )
    vectors = ScalingVectors(u=u_full, v=v_full)
    return odd, even, vectors, report


def sinkhorn(nu0, nu1, kernel: GibbsKernel, config: SinkhornConfig):
    """Solve the balanced scanline matching by diagonal scaling.

    Args:
        nu0: source measure, the rows of the returned plan.
        nu1: target measure, the columns.
        kernel: Gibbs kernel built for the same width and epsilon.
        config: iteration budget, stopping rule and schedule.

    Returns:
        (TransportPlan, ScalingVectors, ConvergenceReport). The plan
        is the odd iterate, whose row marginal equals nu0 exactly;
        the report records how far its column marginal is from nu1.
    """
    prep = _prepare(nu0, nu1, kernel, config)
    odd, _, vectors, report = _run(prep, kernel, config, prep.b)
    return odd, vectors, report


def shifted_sinkhorn(nu0, nu1, kernel: GibbsKernel, config: SinkhornConfig) -> ShiftedLimits:
    """Unbalanced solve for a source carrying more mass than the target.

    Requires m(nu0) > 1 with nu1 a probability vector. The iteration
    is the same as in the balanced case; the even iterates converge
    to the entropic projection of the kernel for the rescaled source
    nu0 / m0 (column marginal exactly nu1), and the odd iterates to
    m0 times that plan (row marginal exactly nu0). Both limits share
    one disparity profile. The tolerance stop therefore compares the
    odd plan's column marginal with m0 * nu1.
    """
    a, b = _check_inputs(nu0, nu1, kernel)
    m0 = float(a.sum())
    m1 = float(b.sum())
    if abs(m1 - 1.0) > 1e-6:
        raise ValueError(f"target must be a probability vector, its mass is {m1!r}")
    if m0 <= 1.0:
        raise WrongPathError(
            f"source mass {m0} does not exceed the target's; use sinkhorn or swap roles"
        )
    prep = _prepare(a, b, kernel, config)
    odd, even, _, report = _run(prep, kernel, config, m0 * prep.b)
    return ShiftedLimits(even=even, odd=odd, report=report)


def iteration_trace(
    nu0,
    nu1,
    kernel: GibbsKernel,
    config: SinkhornConfig,
    reference_vectors: ScalingVectors | None = None,
    reference_profile: np.ndarray | None = None,
) -> tuple[list[IterationRecord], TransportPlan]:
    """Run a solve while recording per-iteration convergence probes.

    Per iteration this captures the Hilbert step of each scaling
    update and, when references are given, the Hilbert distance of u
    to reference_vectors and the sup-norm gap between the iterate's
    disparity values and reference_profile (a full-width vector, NaN
    where undefined). References typically come from a separate run
    with a larger budget. The solve stops by the same rule as
    sinkhorn, so the records number its iterations. Returns the
    records and the final odd plan.
    """
    prep = _prepare(nu0, nu1, kernel, config)
    rows = prep.support0.astype(float)
    cols = prep.support1.astype(float)

    ref_lu = None
    if reference_vectors is not None:
        ref_lu = reference_vectors.u[prep.support0]
    ref_f = None
    if reference_profile is not None:
        ref_f = np.asarray(reference_profile, dtype=float)[prep.support0]

    records: list[IterationRecord] = []

    def record(iteration: int, step: _Step) -> None:
        u_error = float("nan")
        if ref_lu is not None:
            u_error = _oscillation(step.u - ref_lu)
        profile_error = float("nan")
        if ref_f is not None:
            # each row sums to nu0_i, so the floor cannot change f
            odd_block = _floored_exp(step.u[:, None] + step.block + step.v_prev[None, :])
            f = (odd_block @ cols) / odd_block.sum(axis=1) - rows
            good = np.isfinite(ref_f) & np.isfinite(f)
            profile_error = float(np.abs(f[good] - ref_f[good]).max()) if good.any() else 0.0
        records.append(
            IterationRecord(
                iteration=iteration,
                hilbert_u_step=step.du,
                hilbert_v_step=step.dv,
                u_error=u_error,
                profile_error=profile_error,
            )
        )

    plan, _, _, _ = _run(prep, kernel, config, prep.b, observe=record)
    return records, plan


def _project(gamma, marginal, axis: int) -> TransportPlan:
    """Scale the plan along axis (0: rows, 1: columns) to the marginal."""
    entries = _as_entries(gamma)
    target = _as_values(marginal)
    lines = ("rows", "columns")[axis]
    if entries.shape[axis] != target.shape[0]:
        raise DimensionMismatchError(
            f"plan with {entries.shape[axis]} {lines} against a marginal of length {target.shape[0]}"
        )
    sums = entries.sum(axis=1 - axis)
    bad = (target > 0.0) & (sums == 0.0)
    if np.any(bad):
        raise InfeasibleProjectionError(
            f"{lines} {np.flatnonzero(bad).tolist()} have no mass to carry the requested marginal"
        )
    scale = np.zeros_like(target)
    positive = sums > 0.0
    scale[positive] = target[positive] / sums[positive]
    return TransportPlan(entries * np.expand_dims(scale, 1 - axis))


def project_rows(gamma, mu) -> TransportPlan:
    """Scale each row of a plan to match the row marginal mu.

    This is the Kullback-Leibler projection onto the set of plans
    with row sums mu. Rows where mu vanishes are zeroed; a positive
    mu entry on a row without mass is infeasible.
    """
    return _project(gamma, mu, 0)


def project_cols(gamma, nu) -> TransportPlan:
    """Column mirror of project_rows."""
    return _project(gamma, nu, 1)


def kl_divergence(gamma, alpha) -> float:
    """Kullback-Leibler divergence sum gamma * log(gamma / alpha).

    Zero entries of gamma contribute nothing; mass on a zero entry of
    alpha makes the divergence infinite.
    """
    g = _as_entries(gamma)
    ref = _as_entries(alpha)
    if g.shape != ref.shape:
        raise DimensionMismatchError(f"incompatible shapes {g.shape} and {ref.shape}")
    if np.any(g < 0.0) or np.any(ref < 0.0):
        raise ValueError("inputs must be nonnegative")
    pos = g > 0.0
    if np.any(ref[pos] == 0.0):
        return float("inf")
    return float(np.sum(g[pos] * (np.log(g[pos]) - np.log(ref[pos]))))


def transport_cost(gamma) -> float:
    """Quadratic transport cost sum gamma_ij * (i - j)^2."""
    entries = _as_entries(gamma)
    n, m = entries.shape
    diff = np.arange(n, dtype=float)[:, None] - np.arange(m, dtype=float)[None, :]
    return float(np.sum(entries * diff * diff))


def regularized_cost(gamma, epsilon: float) -> float:
    """Transport cost minus epsilon times the entropy of the plan.

    The entropy is -sum gamma (log gamma - 1) with 0 log 0 = 0. For
    any plan this equals epsilon * (KL(gamma | K) - mass(gamma))
    against the Gibbs kernel K for the same epsilon.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    entries = _as_entries(gamma)
    pos = entries > 0.0
    entropy = -float(np.sum(entries[pos] * (np.log(entries[pos]) - 1.0)))
    return transport_cost(entries) - epsilon * entropy
