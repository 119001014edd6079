"""Disparity profiles and occlusion recovery from transport plans.

The disparity of a source column is the barycenter of its row in the
plan minus the column index. On a balanced scanline of a piecewise
constant scene this recovers each object's pixel shift. When the
source row carries more mass than the target, the surplus marks
pixels visible in the source view only; the recovery loop peels
objects left to right, reads their rigid shifts, and localizes the
hidden interval by mass accounting.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (
    MassMismatchError,
    NoPlateauError,
    UnresolvedOcclusionError,
    WrongPathError,
)
from .exact import monotone_plan
from .kernel import GibbsKernel, build_kernel
from .measures import (
    DEFAULT_BALANCE_TOLERANCE,
    compare_masses,
    measure_from_row,
)
from .sinkhorn import (
    STOP_CONVERGED,
    STOP_MAX_ITERATIONS,
    SinkhornConfig,
    TransportPlan,
    _as_values,
    shifted_sinkhorn,
    sinkhorn,
)

DEFAULT_MASS_TOLERANCE = 1e-3
DEFAULT_PLATEAU_TOLERANCE = 1e-3


@dataclass(frozen=True)
class DisparityProfile:
    """Per-column rightward shift of one scanline.

    values is NaN where there is no estimate: columns without source
    mass, and columns flagged occluded by the recovery loop.
    """

    values: np.ndarray

    @property
    def defined_mask(self) -> np.ndarray:
        return np.isfinite(self.values)


@dataclass(frozen=True)
class OcclusionReport:
    """Outcome of the recovery loop on one unbalanced scanline.

    intervals lists the source-frame column ranges (inclusive) whose
    content is hidden in the target view. object_shifts pairs each
    processed object's leftmost column with the raw disparity read
    there. compression_plateau is the repeated adjacent value of the
    disparity increments, an estimate of 1 - 1/phi. iterations sums
    the scaling iterations of the loop's sub-solves, and stop_reason
    is max-iterations when any of them stopped on its budget.
    """

    y: int
    phi: float
    intervals: tuple[tuple[int, int], ...]
    object_shifts: tuple[tuple[int, float], ...]
    compression_plateau: float | None
    iterations: int = 0
    stop_reason: str = STOP_CONVERGED


@dataclass(frozen=True)
class DisparityMap:
    """Per-pixel disparity of a full image pair, one row per scanline.

    values is an (h, d) array, NaN where there is no data: empty
    scanlines, columns without source mass, and recovered occluded
    intervals. occluded marks the latter alone and defaults to none.
    """

    values: np.ndarray
    occluded: np.ndarray | None = None
    reports: tuple[OcclusionReport, ...] = ()
    diagnostics: tuple[dict, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {values.shape}")
        object.__setattr__(self, "values", values)
        if self.occluded is None:
            object.__setattr__(self, "occluded", np.zeros(values.shape, dtype=bool))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def defined_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def no_data(self) -> np.ndarray:
        return ~self.defined_mask


def disparity_profile(plan) -> DisparityProfile:
    """Row barycenter minus row index, where the row has mass."""
    entries = plan.entries if isinstance(plan, TransportPlan) else np.asarray(plan, float)
    n, m = entries.shape
    row_mass = entries.sum(axis=1)
    defined = row_mass > 0.0
    values = np.full(n, np.nan)
    cols = np.arange(m, dtype=float)
    values[defined] = (entries[defined] @ cols) / row_mass[defined] - np.flatnonzero(
        defined
    ).astype(float)
    return DisparityProfile(values=values)


def compression(profile: DisparityProfile) -> np.ndarray:
    """Forward increments of the profile; NaN unless both ends are defined."""
    values = profile.values
    out = np.full(max(len(values) - 1, 0), np.nan)
    both = profile.defined_mask[:-1] & profile.defined_mask[1:]
    out[both] = values[1:][both] - values[:-1][both]
    return out


def _plateau_value(delta: np.ndarray, plateau_tolerance: float) -> float:
    """Modal repeated adjacent increment value.

    Candidates are midpoints of adjacent pairs agreeing within the
    tolerance; they are clustered at the same width and the largest
    cluster wins.
    """
    finite = np.isfinite(delta[:-1]) & np.isfinite(delta[1:])
    close = np.abs(delta[1:] - delta[:-1]) <= plateau_tolerance
    candidates = 0.5 * (delta[1:] + delta[:-1])[finite & close]
    if candidates.size == 0:
        raise NoPlateauError("no repeated adjacent disparity increment")
    candidates = np.sort(candidates)
    best_lo = 0
    best_hi = 1
    lo = 0
    for hi in range(1, candidates.size + 1):
        while candidates[hi - 1] - candidates[lo] > plateau_tolerance:
            lo += 1
        if hi - lo > best_hi - best_lo:
            best_lo, best_hi = lo, hi
    return float(candidates[best_lo:best_hi].mean())


def estimate_phi(delta, plateau_tolerance: float = DEFAULT_PLATEAU_TOLERANCE) -> float:
    """Mass quotient from the repeated adjacent disparity increment.

    A source compressed by a quotient phi < 1 produces increments
    that repeat only at the value 1 - 1/phi, so phi = 1/(1 - v) for
    the modal repeated value v. Raises NoPlateauError when no
    adjacent increments repeat; callers can fall back to the measured
    mass quotient.
    """
    delta = np.asarray(delta, dtype=float)
    value = _plateau_value(delta, plateau_tolerance)
    if value >= 1.0:
        raise NoPlateauError(f"plateau value {value} admits no positive quotient")
    return 1.0 / (1.0 - value)


def mask_runs(mask) -> list[tuple[int, int]]:
    """Inclusive (start, end) of each maximal run of true entries, left to right."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return [(lo, hi - 1) for lo, hi in zip(edges[::2], edges[1::2])]


def _run_containing(runs: list[tuple[int, int]], col: int) -> tuple[int, int] | None:
    for lo, hi in runs:
        if lo <= col <= hi:
            return (lo, hi)
    return None


def recover_occlusions(
    nu0,
    nu1,
    kernel: GibbsKernel,
    config: SinkhornConfig,
    mass_tolerance: float = DEFAULT_MASS_TOLERANCE,
) -> tuple[DisparityProfile, OcclusionReport]:
    """Disparity of a source-heavy scanline plus its hidden intervals.

    The source must carry at least as much mass as the target; the
    surplus is content visible in the source view only. The loop
    peels the leftmost remaining object X: the unbalanced solve reads
    its rigid shift s at its leftmost column, and X occludes its
    right neighbor exactly when X's image run in the target outlasts
    X's own width. In that case the columns right of X whose mass
    accounts for the remaining surplus are flagged hidden and
    removed. X itself is then removed from both views and the loop
    continues until the masses reconcile; the reconciled remainder is
    solved as a balanced problem. Balanced input short-circuits to
    that final solve and yields an empty report.
    """
    a = _as_values(nu0).astype(float)
    b = _as_values(nu1).astype(float)
    m0 = float(a.sum())
    m1 = float(b.sum())
    if m0 < m1:
        raise WrongPathError(
            f"source mass {m0} is below target mass {m1}; "
            "this loop recovers content hidden from the target view only"
        )
    phi = m1 / m0
    d = a.shape[0]
    remaining0 = a / m1
    remaining1 = b / m1

    profile = np.full(d, np.nan)
    intervals: list[tuple[int, int]] = []
    shifts: list[tuple[int, float]] = []
    plateau: float | None = None
    first_pass = True
    solves = []

    def report() -> OcclusionReport:
        budget = any(r.stop_reason == STOP_MAX_ITERATIONS for r in solves)
        return OcclusionReport(
            y=-1,
            phi=phi,
            intervals=tuple(intervals),
            object_shifts=tuple(shifts),
            compression_plateau=plateau,
            iterations=sum(r.iterations for r in solves),
            stop_reason=STOP_MAX_ITERATIONS if budget else STOP_CONVERGED,
        )

    while True:
        mass0 = float(remaining0.sum())
        mass1 = float(remaining1.sum())
        deficit = mass0 - mass1
        if deficit <= mass_tolerance:
            if mass0 > 0.0 and mass1 > 0.0:
                plan, _, rep = sinkhorn(
                    remaining0 / mass0, remaining1 / mass1, kernel, config
                )
                solves.append(rep)
                rest = disparity_profile(plan)
                profile[rest.defined_mask] = rest.values[rest.defined_mask]
            break
        runs = mask_runs(remaining0 > 0.0)
        if not runs:
            raise UnresolvedOcclusionError(
                f"mass surplus {deficit:.6f} left with no objects to attribute it to",
                report=report(),
            )
        if mass1 <= 0.0:
            raise UnresolvedOcclusionError(
                f"mass surplus {deficit:.6f} left but the target view is exhausted",
                report=report(),
            )
        limits = shifted_sinkhorn(
            remaining0 / mass1, remaining1 / mass1, kernel, config
        )
        solves.append(limits.report)
        f = disparity_profile(limits.odd)
        if first_pass:
            # the plateau is read off the exact matching of the mass
            # rescaled pair; the regularized profile blurs the repeats
            first_pass = False
            try:
                exact = monotone_plan(remaining0 * (mass1 / mass0), remaining1)
                plateau = _plateau_value(
                    compression(disparity_profile(exact.plan)),
                    DEFAULT_PLATEAU_TOLERANCE,
                )
            except (NoPlateauError, MassMismatchError):
                plateau = 1.0 - mass0 / mass1

        i0, i1 = runs[0]
        shift_raw = float(f.values[i0])
        shift = int(round(shift_raw))
        shifts.append((i0, shift_raw))

        target_runs = mask_runs(remaining1 > 0.0)
        image_run = _run_containing(target_runs, min(max(i0 + shift, 0), d - 1))
        width = i1 - i0 + 1
        occludes = (
            image_run is not None
            and (image_run[1] - image_run[0] + 1) > width
            and len(runs) > 1
        )
        if occludes:
            j0, j1 = runs[1]
            cum = 0.0
            i2 = None
            for col in range(j0, j1 + 1):
                cum += remaining0[col]
                if cum >= deficit - mass_tolerance:
                    i2 = col
                    break
            if i2 is None:
                i2 = j1
            intervals.append((j0, i2))
            remaining0[j0 : i2 + 1] = 0.0

        profile[i0 : i1 + 1] = float(shift)
        remaining0[i0 : i1 + 1] = 0.0
        lo = min(max(i0 + shift, 0), d)
        hi = min(max(i1 + shift + 1, 0), d)
        remaining1[lo:hi] = 0.0

    return DisparityProfile(values=profile), report()


def _solve_facts(report: OcclusionReport) -> dict:
    """Iteration count and stop reason of a peel loop's sub-solves."""
    return {"iterations": report.iterations, "stop_reason": report.stop_reason}


def _row_pipeline(
    right_row,
    left_row,
    kernel: GibbsKernel,
    config: SinkhornConfig,
    balance_tolerance: float,
    mass_tolerance: float,
):
    """Solve one scanline pair; returns (values, occluded, report, info)."""
    d = kernel.d
    nan = np.full(d, np.nan)
    no_occlusion = np.zeros(d, dtype=bool)
    nu0 = measure_from_row(right_row)
    nu1 = measure_from_row(left_row)
    if nu0.mass == 0.0 and nu1.mass == 0.0:
        return nan, no_occlusion, None, {"path": "empty"}
    if nu0.mass == 0.0 or nu1.mass == 0.0:
        return nan, no_occlusion, None, {"path": "one-sided"}
    cmp = compare_masses(nu1, nu0, balance_tolerance)
    if not cmp.balanced and nu0.mass > nu1.mass:
        prof, report = recover_occlusions(
            nu0, nu1, kernel, config, mass_tolerance=mass_tolerance
        )
        occluded = np.zeros(d, dtype=bool)
        for lo, hi in report.intervals:
            occluded[lo : hi + 1] = True
        info = {"path": "occlusion", "phi": report.phi, "lam": kernel.lam,
                **_solve_facts(report)}
        return prof.values, occluded, report, info
    # balanced rows, and the mirror case where content is hidden in
    # the source view: one sinkhorn solve; only the profile is extracted
    if not cmp.balanced:
        # with unequal masses the iteration converges to a uniform
        # stretch of the matching, and annealing gets there and loses
        # accuracy; the mirror rows keep the fixed-epsilon solve until
        # they get their own recovery (ROADMAP item 5)
        config = dataclasses.replace(config, anneal=False)
    plan, _, rep = sinkhorn(
        nu0.values / nu1.mass, nu1.values / nu1.mass, kernel, config
    )
    prof = disparity_profile(plan)
    info = {
        "path": "balanced" if cmp.balanced else "unbalanced-mirror",
        "iterations": rep.iterations,
        "stop_reason": rep.stop_reason,
        "hilbert_u": rep.hilbert_u[-1],
        "hilbert_v": rep.hilbert_v[-1],
        "marginal_violation": rep.marginal_violation,
        "lam": rep.lam,
    }
    return prof.values, no_occlusion, None, info


def disparity_map(
    left_image: np.ndarray,
    right_image: np.ndarray,
    config: SinkhornConfig,
    balance_tolerance: float = DEFAULT_BALANCE_TOLERANCE,
    mass_tolerance: float = DEFAULT_MASS_TOLERANCE,
) -> DisparityMap:
    """Per-scanline disparity for a rectified stereo pair.

    The source of each row's transport is the right image, so the map
    is indexed in right-image coordinates and shifts are nonnegative.
    Scanlines are independent; identical row pairs are solved once.
    A failing scanline becomes a no-data row, not a global failure.
    """
    left = np.asarray(left_image, dtype=float)
    right = np.asarray(right_image, dtype=float)
    if left.ndim != 2 or left.shape != right.shape:
        raise ValueError(f"incompatible image shapes {left.shape} and {right.shape}")
    h, d = left.shape
    kernel = build_kernel(d, config.epsilon)

    def solve(y):
        try:
            return _row_pipeline(
                right[y], left[y], kernel, config, balance_tolerance, mass_tolerance
            )
        except UnresolvedOcclusionError as exc:
            nan = np.full(d, np.nan)
            none = np.zeros(d, dtype=bool)
            info = {"path": "failed", "error": str(exc), **_solve_facts(exc.report)}
            return nan, none, exc.report, info

    values = np.empty((h, d))
    occluded = np.zeros((h, d), dtype=bool)
    reports = []
    diagnostics = []
    cache: dict = {}
    for y in range(h):
        key = (right[y].tobytes(), left[y].tobytes())
        if key not in cache:
            cache[key] = solve(y)
        values[y], occluded[y], report, info = cache[key]
        if report is not None:
            reports.append(dataclasses.replace(report, y=y))
        diagnostics.append({"y": y, **info})
    return DisparityMap(values, occluded, tuple(reports), tuple(diagnostics))
