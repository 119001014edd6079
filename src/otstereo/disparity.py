"""Disparity profiles and occlusion recovery from transport plans.

A grayscale scanline is a measure on the pixel grid: a nonnegative
vector indexed by column, whose entries are the masses the transport
solver moves around (measure_from_row). The disparity of a source
column is the barycenter of its row in the plan minus the column
index (disparity_profile, from otstereo.scaling). On a balanced
scanline of a piecewise constant scene this recovers each object's
pixel shift. When one row carries more mass
than the other, beyond the balance tolerance
DEFAULT_BALANCE_TOLERANCE (compare_masses), the surplus marks pixels
visible in that view only. Every scanline with mass in both views
runs one recovery loop: it peels objects left to right, reads their
rigid shifts off the exact monotone matching, localizes the hidden
interval by mass accounting, and checks that the shifts carry the
heavier row onto the other; balanced rows peel nothing and go
straight to the loop's one regularized solve. A row whose left view
is heavier runs the same loop on both rows flipped. The exact matching
is scaling.monotone_plan; otstereo.reference holds the paper's
identities the loop is checked against. DEFAULT_CONFIG is the solve
the command line runs unless told otherwise.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyScanlineError,
    InvalidIntensityError,
    MassMismatchError,
    NoPlateauError,
    UnresolvedOcclusionError,
    WrongPathError,
)
from .maps import DisparityMap, value_runs
from .scaling import (
    STOP_CONVERGED,
    STOP_MAX_ITERATIONS,
    ConvergenceReport,
    GibbsKernel,
    SinkhornConfig,
    build_kernel,
    disparity_profile,
    monotone_plan,
    shifted_sinkhorn,  # not called here; perfbench/spans.py wraps this name for --trace 1
    sinkhorn,
)

DEFAULT_BALANCE_TOLERANCE = 1e-6
DEFAULT_PLATEAU_TOLERANCE = 1e-3

# Solves start at epsilon from the dual potentials of the exact
# monotone matching and stop once the odd plan's column marginal is
# within 1e-6 of its limit (max norm, unit-mass rows).
DEFAULT_CONFIG = SinkhornConfig(
    0.1, max_iterations=100000, stop_tolerance=1e-6, warm_start=True
)


def measure_from_row(row, *, require_mass: bool = False) -> np.ndarray:
    """Validate one row of pixel intensities as a measure on the grid.

    Args:
        row: sequence of intensities, each finite and within [0, 1].
        require_mass: raise EmptyScanlineError on an all-zero row
            instead of returning the zero measure.

    Returns:
        The row as a 1-d float64 array, one mass per column; its sum
        is the row's mass.
    """
    values = np.asarray(row, dtype=float)
    if values.ndim != 1:
        raise InvalidIntensityError(f"expected a 1-d row, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidIntensityError("intensities must be finite")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise InvalidIntensityError("intensities must lie in [0, 1]")
    if require_mass and values.sum() == 0.0:
        raise EmptyScanlineError("scanline carries no mass")
    return values


def compare_masses(m0: float, m1: float) -> bool:
    """Whether the masses of the two views of one scanline balance.

    They do when |m0 - m1| is within DEFAULT_BALANCE_TOLERANCE
    relative to the larger mass; two empty rows balance. The same
    tolerance ends the occlusion loop: a row that is not balanced
    carries content one view hides, and a balanced one is solved as
    it is.
    """
    return abs(m0 - m1) <= DEFAULT_BALANCE_TOLERANCE * max(m0, m1)


class OcclusionReport(NamedTuple):
    """Outcome of the recovery loop on one scanline.

    intervals lists the source-frame column ranges (inclusive) whose
    content is hidden in the target view. object_shifts pairs each
    peeled object's leftmost column with the whole-pixel shift the
    loop gives the object: the exact matching's disparity there,
    rounded; it is empty when the masses balanced from the start.
    compression_plateau is the repeated adjacent value of the
    disparity increments, an estimate of 1 - 1/phi. solve is the
    report of the regularized solve of what the loop left, the whole
    row when it peeled nothing; None when no solve ran.

    In a disparity map the source is the right row. A row whose left
    view is heavier is solved on flipped rows (the renderer's
    left_frame case); its report has no intervals, left_frame lists
    the left-image column ranges (inclusive) hidden from the right
    view, and its object_shifts columns are each object's rightmost
    left-image column.
    """

    y: int
    phi: float
    intervals: tuple[tuple[int, int], ...]
    object_shifts: tuple[tuple[int, float], ...]
    compression_plateau: float | None
    solve: ConvergenceReport | None = None
    left_frame: tuple[tuple[int, int], ...] = ()


def compression(profile: np.ndarray) -> np.ndarray:
    """Forward increments of a profile; NaN unless both ends are defined."""
    defined = np.isfinite(profile)
    out = np.full(max(len(profile) - 1, 0), np.nan)
    both = defined[:-1] & defined[1:]
    out[both] = profile[1:][both] - profile[:-1][both]
    return out


def _plateau_value(delta: np.ndarray) -> float:
    """Modal repeated adjacent increment value.

    Candidates are midpoints of adjacent pairs agreeing within
    DEFAULT_PLATEAU_TOLERANCE; they are clustered at the same width
    and the largest cluster wins. A plateau v means the mass quotient
    phi = 1/(1 - v) (reference.estimate_phi).
    """
    finite = np.isfinite(delta[:-1]) & np.isfinite(delta[1:])
    close = np.abs(delta[1:] - delta[:-1]) <= DEFAULT_PLATEAU_TOLERANCE
    candidates = 0.5 * (delta[1:] + delta[:-1])[finite & close]
    if candidates.size == 0:
        raise NoPlateauError("no repeated adjacent disparity increment")
    candidates = np.sort(candidates)
    best_lo = 0
    best_hi = 1
    lo = 0
    for hi in range(1, candidates.size + 1):
        while candidates[hi - 1] - candidates[lo] > DEFAULT_PLATEAU_TOLERANCE:
            lo += 1
        if hi - lo > best_hi - best_lo:
            best_lo, best_hi = lo, hi
    return float(candidates[best_lo:best_hi].mean())


def _hides_next(source, target, runs, shift: int) -> bool:
    """Whether the first object X hides the start of the next one, Y.

    runs are the source's objects; X = runs[0] has the given shift.
    What shows of Y in the target is the run of Y's value that starts
    right after X's image, so X hides part of Y when that run is
    shorter than Y. When no such run starts there, X hides all of Y
    if Y fits inside X's image at a nonnegative shift below X's,
    unless the next target run right of X's image has Y's value and
    width: then that run is Y's image, and the two images do not meet.
    """
    if len(runs) < 2:
        return False
    (i0, i1), (j0, j1) = runs[0], runs[1]
    value = source[j0]
    after = i1 + shift + 1
    shown = 0
    while 0 <= after + shown < target.size and target[after + shown] == value:
        shown += 1
    if shown:
        return shown < j1 - j0 + 1
    # the shifts at which Y's image lies inside X's image
    if max(0, i0 + shift - j0) > min(i1 + shift - j1, shift - 1):
        return False
    later = [(lo, hi) for lo, hi in value_runs(target) if lo >= after]
    return not (later and target[later[0][0]] == value
                and later[0][1] - later[0][0] == j1 - j0)


def recover_occlusions(
    nu0, nu1, kernel: GibbsKernel, config: SinkhornConfig
) -> tuple[np.ndarray, OcclusionReport]:
    """Disparity of a scanline plus the intervals its source view alone shows.

    nu0 is the source row and nu1 the target row, each a 1-d array of
    nonnegative masses. Returns the per-column profile, NaN on columns
    without an estimate (no source mass, or flagged hidden), and the
    loop's OcclusionReport.

    The target must not carry more mass than the source beyond the
    balance tolerance (DEFAULT_BALANCE_TOLERANCE, relative to the
    larger mass), else WrongPathError; the surplus is content visible
    in the source view only. An object is a maximal run of one
    positive value, as the cartoon model paints each object in one
    intensity. The loop peels the leftmost remaining object X and
    reads its rigid shift at its leftmost column, from the exact
    monotone matching of the remaining source, rescaled to the
    remaining target's mass, onto that target (monotone_plan). X
    occludes its right neighbor Y when the run of Y's value that
    starts in the target right after X's image is shorter than Y, or,
    with no such run, when Y fits behind X (see _hides_next). The
    columns from Y's left end whose mass accounts for the remaining
    surplus are then flagged hidden and removed. X itself is removed
    from both views and the loop continues until the masses agree
    within the balance tolerance; the reconciled remainder is solved
    as a balanced problem by regularized scaling (sinkhorn). Balanced
    input short-circuits to that final solve and yields a report with
    no objects.

    Once an object was peeled, and unless the remainder's solve
    stopped on its budget, the shifts must carry the source row onto
    the target row: each shifted pixel on a target pixel of its own
    value, one to one, and every target pixel with mass reached.
    Otherwise the loop raises UnresolvedOcclusionError, as it does
    when the surplus cannot be attributed; the error carries the
    partial report. This is what happens when an occluder's image
    lands past the start of the object it hides, which no monotone
    matching can read.
    """
    a = np.asarray(nu0, dtype=float)
    b = np.asarray(nu1, dtype=float)
    m0 = float(a.sum())
    m1 = float(b.sum())
    if m1 > m0 and not compare_masses(m0, m1):
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
    solve = None

    def report() -> OcclusionReport:
        return OcclusionReport(
            y=-1,
            phi=phi,
            intervals=tuple(intervals),
            object_shifts=tuple(shifts),
            compression_plateau=plateau,
            solve=solve,
        )

    while True:
        mass0 = float(remaining0.sum())
        mass1 = float(remaining1.sum())
        deficit = mass0 - mass1
        tolerance = DEFAULT_BALANCE_TOLERANCE * max(mass0, mass1)
        if deficit <= tolerance:
            if mass0 > 0.0 and mass1 > 0.0:
                plan, _, solve = sinkhorn(
                    remaining0 / mass0, remaining1 / mass1, kernel, config
                )
                rest = disparity_profile(plan)
                defined = np.isfinite(rest)
                profile[defined] = rest[defined]
            break
        runs = value_runs(remaining0)
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
        i0, i1 = runs[0]
        try:
            f = disparity_profile(monotone_plan(remaining0 * (mass1 / mass0), remaining1))
        except MassMismatchError as exc:
            raise UnresolvedOcclusionError(str(exc), report=report()) from exc
        if plateau is None:
            try:
                plateau = _plateau_value(compression(f))
            except NoPlateauError:
                plateau = 1.0 - mass0 / mass1

        shift = int(round(f[i0]))
        shifts.append((i0, float(shift)))

        if _hides_next(remaining0, remaining1, runs, shift):
            j0, j1 = runs[1]
            # the first column at which the run's mass covers the surplus
            cum = np.cumsum(remaining0[j0 : j1 + 1])
            i2 = j0 + min(int(np.searchsorted(cum, deficit - tolerance)), j1 - j0)
            intervals.append((j0, i2))
            remaining0[j0 : i2 + 1] = 0.0

        profile[i0 : i1 + 1] = float(shift)
        remaining0[i0 : i1 + 1] = 0.0
        lo = min(max(i0 + shift, 0), d)
        hi = min(max(i1 + shift + 1, 0), d)
        remaining1[lo:hi] = 0.0

    result = report()
    # a row whose remainder solve stopped on its budget is flagged as
    # such already, and the remainder's shifts are provisional
    budget_stop = solve is not None and solve.stop_reason == STOP_MAX_ITERATIONS
    if shifts and not budget_stop and not _reproduces(a, b, profile):
        raise UnresolvedOcclusionError(
            "the recovered shifts do not carry the source row onto the target row",
            report=result,
        )
    return profile, result


def _reproduces(source: np.ndarray, target: np.ndarray, profile: np.ndarray) -> bool:
    """Whether moving each source pixel by its rounded shift paints the target.

    Every pixel with a shift must land inside the frame on a target
    pixel of its own value, no two may land on the same pixel, and
    every target pixel with mass must be reached.
    """
    cols = np.flatnonzero(np.isfinite(profile))
    dest = cols + np.rint(profile[cols]).astype(int)
    return (
        np.all((dest >= 0) & (dest < target.size))
        # not np.unique: it imports numpy.ma, ~20 ms of every occluded run
        and np.bincount(dest).max(initial=0) <= 1
        and np.array_equal(source[cols], target[dest])
        and np.count_nonzero(target > 0.0) == dest.size
    )


def _mirrored(report: OcclusionReport, d: int) -> OcclusionReport:
    """A report of the peel loop on flipped rows, in left-image columns.

    The flipped source is the left row, so the hidden intervals are
    left-frame ones, and each object's leftmost flipped column is its
    rightmost left-image column.
    """
    flip = d - 1
    return report._replace(
        intervals=(),
        left_frame=tuple((flip - hi, flip - lo) for lo, hi in reversed(report.intervals)),
        object_shifts=tuple((flip - col, shift) for col, shift in report.object_shifts),
    )


def _solve_facts(solve: ConvergenceReport | None) -> dict:
    """Diagnostics of a row's one regularized solve; None gives 0 iterations, converged."""
    if solve is None:
        return {"iterations": 0, "stop_reason": STOP_CONVERGED}
    return {
        "iterations": solve.iterations,
        "stop_reason": solve.stop_reason,
        "hilbert_u": solve.hilbert_u[-1],
        "hilbert_v": solve.hilbert_v[-1],
        "marginal_violation": solve.marginal_violation,
        "lam": solve.lam,
    }


def _row_pipeline(right_row, left_row, kernel: GibbsKernel, config: SinkhornConfig):
    """Solve one scanline pair; returns (values, occluded, report, info).

    values are right-image disparities, NaN where undefined, and
    occluded flags the right-image columns hidden from the left view.
    report is the row's OcclusionReport, None unless the loop peeled
    an object or failed; info is the row's diagnostics record.

    The right row is the source. A row whose left view is heavier
    carries content hidden from the right view: flipping both rows
    turns it into the source-heavy case, with the left row as source
    and the shifts unchanged, so the same loop solves it. Each left
    pixel xl with shift s is then written to right pixel xl - s,
    where the right row has mass; right pixels that no left pixel
    lands on stay NaN. Its report, failed or not, is in left-image
    columns (_mirrored). A row the loop cannot resolve takes the
    failed path: no data, and the error in its record.
    """
    d = kernel.d
    nan = np.full(d, np.nan)
    no_occlusion = np.zeros(d, dtype=bool)
    nu0 = measure_from_row(right_row)
    nu1 = measure_from_row(left_row)
    m0 = float(nu0.sum())
    m1 = float(nu1.sum())
    if m0 == 0.0 and m1 == 0.0:
        return nan, no_occlusion, None, {"path": "empty"}
    if m0 == 0.0 or m1 == 0.0:
        return nan, no_occlusion, None, {"path": "one-sided"}
    mirror = not compare_masses(m0, m1) and m1 > m0
    try:
        if mirror:
            flipped, report = recover_occlusions(nu1[::-1], nu0[::-1], kernel, config)
        else:
            values, report = recover_occlusions(nu0, nu1, kernel, config)
    except UnresolvedOcclusionError as exc:
        report = _mirrored(exc.report, d) if mirror else exc.report
        info = {"path": "failed", "error": str(exc), **_solve_facts(report.solve)}
        return nan, no_occlusion, report, info
    if mirror:
        left = flipped[::-1]
        xl = np.flatnonzero(np.isfinite(left))
        xr = np.rint(xl - left[xl]).astype(int)
        inside = (xr >= 0) & (xr < d)
        xl, xr = xl[inside], xr[inside]
        lands = nu0[xr] > 0.0
        values = np.full(d, np.nan)
        values[xr[lands]] = left[xl[lands]]
        report = _mirrored(report, d)
    if not report.object_shifts:
        info = {"path": "balanced", **_solve_facts(report.solve)}
        return values, no_occlusion, None, info
    occluded = np.zeros(d, dtype=bool)
    for lo, hi in report.intervals:
        occluded[lo : hi + 1] = True
    info = {"path": "occlusion", "phi": report.phi, **_solve_facts(report.solve)}
    return values, occluded, report, info


def disparity_map(
    left_image: np.ndarray,
    right_image: np.ndarray,
    config: SinkhornConfig,
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
    values = np.empty((h, d))
    occluded = np.zeros((h, d), dtype=bool)
    reports = []
    diagnostics = []
    cache: dict = {}
    for y in range(h):
        key = (right[y].tobytes(), left[y].tobytes())
        if key not in cache:
            cache[key] = _row_pipeline(right[y], left[y], kernel, config)
        values[y], occluded[y], report, info = cache[key]
        if report is not None:
            reports.append(report._replace(y=y))
        diagnostics.append({"y": y, **info})
    return DisparityMap(values, occluded, tuple(reports), tuple(diagnostics))
