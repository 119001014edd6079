"""Acceptance checks for the scanline transport pipeline.

Each test prints one PASS/FAIL line (visible under pytest -s; the
verbose test listing carries the same verdict) and covers one of the
eight published criteria at its stated tolerance.
"""
import math
import time

import numpy as np
import pytest

from otstereo.disparity import compression, disparity_map, disparity_profile
from otstereo.errors import NoPlateauError
from otstereo.reference import (
    brute_force_plan,
    estimate_phi,
    exact_cost,
    hilbert_distance,
    kernel_entries,
    project_cols,
    project_rows,
    transport_cost,
)
from otstereo.geometry import CameraRig, depth_from_disparity, reconstruct
from otstereo.scene import CartoonScene, SceneObject, render_pair
from otstereo.scaling import (
    STOP_CONVERGED,
    SinkhornConfig,
    build_kernel,
    iteration_trace,
    monotone_plan,
    shifted_sinkhorn,
    sinkhorn,
)

RIG = CameraRig()
PIPELINE = SinkhornConfig(epsilon=0.1, max_iterations=10000, stop_tolerance=1e-9)


def verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def shifted_object(x0, width, shift, intensity, **kw):
    return SceneObject(
        x0=x0, width=width, depth=depth_from_disparity(shift, RIG),
        intensity=intensity, **kw,
    )


def random_scene(rng, d=120, h=100):
    """Non-occluded layout within the solver's convergence envelope.

    Neighbors are separated by more than either object's width plus
    shift, so no mass can latch onto the wrong block at epsilon 0.1;
    widths and shifts keep each block's own relaxation fast enough
    for the 1e4 iteration budget.
    """
    boxes = [
        (int(rng.integers(8, 17)), int(rng.integers(3, 13)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    objects = []
    cursor = int(rng.integers(0, 6))
    for k, (w, s) in enumerate(boxes):
        if k > 0:
            pw, ps = boxes[k - 1]
            cursor += max(pw + ps, w + s) + 6
        if cursor + w + s > d:
            break
        kw = {}
        if rng.uniform() < 0.3:
            y0 = int(rng.integers(0, h // 2))
            kw = {"y0": y0, "height": int(rng.integers(h // 4, h - y0))}
        objects.append(
            shifted_object(cursor, w, s, float(rng.uniform(0.3, 0.9)), **kw)
        )
        cursor += w
    return CartoonScene(width=d, height=h, objects=tuple(objects))


def test_ac1_exact_recovery_on_non_occluded_cartoons():
    rng = np.random.default_rng(2026)
    good = 0
    total = 0
    started = time.perf_counter()
    for _ in range(20):
        pair = render_pair(random_scene(rng), RIG)
        result = disparity_map(pair.left, pair.right, PIPELINE)
        defined = ~pair.truth.no_data
        gap = np.abs(result.values - pair.truth.values)
        good += int(np.sum(defined & np.isfinite(result.values) & (gap <= 0.5)))
        total += int(defined.sum())
    elapsed = time.perf_counter() - started
    share = good / total
    verdict(
        "AC1 non-occluded recovery",
        share >= 0.99 and elapsed < 60.0,
        f"{share:.2%} of {total} defined pixels within 0.5 px in {elapsed:.1f}s",
    )


def test_ac2_oracle_equivalence():
    rng = np.random.default_rng(8)
    grid = 8
    exact_hits = 0
    for _ in range(200):
        a = rng.multinomial(grid, np.full(3, 1 / 3)) / grid
        b = rng.multinomial(grid, np.full(3, 1 / 3)) / grid
        if exact_cost(a, b) == brute_force_plan(a, b, grid_steps=grid)[1]:
            exact_hits += 1
    kern = build_kernel(8, 0.03)
    # the pipeline's warm start: cold solves at this epsilon run out
    # of the budget short of the tolerance
    config = SinkhornConfig(
        epsilon=0.03, max_iterations=20000, stop_tolerance=1e-12, warm_start=True
    )
    worst = 0.0
    converged = 0
    for _ in range(50):
        # grid-quantized masses keep distinct plan costs at least a
        # grid unit apart, so the entropic blur cannot ride a
        # near-tie; continuous draws occasionally exceed 1e-3
        a = rng.multinomial(16, np.full(8, 1 / 8)) / 16.0
        b = rng.multinomial(16, np.full(8, 1 / 8)) / 16.0
        plan, _, report = sinkhorn(a, b, kern, config)
        worst = max(worst, abs(transport_cost(plan) - exact_cost(a, b)))
        converged += report.stop_reason == STOP_CONVERGED
    verdict(
        "AC2 oracle equivalence",
        exact_hits == 200 and worst <= 1e-3 and converged == 50,
        f"200 quantized costs equal: {exact_hits == 200}; "
        f"max entropic cost gap {worst:.2e}; {converged} of 50 solves converged",
    )


def mean_ratio(errors, floor=1e-11):
    # geometric mean decay per iteration beyond iteration 2, while
    # the series stays above the reference's own noise floor
    usable = [e for e in errors[2:] if np.isfinite(e) and e > floor]
    if len(usable) < 2:
        return 0.0
    return (usable[-1] / usable[0]) ** (1.0 / (len(usable) - 1))


def test_ac3_convergence_rate():
    rng = np.random.default_rng(77)
    worst_excess = -1.0
    checked = 0
    for _ in range(10):
        d = int(rng.integers(4, 13))
        eps = 2.0 * (d - 1) ** 2 / 7.0
        kern = build_kernel(d, eps)
        assert kern.lam**2 <= 0.9
        a = rng.uniform(0.1, 1.0, size=d)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, size=d)
        b /= b.sum()
        budget = 60
        # the first budget iterations, measured against the endpoint
        # of a ten times longer solve
        records = iteration_trace(
            a, b, kern, SinkhornConfig(epsilon=eps, max_iterations=10 * budget)
        )[0][:budget]
        bound = kern.lam**2 + 0.05
        for series in (
            [r.u_error for r in records],
            [r.profile_error for r in records],
        ):
            ratio = mean_ratio(series)
            worst_excess = max(worst_excess, ratio - bound)
            checked += 1
    verdict(
        "AC3 convergence rate",
        worst_excess <= 0.0,
        f"{checked} decay series; worst ratio excess over "
        f"lambda^2+0.05 is {worst_excess:.3f}",
    )


def test_ac4_shifted_projection_structure():
    rng = np.random.default_rng(4)
    worst = {"col": 0.0, "row": 0.0, "scale": 0.0, "profile": 0.0}
    for m0 in (1.05, 1.5, 2.0):
        b = rng.uniform(0.1, 1.0, size=16)
        b /= b.sum()
        a = rng.uniform(0.1, 1.0, size=16)
        a *= m0 / a.sum()
        kern = build_kernel(16, 0.5)
        limits = shifted_sinkhorn(
            a, b, kern,
            SinkhornConfig(epsilon=0.5, max_iterations=4000, stop_tolerance=1e-14),
        )
        worst["col"] = max(worst["col"], np.abs(limits.even.sum(axis=0) - b).max())
        worst["row"] = max(worst["row"], np.abs(limits.odd.sum(axis=1) - a).max())
        worst["scale"] = max(
            worst["scale"],
            np.abs(limits.odd - m0 * limits.even).max(),
        )
        fe = disparity_profile(limits.even)
        fo = disparity_profile(limits.odd)
        worst["profile"] = max(
            worst["profile"], np.abs(fe - fo)[np.isfinite(fe)].max()
        )
    ok = (
        worst["col"] <= 1e-8
        and worst["row"] <= 1e-8
        and worst["scale"] <= 1e-8
        and worst["profile"] <= 1e-10
    )
    verdict(
        "AC4 shifted projections",
        ok,
        "worst gaps: col {col:.1e}, row {row:.1e}, odd-vs-m0*even {scale:.1e}, "
        "profile {profile:.1e}".format(**worst),
    )


def test_ac5_occlusion_recovery():
    scene = CartoonScene(
        width=120, height=4,
        objects=(
            shifted_object(20, 26, 9, 0.5),
            shifted_object(47, 40, 4, 0.6),
            shifted_object(92, 10, 3, 0.55),
            shifted_object(106, 10, 2, 0.55),
        ),
    )
    pair = render_pair(scene, RIG)
    truth_interval = tuple(pair.hidden[0]["right_frame"])
    result = disparity_map(pair.left, pair.right, PIPELINE)
    report = result.reports[0]
    quotient = pair.left[0].sum() / pair.right[0].sum()
    shift_exact = (
        round(report.object_shifts[0][1]) == 9
        and np.all(result.values[0, 20:46] == 9.0)
    )
    interval_exact = report.intervals == truth_interval == ((47, 50),)
    phi_hat = 1.0 / (1.0 - report.compression_plateau)
    phi_close = abs(phi_hat - quotient) < 5e-3
    verdict(
        "AC5 occlusion recovery",
        shift_exact and interval_exact and phi_close,
        f"shift 9 exact: {shift_exact}; interval {report.intervals} vs "
        f"{truth_interval}; phi {phi_hat:.6f} vs quotient {quotient:.6f}",
    )


def exact_shifted_plan(phi, n):
    """Closed-form compressed coupling: row i spreads its unit of
    source mass over the target cells covered by (phi*(i-1), phi*i].
    """
    m = int(math.ceil(phi * n)) + 1
    gamma = np.zeros((n, m))
    for i in range(1, n + 1):
        lo, hi = phi * (i - 1), phi * i
        for j in range(int(math.floor(lo)) + 1, int(math.ceil(hi)) + 1):
            overlap = min(hi, j) - max(lo, j - 1)
            if overlap > 0:
                gamma[i - 1, j - 1] = overlap
    return gamma


def test_ac6_compression_plateau_formula():
    details = []
    ok = True
    for phi in (0.5, 0.8, 0.95):
        delta = compression(disparity_profile(exact_shifted_plan(phi, 80)))
        expected = 1.0 - 1.0 / phi
        pairs = [
            0.5 * (delta[i] + delta[i + 1])
            for i in range(len(delta) - 1)
            if np.isfinite(delta[i])
            and np.isfinite(delta[i + 1])
            and abs(delta[i] - delta[i + 1]) <= 1e-9
        ]
        if pairs:
            gap = max(abs(p - expected) for p in pairs)
            est = estimate_phi(delta)
            ok = ok and gap <= 1e-6 and abs(est - phi) <= 1e-6
            details.append(f"phi={phi}: {len(pairs)} repeats, plateau gap {gap:.1e}")
        else:
            # at phi=0.5 the increments alternate between -1 and 0,
            # so no adjacent repeat exists and the uniqueness claim
            # is vacuous
            with pytest.raises(NoPlateauError):
                estimate_phi(delta)
            details.append(f"phi={phi}: no adjacent repeats (vacuous)")
            ok = ok and phi == 0.5
    verdict("AC6 compression formula", ok, "; ".join(details))


def test_ac7_depth_reconstruction():
    anchor = abs(depth_from_disparity(9, RIG) - 5000.0 / 9.0)
    scene = CartoonScene(
        width=80, height=4,
        objects=(shifted_object(6, 10, 5, 0.5), shifted_object(43, 12, 9, 0.7)),
    )
    pair = render_pair(scene, RIG)
    result = disparity_map(pair.left, pair.right, PIPELINE)
    cloud = reconstruct(result, RIG, pair.right)
    worst_shift = 0.0
    for x, y, z, _ in cloud:
        true_shift = pair.truth.values[int(y), int(x)]
        recovered_shift = RIG.focal * RIG.baseline / (RIG.beta * z)
        worst_shift = max(worst_shift, abs(recovered_shift - true_shift))
    covered = len(cloud) == int((~pair.truth.no_data).sum())
    verdict(
        "AC7 depth reconstruction",
        anchor <= 1e-9 and covered and worst_shift <= 0.5,
        f"5000/9 anchor gap {anchor:.1e}; {len(cloud)} points; "
        f"worst disparity error {worst_shift:.3f} px (quantization band 0.5)",
    )


def test_ac8_invariant_suites():
    rng = np.random.default_rng(88)
    violations = {"projection": 0, "contraction": 0, "scale": 0, "monotone": 0}

    for _ in range(50):
        entries = rng.uniform(0.1, 1.0, size=(10, 10))
        target = rng.uniform(0.1, 1.0, size=10)
        if np.abs(project_rows(entries, target).sum(axis=1) - target).max() > 1e-12:
            violations["projection"] += 1
        if np.abs(project_cols(entries, target).sum(axis=0) - target).max() > 1e-12:
            violations["projection"] += 1

    kern = build_kernel(6, 25.0)
    lam = kern.lam
    K = kernel_entries(kern)
    for _ in range(1000):
        x = rng.uniform(0.1, 10.0, size=6)
        y = rng.uniform(0.1, 10.0, size=6)
        lhs = hilbert_distance(K @ x, K @ y)
        if lhs > lam * hilbert_distance(x, y) + 1e-12:
            violations["contraction"] += 1

    for _ in range(100):
        entries = rng.uniform(0.0, 1.0, size=(9, 9))
        entries[rng.uniform(size=(9, 9)) < 0.4] = 0.0
        base = disparity_profile(entries)
        for factor in (0.5, 2.0, 1000.0):
            other = disparity_profile(factor * entries)
            gap = np.abs(base - other)[np.isfinite(base)]
            if gap.size and gap.max() > 1e-12:
                violations["scale"] += 1

    for _ in range(100):
        a = rng.integers(0, 5, size=8) / 8.0
        if a.sum() == 0.0:
            continue
        b = rng.permutation(a)
        entries = monotone_plan(a, b)
        rows, cols = np.nonzero(entries)
        for p in range(len(rows)):
            later = rows > rows[p]
            if np.any(cols[later] < cols[p]):
                violations["monotone"] += 1
                break

    total = sum(violations.values())
    verdict(
        "AC8 invariant suites",
        total == 0,
        "violations: " + ", ".join(f"{k} {v}" for k, v in violations.items()),
    )
