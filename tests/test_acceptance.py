"""Acceptance gate: nine release criteria, one test and one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion pins its tolerances and, where one applies, a runtime
budget measured with ``time.perf_counter``.
"""

import math
import time

import numpy as np

from taurho import (
    Prototype,
    check_almost_decreasing_classification,
    check_delta_construction,
    check_main_inequality,
    check_perturbation_identities,
    check_swap_descent,
    check_triangle_inequality,
    classical_area_quadrature,
    classical_contains,
    contains,
    flip,
    inverse,
    area_closed_form,
    area_quadrature,
    oracle_tau_rho,
    phi_boundary,
    prototype_for_tau,
    prototype_shuffle,
    realize,
    tau_rho,
)
from conftest import random_shuffle


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def test_criterion_1_sharp_points():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 21):
        point = tau_rho(prototype_shuffle(prototype_for_tau(-1.0 + 2.0 / n)))
        worst = max(
            worst,
            abs(point.tau - (-1.0 + 2.0 / n)),
            abs(point.rho - (-1.0 + 2.0 / n**2)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        1,
        "sharp corner points (-1+2/n, -1+2/n^2) hit exactly for n = 2..20",
        ok,
        f"worst |dev| {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_prototype_formulas():
    t0 = time.perf_counter()
    rng = _rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        r = float(rng.uniform(1.0 / n, 1.0 / (n - 1)))
        point = tau_rho(prototype_shuffle(Prototype(n, r)))
        m = n - 1
        tau_c = 1.0 - 4.0 * m * r + 2.0 * r * r * n * m
        rho_c = 1.0 - 2.0 * r * m * (3.0 - 3.0 * r * m + r * r * (n - 2) * n)
        worst = max(worst, abs(point.tau - tau_c), abs(point.rho - rho_c))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        2,
        "closed-form tau/rho of 1000 random prototypes (n <= 50) match measurement",
        ok,
        f"worst |dev| {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_main_inequality_sweep():
    t0 = time.perf_counter()
    report = check_main_inequality(n_max=6, grid_steps=10)
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.worst_margin >= -1e-10 and elapsed <= 600.0
    _report(
        3,
        "b >= theta(a) over every permutation up to n = 6 on the step-1/10 "
        "weight lattice, with equality at prototype lattice points",
        ok,
        f"{report.instances_tested} instances, worst margin "
        f"{report.worst_margin:.3e} (>= -1e-10), {elapsed:.1f}s (<= 600s); "
        f"{report.notes.split(';')[1].strip()}",
    )


def test_criterion_4_oracle_agreement():
    t0 = time.perf_counter()
    rng = _rng(808)
    worst = 0.0
    for _ in range(200):
        shuffle = random_shuffle(rng, n_max=8)
        point = tau_rho(shuffle)
        est = oracle_tau_rho(shuffle, grid_m=4000)
        worst = max(worst, abs(point.tau - est.tau), abs(point.rho - est.rho))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed <= 120.0
    _report(
        4,
        "closed-form tau/rho vs 4000-point rank oracle on 200 seeded shuffles",
        ok,
        f"worst componentwise |dev| {worst:.3e} (tol 5e-3), "
        f"{elapsed:.1f}s (<= 120s)",
    )


def test_criterion_5_realization_round_trip():
    rng = _rng(515)
    targets = []
    while len(targets) < 500:
        t = float(rng.uniform(-1.0, 1.0))
        r = float(rng.uniform(-1.0, 1.0))
        if contains((t, r)):
            targets.append((t, r))
    t0 = time.perf_counter()
    worst = 0.0
    for t, r in targets:
        shuffle, _ = realize((t, r))
        point = tau_rho(shuffle)
        worst = max(worst, math.hypot(point.tau - t, point.rho - r))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _report(
        5,
        "realize() round-trips 500 seeded uniform points of the region",
        ok,
        f"worst residual {worst:.3e} (tol 1e-6), {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_6_area():
    closed = area_closed_form()
    quad = area_quadrature(1e-10)
    classical = classical_area_quadrature(1e-10)
    dev_quad = abs(quad - closed)
    dev_classical = abs(classical - 7.0 / 6.0)
    ok = dev_quad <= 1e-8 and round(closed, 4) == 1.1543 and dev_classical <= 1e-10
    _report(
        6,
        "region area: quadrature matches 4/5 - (4/5)zeta(3) + (2/15)pi^2 "
        "~= 1.1543; classical region area is 7/6",
        ok,
        f"|quad - closed| {dev_quad:.3e} (tol 1e-8), closed {closed:.10f}, "
        f"|classical - 7/6| {dev_classical:.3e} (tol 1e-10)",
    )


def test_criterion_7_symmetries():
    rng = _rng(716)
    worst = 0.0
    for _ in range(500):
        shuffle = random_shuffle(rng, n_max=10)
        point = tau_rho(shuffle)
        flipped = tau_rho(flip(shuffle))
        inverted = tau_rho(inverse(shuffle))
        worst = max(
            worst,
            abs(flipped.tau + point.tau),
            abs(flipped.rho + point.rho),
            abs(inverted.tau - point.tau),
            abs(inverted.rho - point.rho),
        )
    ok = worst <= 1e-12
    _report(
        7,
        "flip antisymmetry and inverse invariance of (tau, rho) on 500 shuffles",
        ok,
        f"worst |dev| {worst:.3e} (tol 1e-12)",
    )


def test_criterion_8_classical_bounds():
    # The attainable region sits inside the classical one.
    grid = np.linspace(-1.0, 1.0, 200)
    escaped = 0
    for t in grid:
        for r in grid:
            if contains((t, r)) and not classical_contains((t, r)):
                escaped += 1

    # Linear band |3 tau - 2 rho| <= 1 for every computed shuffle.
    rng = _rng(818)
    worst_band = 0.0
    for _ in range(500):
        point = tau_rho(random_shuffle(rng, n_max=10))
        worst_band = max(worst_band, abs(3.0 * point.tau - 2.0 * point.rho))

    # The quadratic lower bound stays strictly below the true boundary
    # between corner points and touches it exactly at the corners.
    quad_lower = lambda x: (1.0 + x) ** 2 / 2.0 - 1.0
    min_gap = math.inf
    for n in range(2, 11):
        mid = (-1.0 + 2.0 / n - 1.0 + 2.0 / (n - 1)) / 2.0
        min_gap = min(min_gap, phi_boundary(mid) - quad_lower(mid))
    worst_corner = max(
        abs(phi_boundary(-1.0 + 2.0 / n) - quad_lower(-1.0 + 2.0 / n))
        for n in range(2, 11)
    )

    ok = (
        escaped == 0
        and worst_band <= 1.0 + 1e-12
        and min_gap > 1e-6
        and worst_corner <= 1e-12
    )
    _report(
        8,
        "classical-bound relations: region containment on a 200x200 grid, "
        "the linear band, and the quadratic lower bound",
        ok,
        f"{escaped} grid escapes, band max {worst_band:.6f} (<= 1+1e-12), "
        f"min mid-segment gap {min_gap:.3e} (> 1e-6), corner dev "
        f"{worst_corner:.3e} (tol 1e-12)",
    )


def test_criterion_9_combinatorial_checks():
    seed = 909
    reports = [
        check_almost_decreasing_classification(7),
        check_perturbation_identities(1000, seed),
        check_triangle_inequality(500, seed),
        check_delta_construction(500, seed),
        check_swap_descent(500, seed),
    ]
    exhaustive_ok = reports[0].instances_tested == 5913
    ok = all(r.passed for r in reports) and exhaustive_ok
    failed = [r.check_name for r in reports if not r.passed]
    _report(
        9,
        "pattern classification exhaustive to length 7 plus perturbation, "
        "triangle, delta-construction, and swap-descent checks",
        ok,
        f"{reports[0].instances_tested} permutations enumerated; "
        + ("all sampled checks passed" if not failed else f"failed: {failed}"),
    )
