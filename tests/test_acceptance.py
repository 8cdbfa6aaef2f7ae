"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import cmath
import math
import time

import numpy as np

from qstar import (
    BoundQuery,
    CaseFlag,
    ClassParams,
    FunctionalId,
    SearchSpec,
    StarlikeFunction,
    bound_value,
    canonical_schwarz,
    coeffs_from_schwarz,
    disk_quadratic_max_closed,
    disk_quadratic_max_grid,
    extremal_by_formula,
    extremal_product,
    h2_quadratic_triple,
    maximize_functional,
    membership_margin,
    named_functional,
    random_schwarz_suite,
    rotated_extremal_values,
    schwarz_cubic_functional,
)


def report(number, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_three_way_extremal_agreement():
    t0 = time.time()
    worst = 0.0
    for q in (0.3, 0.5, 0.7, 0.9):
        params = ClassParams(q)
        rec = coeffs_from_schwarz(canonical_schwarz("identity", 12), params, 12)
        prod = extremal_product(params, 12)
        form = extremal_by_formula(params, 12)
        for n in range(1, 13):
            worst = max(
                worst,
                rel_err(rec.coeff(n), prod.coeff(n)),
                rel_err(rec.coeff(n), form.coeff(n)),
                rel_err(prod.coeff(n), form.coeff(n)),
            )
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    assert report(
        1,
        "three-way extremal agreement",
        ok,
        f"worst rel diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_initial_coefficient_attainment():
    t0 = time.time()
    params = ClassParams(0.5)
    f = extremal_product(params, 6)
    exact_ok = True
    for fid, n in (
        (FunctionalId.ABS_A2, 2),
        (FunctionalId.ABS_A3, 3),
        (FunctionalId.ABS_A4, 4),
    ):
        bound = bound_value(BoundQuery(fid, params))
        exact_ok &= abs(abs(f.coeff(n)) - bound) <= 1e-12 * max(1.0, bound)
    gaps = {}
    for fid in (FunctionalId.ABS_A3, FunctionalId.ABS_A4):
        res = maximize_functional(SearchSpec(fid, 0.5))
        gaps[fid.value] = res.gap
    elapsed = time.time() - t0
    grid_ok = all(-1e-9 <= g <= 1e-2 for g in gaps.values())
    ok = exact_ok and grid_ok and elapsed < 120.0
    assert report(
        2,
        "initial coefficient bounds attained",
        ok,
        f"gaps {gaps}, {elapsed:.1f}s",
    )


def test_criterion_3_hankel_suite():
    details = []
    ok = True
    for q in (0.5, 0.8):
        for fid in (FunctionalId.FEKETE_A2A3_A4, FunctionalId.H1_2, FunctionalId.H2_2):
            res = maximize_functional(SearchSpec(fid, q))
            ok &= -1e-9 <= res.gap <= 1e-2
            details.append(f"{fid.value}@{q}:{res.gap:.1e}")
        slice_res = maximize_functional(
            SearchSpec(FunctionalId.H2_2, q, a2_zero=True)
        )
        ok &= -1e-9 <= slice_res.gap <= 1e-2
        target = 4.0 / (q * q * (1.0 + q) ** 2)
        ok &= abs(slice_res.max_value - target) <= 1e-6
        ok &= abs(abs(slice_res.argmax[1]) - 1.0) <= 1e-9
        details.append(f"h2_2[b1=0]@{q}:{slice_res.gap:.1e}")
    assert report(3, "hankel-family sharpness", ok, " ".join(details))


def test_criterion_4_case_gap_positive():
    qs = np.linspace(0.001, 0.999, 1000)
    diffs = []
    for q in qs:
        p = ClassParams(float(q))
        diffs.append(
            bound_value(BoundQuery(FunctionalId.H2_2, p, case_flag=CaseFlag.A2_NONZERO))
            - bound_value(BoundQuery(FunctionalId.H2_2, p, case_flag=CaseFlag.A2_ZERO))
        )
    p = ClassParams(1.0 - 1e-8)
    tail = bound_value(
        BoundQuery(FunctionalId.H2_2, p, case_flag=CaseFlag.A2_NONZERO)
    ) - bound_value(BoundQuery(FunctionalId.H2_2, p, case_flag=CaseFlag.A2_ZERO))
    ok = min(diffs) > 0.0 and tail < 1e-6
    assert report(
        4,
        "second-Hankel case gap h(q) > 0 with h(1-) -> 0",
        ok,
        f"min {min(diffs):.3e}, tail {tail:.2e}",
    )


def test_criterion_5_classical_limits():
    q = 1.0 - 1e-6
    p = ClassParams(q)
    targets = [
        (BoundQuery(FunctionalId.ABS_A2, p), 2.0),
        (BoundQuery(FunctionalId.ABS_A3, p), 3.0),
        (BoundQuery(FunctionalId.ABS_A4, p), 4.0),
        (BoundQuery(FunctionalId.FEKETE_A2A3_A4, p), 2.0),
        (BoundQuery(FunctionalId.H2_2, p, case_flag=CaseFlag.A2_NONZERO), 1.0),
        (BoundQuery(FunctionalId.T1_2, p), 5.0),
        (BoundQuery(FunctionalId.T2_2, p), 13.0),
        (BoundQuery(FunctionalId.T3_2, p), 25.0),
        (BoundQuery(FunctionalId.T1_3, p), 24.0),
        (BoundQuery(FunctionalId.T2_3, p, case_flag=CaseFlag.A2_ZERO), 84.0),
        (BoundQuery(FunctionalId.T2_3, p, case_flag=CaseFlag.A2_NONZERO), 84.0),
    ]
    worst = max(rel_err(bound_value(query), limit) for query, limit in targets)
    ok = worst <= 1e-4
    assert report(5, "limits at q -> 1", ok, f"worst rel err {worst:.2e}")


def test_criterion_6_toeplitz_rotation_attainment():
    worst = 0.0
    for q in (0.5, 0.8):
        params = ClassParams(q)
        a2, a3, a4 = rotated_extremal_values(q)
        for fid in (
            FunctionalId.T1_2,
            FunctionalId.T2_2,
            FunctionalId.T3_2,
            FunctionalId.T1_3,
        ):
            achieved = named_functional(fid, a2, a3, a4)
            bound = bound_value(BoundQuery(fid, params))
            worst = max(worst, rel_err(achieved, bound))
    ok = worst <= 1e-9
    assert report(
        6,
        "pi/2-rotated extremal attains the Toeplitz bounds",
        ok,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_7_lemma_kit():
    # (a) closed disk maximum vs grid lower bound on random a*c >= 0 triples
    rng = np.random.default_rng(31)
    bracket_ok = True
    for _ in range(1000):
        a, b, c = rng.uniform(-10, 10, size=3)
        if a * c < 0:
            c = -c
        closed = disk_quadratic_max_closed(a, b, c)
        grid = disk_quadratic_max_grid(a, b, c)
        bracket_ok &= -1e-12 * max(1.0, closed) <= closed - grid <= 5e-3

    # (b) quadratic-triple identities and branch condition on a 50x50 grid
    triple_ok = True
    for q in np.linspace(0.02, 0.98, 50):
        for b1 in np.linspace(0.02, 0.98, 50):
            t = h2_quadratic_triple(float(q), float(b1))
            closed_expr = (1 - q) * b1 / ((1 + q) * (1 - b1 * b1)) + (
                1 + q + q * q
            ) / (b1 * (1 - b1 * b1) * (1 + q) ** 2)
            triple_ok &= abs(t.y - closed_expr) <= 1e-12 * max(1.0, closed_expr)
            triple_ok &= abs(t.y - (abs(t.a) + abs(t.b) + abs(t.c))) <= 1e-12 * max(
                1.0, t.y
            )
            triple_ok &= abs(t.b) - 2.0 * (1.0 - abs(t.c)) > 0.0

    # (c) cubic functional never exceeds |nu| on the theorem (mu, nu) pairs
    rng = np.random.default_rng(2024)
    n = 100000
    b1 = rng.uniform(0.0, 1.0, size=n)
    x = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
    y = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
    keep = (np.abs(x) <= 1) & (np.abs(y) <= 1)
    b1, x, y = b1[keep], x[keep], y[keep]
    one_m = 1.0 - b1 * b1
    b2 = x * one_m
    b3 = one_m * ((1.0 - np.abs(x) ** 2) * y - b1 * x * x)
    cubic_ok = True
    for q in (0.2, 0.5, 0.8):
        for mu, nu in (
            (2.0 / q, -(q + 2.0) / q),
            (
                (4 + 4 * q + 2 * q * q) / (q * (1 + q)),
                (4 + 4 * q + 3 * q * q + q**3) / (q * q * (1 + q)),
            ),
        ):
            cubic_ok &= bool(
                schwarz_cubic_functional(b1, b2, b3, mu, nu).max() <= abs(nu) + 1e-12
            )
    ok = bracket_ok and triple_ok and cubic_ok
    assert report(
        7,
        "lemma kit (disk max, quadratic triple, cubic functional)",
        ok,
        f"bracket={bracket_ok} triple={triple_ok} cubic={cubic_ok}",
    )


def test_criterion_8_complex_parameter_suite():
    t0 = time.time()
    violations = 0
    equality_ok = True
    for zeta in (0.6 * cmath.exp(1j * math.pi / 4), 0.9j, -0.5):
        for alpha in (0.0, 0.25):
            params = ClassParams(zeta, alpha)
            rep = random_schwarz_suite(params, seed=2026, count=10000, order=8)
            violations += sum(1 for it in rep.items if it.verdict == "VIOLATION")
            if zeta == -0.5 and alpha == 0.0:
                # the forced w = z sample attains the product bound exactly
                for it in rep.items:
                    if it.name.startswith("product"):
                        equality_ok &= abs(it.gap) <= 1e-9
                        equality_ok &= it.witness == "forced_z"
    elapsed = time.time() - t0
    ok = violations == 0 and equality_ok and elapsed < 60.0
    assert report(
        8,
        "complex-parameter inequality suite",
        ok,
        f"violations={violations} equality_ok={equality_ok} {elapsed:.1f}s",
    )


def test_criterion_9_membership_sanity():
    # The extremal's nearest pole is z = zeta/s, so at alpha = 0 its Taylor
    # series converges only for |z| < rho = q/(2-q).  The margin is sampled at
    # r_max = rho/2, where 64 terms fix z D f / f = (1 + z)/(1 - z) to
    # round-off; its exact minimum there is (1 - r)/(1 + r), attained at
    # z = -r_max, which the grid contains.
    margins, radius_ok, exact_ok = {}, True, True
    for q in (0.5, 0.8):
        f = extremal_product(ClassParams(q), 64)
        rho = q / (2.0 - q)
        radius_ok &= abs(abs(f.coeff(63) / f.coeff(64)) - rho) <= 1e-6
        r_max = rho / 2.0
        margins[q] = membership_margin(
            f, r_max=r_max, radial_steps=48, angular_steps=360
        )
        exact_ok &= abs(margins[q] - (1.0 - r_max) / (1.0 + r_max)) <= 1e-9
    # a polynomial is its own series, so r_max = 0.95 is meaningful for it
    perturbed = StarlikeFunction.from_coeffs([1, 10.0], ClassParams(0.5))
    neg = membership_margin(perturbed)
    ok = (
        radius_ok
        and exact_ok
        and all(m >= -1e-6 for m in margins.values())
        and neg < 0.0
    )
    assert report(
        9,
        "membership margins",
        ok,
        f"extremal margins {margins} radius_ok={radius_ok} exact_ok={exact_ok}, "
        f"perturbed {neg:.3g}",
    )
