import numpy as np
import pytest

from qstar import (
    CaratheodorySeries,
    InvalidParams,
    InvalidSchwarz,
    OutOfRange,
    PowerSeries,
    SchurParams,
    SchwarzSeries,
    canonical_schwarz,
    caratheodory_p2p3,
    caratheodory_to_schwarz,
    schur_expand,
    schur_test,
    schwarz_b2b3,
    schwarz_to_caratheodory,
)

from _oracles import frac_div, frac_series


def disk_points(rng, n):
    pts = []
    while len(pts) < n:
        u, v = rng.uniform(-1, 1, size=2)
        if u * u + v * v <= 1.0:
            pts.append(complex(u, v))
    return pts


# ----------------------------------------------------------------- expansion


def test_schur_expand_unit_parameter_is_identity():
    w = schur_expand(SchurParams((1.0,)), 8)
    assert w.series.coeffs == PowerSeries.identity(8).coeffs


def test_schur_expand_zero_leading_parameter():
    x = 0.3 - 0.2j
    w = schur_expand(SchurParams((0.0, x)), 8)
    assert w.coeff(1) == 0
    assert abs(w.coeff(2) - x) <= 1e-15
    assert abs(w.coeff(3)) <= 1e-15


def test_schur_expand_matches_triple_formula():
    w = schur_expand(SchurParams((0.5, -1.0, 0.3)), 8)
    assert abs(w.coeff(1) - 0.5) <= 1e-15
    assert abs(w.coeff(2) - (-0.75)) <= 1e-15
    # |x| = 1 suppresses y: b3 = 0.75 * (0 - 0.5) = -0.375
    assert abs(w.coeff(3) - (-0.375)) <= 1e-15


def test_schur_expand_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        SchurParams((1.5,))
    with pytest.raises(InvalidParams):
        SchurParams(())
    with pytest.raises(InvalidParams):
        SchurParams((0.5, complex(float("nan"), 0.0)))


def test_parameterization_equivalence_random():
    # b2, b3 read off the chain match the closed triple formulas
    rng = np.random.default_rng(11)
    for _ in range(300):
        b1 = rng.uniform(0.0, 1.0)
        x, y = disk_points(rng, 2)
        w = schur_expand(SchurParams((b1, x, y)), 6)
        b2, b3 = schwarz_b2b3(b1, x, y)
        assert abs(w.coeff(2) - b2) <= 1e-12
        assert abs(w.coeff(3) - b3) <= 1e-12


# ----------------------------------------------------------------- triples


def test_schwarz_b2b3_examples():
    assert schwarz_b2b3(1.0, 0.3 + 0.1j, -0.5j) == (0j, 0j)
    x, y = 0.25 - 0.5j, 0.1 + 0.2j
    b2, b3 = schwarz_b2b3(0.0, x, y)
    assert b2 == x
    assert abs(b3 - (1 - abs(x) ** 2) * y) <= 1e-15
    b2, b3 = schwarz_b2b3(0.5, -1.0, 0.7)
    assert abs(b2 - (-0.75)) <= 1e-15
    assert abs(b3 - (-0.375)) <= 1e-15


def test_schwarz_b2b3_range_checks():
    with pytest.raises(OutOfRange):
        schwarz_b2b3(1.2, 0, 0)
    with pytest.raises(OutOfRange):
        schwarz_b2b3(0.5, 1.3, 0)
    with pytest.raises(OutOfRange):
        schwarz_b2b3(0.5, 0, 1 + 1e-6)


def test_caratheodory_p2p3_examples():
    # p1 = 2 collapses every x, y term
    assert caratheodory_p2p3(2.0, 0.9j, -0.4) == (2.0 + 0j, 2.0 + 0j)
    # x = -1 gives p2 = p1^2 - 2 regardless of y
    for p1 in (0.0, 0.7, 1.3, 2.0):
        p2, _ = caratheodory_p2p3(p1, -1.0, 0.77j)
        assert abs(p2 - (p1 * p1 - 2.0)) <= 1e-15
    # direct substitution at (1, 0.5, 0)
    p2, p3 = caratheodory_p2p3(1.0, 0.5, 0.0)
    assert abs(p2 - 1.25) <= 1e-15
    assert abs(p3 - 0.8125) <= 1e-15


# ----------------------------------------------------------------- conversion


def test_convert_identity_schwarz_gives_half_plane_kernel():
    w = canonical_schwarz("identity", 6)
    p = schwarz_to_caratheodory(w)
    assert p.series.coeffs == (1, 2, 2, 2, 2, 2, 2)


def test_convert_zero_gives_one():
    w = SchwarzSeries(PowerSeries.constant(0.0, 5))
    p = schwarz_to_caratheodory(w)
    assert p.series.coeffs == (1, 0, 0, 0, 0, 0)


def test_convert_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = disk_points(rng, 3)
        w = schur_expand(SchurParams(tuple(g)), 10)
        back = caratheodory_to_schwarz(schwarz_to_caratheodory(w))
        for k in range(11):
            assert abs(back.series.coeffs[k] - w.series.coeffs[k]) <= 1e-12


def test_convert_first_three_coefficient_relations():
    # 2 b1 = p1, 4 b2 = 2 p2 - p1^2, 8 b3 = 4 p3 - 4 p1 p2 + p1^3
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = disk_points(rng, 3)
        w = schur_expand(SchurParams(tuple(g)), 8)
        p = schwarz_to_caratheodory(w)
        b1, b2, b3 = w.coeff(1), w.coeff(2), w.coeff(3)
        p1, p2, p3 = p.coeff(1), p.coeff(2), p.coeff(3)
        assert abs(2 * b1 - p1) <= 1e-12
        assert abs(4 * b2 - (2 * p2 - p1**2)) <= 1e-12
        assert abs(8 * b3 - (4 * p3 - 4 * p1 * p2 + p1**3)) <= 1e-12


def test_convert_known_triple():
    # (b1, b2, b3) = (0.5, -0.75, -0.375) -> (p1, p2, p3) = (1, -1, -2),
    # frozen from direct Mobius expansion of (1 + w)/(1 - w)
    w = schur_expand(SchurParams((0.5, -1.0, 0.7)), 6)
    p = schwarz_to_caratheodory(w)
    assert abs(p.coeff(1) - 1.0) <= 1e-12
    assert abs(p.coeff(2) - (-1.0)) <= 1e-12
    assert abs(p.coeff(3) - (-2.0)) <= 1e-12


def test_cross_parameterization():
    # caratheodory_p2p3 pushed through the coefficient relations reproduces
    # schwarz_b2b3 when p1 = 2 b1
    rng = np.random.default_rng(17)
    for _ in range(1000):
        b1 = rng.uniform(0.0, 1.0)
        x, y = disk_points(rng, 2)
        p1 = 2.0 * b1
        p2, p3 = caratheodory_p2p3(p1, x, y)
        b2_via = (2.0 * p2 - p1 * p1) / 4.0
        b3_via = (4.0 * p3 - 4.0 * p1 * p2 + p1**3) / 8.0
        b2, b3 = schwarz_b2b3(b1, x, y)
        assert abs(b2 - b2_via) <= 1e-12
        assert abs(b3 - b3_via) <= 1e-12


# ----------------------------------------------------------------- canonical


def test_canonical_identity():
    w = canonical_schwarz("identity", 5)
    assert w.series.coeffs == PowerSeries.identity(5).coeffs


def test_canonical_x_zsquared():
    w = canonical_schwarz("x_zsquared", 5, x=1j)
    assert w.coeff(2) == 1j
    assert all(w.coeff(k) == 0 for k in (0, 1, 3, 4, 5))


def test_canonical_blaschke_long_division_oracle():
    b1 = 0.5
    w = canonical_schwarz("blaschke_remark", 6, b1=b1)
    exact = frac_div(
        frac_series([0, "-1/2", 1], 6), frac_series([-1, "1/2"], 6)
    )
    for k in range(7):
        assert abs(w.series.coeffs[k] - float(exact[k])) <= 1e-15
    assert abs(w.coeff(1) - 0.5) <= 1e-15
    assert abs(w.coeff(2) - (-0.75)) <= 1e-15
    assert abs(w.coeff(3) - (-0.375)) <= 1e-15


def test_canonical_blaschke_is_x_minus_one_case():
    for b1 in (0.1, 0.4, 0.9):
        w = canonical_schwarz("blaschke_remark", 8, b1=b1)
        assert abs(w.coeff(1) - b1) <= 1e-14
        assert abs(w.coeff(2) - (-(1 - b1 * b1))) <= 1e-14


def test_canonical_unknown_kind():
    with pytest.raises(OutOfRange):
        canonical_schwarz("moebius", 4)


# ----------------------------------------------------------------- schur test


def test_schur_test_identity():
    g, margin = schur_test(canonical_schwarz("identity", 8))
    assert g[0] == 1
    assert margin == 0.0


def test_schur_test_recovers_terminated_chain():
    w = schur_expand(SchurParams((0.5, -1.0, 0.3)), 12)
    g, margin = schur_test(w)
    assert abs(g[0] - 0.5) <= 1e-12
    assert abs(g[1] - (-1.0)) <= 1e-12
    assert len(g) == 2  # |x| = 1 terminates the chain
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_schur_test_flags_unbounded_series():
    w = PowerSeries.from_coeffs([0, 2.0], 6)
    g, margin = schur_test(w)
    assert margin == pytest.approx(-1.0)


def test_schur_round_trip_random():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        depth = int(rng.integers(1, 6))
        g = tuple(disk_points(rng, depth))
        w = schur_expand(SchurParams(g), 32)
        got, margin = schur_test(w)
        assert margin >= -1e-9
        for k, expected in enumerate(g):
            if abs(abs(expected) - 1.0) <= 1e-12:
                break
            assert abs(got[k] - expected) <= 1e-9, (g, got)


def test_boundary_samples_stay_in_disk():
    # |w(0.9 e^{i t})| <= 1 + 1e-6 for truncated constructed instances
    rng = np.random.default_rng(99)
    instances = [
        canonical_schwarz("identity", 32),
        canonical_schwarz("x_zsquared", 32, x=0.99j),
        canonical_schwarz("blaschke_remark", 32, b1=0.5),
        canonical_schwarz("blaschke_remark", 32, b1=0.95),
    ]
    for _ in range(200):
        depth = int(rng.integers(1, 6))
        instances.append(schur_expand(SchurParams(tuple(disk_points(rng, depth))), 32))
    angles = np.exp(2j * np.pi * np.arange(360) / 360)
    for w in instances:
        coeffs = np.asarray(w.series.coeffs)
        vals = np.polynomial.polynomial.polyval(0.9 * angles, coeffs)
        assert np.abs(vals).max() <= 1.0 + 1e-6


# ----------------------------------------------------------------- invariants


def test_schwarz_series_invariants():
    with pytest.raises(InvalidSchwarz):
        SchwarzSeries(PowerSeries.from_coeffs([0.1, 1], 3))
    with pytest.raises(InvalidSchwarz):
        SchwarzSeries(PowerSeries.from_coeffs([0, 1.1], 3))


def test_caratheodory_series_invariants():
    CaratheodorySeries(PowerSeries.from_coeffs([1, 2], 3))
    with pytest.raises(OutOfRange):
        CaratheodorySeries(PowerSeries.from_coeffs([0.9, 0], 3))
    with pytest.raises(OutOfRange):
        CaratheodorySeries(PowerSeries.from_coeffs([1, 2.1], 3))
