import math

import numpy as np
import pytest

from qstar import (
    InvalidParams,
    InvalidSchwarz,
    OutOfRange,
    SchurParams,
    SchwarzSeries,
    canonical_schwarz,
    schur_expand,
    schur_rows,
    schur_test,
    schwarz_b2b3,
)

from _oracles import GaussFraction, caratheodory_p2p3, frac_div, frac_series
from qstar.schwarz import UNIT_TOL
from qstar.series import Coefficients


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
    assert w.coeffs.tolist() == [0, 1] + [0] * 7


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


def exact_schur_chain(gammas, order):
    """b_0 .. b_order of the Schur chain in exact complex rationals: the
    floats' exact values, cut at the first |g| >= 1 - UNIT_TOL."""
    cut = next((k for k, g in enumerate(gammas) if abs(g) >= 1.0 - UNIT_TOL), len(gammas) - 1)
    gs = [GaussFraction(complex(g)) for g in gammas[:cut + 1]]
    phi = [gs[-1]] + [GaussFraction(0)] * order
    for g in reversed(gs[:-1]):
        # phi <- (g + z phi) / (1 + conj(g) z phi)
        zphi = [GaussFraction(0)] + phi[:-1]
        num = [g] + zphi[1:]
        den = [GaussFraction(1)] + [g.conjugate() * v for v in zphi[1:]]
        phi = frac_div(num, den)
    return [0j] + [complex(v) for v in phi[:-1]]


@pytest.mark.parametrize("order, grid", [(8, None), (32, 16)])
def test_schur_rows_match_the_exact_rational_chain(order, grid):
    # every depth 1-6, with a unit-modulus parameter at each position and
    # without one; at order 8 every other one lies 5e-13 inside the circle,
    # where the chain still stops (UNIT_TOL); at order 32 the parameters are
    # multiples of 1/16 and the unit ones powers of i, which keeps the exact
    # rationals small
    rng = np.random.default_rng(8)
    for depth in range(1, 7):
        g = 0.999 * np.sqrt(rng.uniform(size=(depth + 1, depth))) * np.exp(
            2j * np.pi * rng.uniform(size=(depth + 1, depth)))
        if grid:
            g = (np.trunc(g.real * grid) + 1j * np.trunc(g.imag * grid)) / grid
        for p in range(depth):
            g[p, p] = 1j**p if grid else (1.0 - 5e-13 * (p % 2)) * np.exp(
                2j * np.pi * rng.uniform())
        b = schur_rows(g, order)
        assert b.shape == (depth + 1, order + 1)
        for row, gammas in zip(b, g):
            exact = exact_schur_chain(list(gammas), order)
            assert np.abs(row - exact).max() <= 1e-14, gammas
            # the one-row wrapper is the same kernel
            assert np.array_equal(schur_expand(SchurParams(tuple(gammas)), order).coeffs, row)


def test_schur_rows_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        schur_rows(np.array([[0.5, 1.5]]), 4)
    with pytest.raises(InvalidParams):
        schur_rows(np.array([[0.5, complex(float("nan"), 0.0)]]), 4)
    with pytest.raises(InvalidParams):
        schur_rows(np.zeros((3, 0)), 4)
    with pytest.raises(OutOfRange):
        schur_rows(np.zeros((3, 2)), 0)


def test_schur_parameters_follow_the_complex_number_rule():
    # a string is not parsed, and True is not the unit parameter that ends
    # the chain: the rule of Coefficients, shared
    with pytest.raises(OutOfRange, match="'0.5' is not a complex number"):
        SchurParams(("0.5", True))
    with pytest.raises(OutOfRange, match="True is not a complex number"):
        SchurParams((0.5, True))
    with pytest.raises(OutOfRange, match="'0.5' is not a complex number"):
        schur_rows([["0.5", True]], 3)
    with pytest.raises(OutOfRange, match="True is not a complex number"):
        schur_rows([[0.5, True]], 3)
    with pytest.raises(OutOfRange, match=r"\[0.2\] is not a complex number"):
        schur_rows([[0.5, 0.1], [0.2]], 3)  # ragged
    with pytest.raises(OutOfRange, match="x = '0.3' is not a complex number"):
        schwarz_b2b3(0.5, "0.3")
    with pytest.raises(OutOfRange, match="b1 = True is not a complex number"):
        canonical_schwarz("blaschke_remark", 3, b1=True)
    # numeric input of any type is unchanged
    mixed = (0.5, 0, np.float32(0.25), -0.5j, np.complex64(0.1 + 0.2j), np.int64(0))
    exact = tuple(complex(g) for g in mixed)
    assert SchurParams(mixed).gammas == exact
    want = schur_rows(np.array([exact]), 6)
    assert np.array_equal(schur_rows([list(mixed)], 6), want)
    assert np.array_equal(schur_rows(np.array([exact]).real, 6),
                          schur_rows([[0.5, 0, 0.25, 0, np.float32(0.1), 0]], 6))
    assert schwarz_b2b3(np.float32(0.5), np.int64(1), 0.5j) == schwarz_b2b3(0.5, 1.0, 0.5j)


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
    assert schwarz_b2b3(0.5, -1.0) == (b2, None)  # without y, b3 is not formed


def test_cross_parameterization():
    # the Caratheodory (p1, x, y) formulas pushed through the coefficient
    # relations of p = (1 + w)/(1 - w) reproduce schwarz_b2b3 at p1 = 2 b1
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


def test_schwarz_b2b3_range_checks():
    with pytest.raises(OutOfRange):
        schwarz_b2b3(1.2, 0, 0)
    with pytest.raises(OutOfRange):
        schwarz_b2b3(0.5, 1.3, 0)
    with pytest.raises(OutOfRange):
        schwarz_b2b3(0.5, 0, 1 + 1e-6)


# ----------------------------------------------------------------- canonical


def test_canonical_identity():
    w = canonical_schwarz("identity", 5)
    assert w.coeffs.tolist() == [0, 1] + [0] * 4


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
        assert abs(w.coeffs[k] - float(exact[k])) <= 1e-15
    assert abs(w.coeff(1) - 0.5) <= 1e-15
    assert abs(w.coeff(2) - (-0.75)) <= 1e-15
    assert abs(w.coeff(3) - (-0.375)) <= 1e-15


@pytest.mark.parametrize("b1", [0.0, 0.1, 0.5, 0.9, 0.999, 1.0])
def test_canonical_blaschke_closed_form_against_exact_division(b1):
    # the closed form against the exact division of the floats' values
    w = canonical_schwarz("blaschke_remark", 32, b1=b1)
    exact = frac_div(frac_series([0, -b1, 1], 32), frac_series([-1, b1], 32))
    assert w.order == 32
    for k in range(33):
        assert abs(w.coeff(k) - float(exact[k])) <= 1e-16


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


@pytest.mark.parametrize("w", [
    canonical_schwarz("identity", 16),
    canonical_schwarz("x_zsquared", 16, x=1j),
    canonical_schwarz("blaschke_remark", 16, b1=0.0),
    canonical_schwarz("blaschke_remark", 32, b1=0.5),
    canonical_schwarz("blaschke_remark", 32, b1=0.95),
])
def test_schur_test_terminated_chains_keep_margin_zero(w):
    # the chain ends in a unit parameter, and the remainder after it is
    # zero up to rounding
    assert abs(schur_test(w)[1]) <= 1e-15


@pytest.mark.parametrize("b1", [1.0, 1.0 - 1e-13, -1j])
def test_schur_test_flags_a_tail_after_a_unit_parameter(b1):
    # a unit parameter makes w the rotation b1 z, so the remainder
    # 0.5 z^4 + 0.25 z^5 lowers the margin to -max |remainder|
    w = [0, b1, 0, 0, 0.5, -0.25] + [0] * 3
    g, margin = schur_test(w)
    assert g == (b1,)
    assert margin == -0.5


def test_schur_test_blow_up_after_a_near_unit_parameter_is_rejected():
    # |b1| = 1 - 1e-11 is no unit parameter, so the next step divides by
    # 1 - |b1|^2 = 2e-11; the b2 that a unit b1 forbids comes out as |g| > 1
    w = [0, 1.0 - 1e-11, 1e-3] + [0] * 6
    g, margin = schur_test(w)
    assert abs(g[1]) > 1.0
    assert margin < -1.0


def test_schur_test_flags_unbounded_series():
    w = [0, 2.0] + [0] * 5
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
        vals = np.polynomial.polynomial.polyval(0.9 * angles, w.coeffs)
        assert np.abs(vals).max() <= 1.0 + 1e-6


# ----------------------------------------------------------------- invariants


def test_schwarz_series_invariants():
    with pytest.raises(InvalidSchwarz):
        SchwarzSeries([0.1, 1, 0, 0])
    with pytest.raises(InvalidSchwarz):
        SchwarzSeries([0, 1.1, 0, 0])
    # |b1| <= 1 is false for NaN too, as for infinity
    for b1 in (math.nan, math.inf, complex(0.0, math.nan)):
        with pytest.raises(InvalidSchwarz, match=r"\|b1\| = (nan|inf) exceeds 1"):
            SchwarzSeries([0, b1])
    # only numbers: a string is not parsed, however it reads
    with pytest.raises(OutOfRange, match="'0.1' is not a complex number"):
        SchwarzSeries(["0", "0.5", "0.1"])
    with pytest.raises(OutOfRange, match="'x' is not a complex number"):
        Coefficients([0, "x"])
    with pytest.raises(OutOfRange, match=r"\[0.5, 0.1\] is not a complex number"):
        SchwarzSeries([0, [0.5, 0.1], 0.2])  # ragged
