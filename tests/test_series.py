import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstar import (
    ClassParams,
    DegenerateDivisor,
    DivisorNearZero,
    InnerNotVanishing,
    OutOfRange,
    PowerSeries,
)
from qstar.series import check_divisors, q_difference, q_kernel, q_number, q_numbers

from _oracles import frac_compose, frac_div, frac_series, kernel_coefficient


def series(values, order):
    return PowerSeries.from_coeffs(values, order)


def assert_coeffs(ps, expected, tol=1e-12):
    got = ps.coeffs
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert abs(g - complex(e)) <= tol, (got, expected)


# ----------------------------------------------------------------- arithmetic


def test_mul_binomial_identity():
    f = series([1, 1], 4) * series([1, -1], 4)
    assert_coeffs(f, [1, 0, -1, 0, 0], tol=0)


def test_reciprocal_geometric():
    assert_coeffs(series([1, -1], 3).reciprocal(), [1, 1, 1, 1], tol=0)


def test_divide_against_exact_long_division():
    got = series([1, 1], 2) / series([1, -1], 2)
    expected = frac_div(frac_series([1, 1], 2), frac_series([1, -1], 2))
    assert_coeffs(got, [float(e) for e in expected])
    assert_coeffs(got, [1, 2, 2], tol=0)


def test_divide_random_against_exact_long_division():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = [int(v) for v in rng.integers(-5, 6, size=7)]
        b = [int(v) for v in rng.integers(-5, 6, size=7)]
        if b[0] == 0:
            b[0] = 3
        got = series(a, 6) / series(b, 6)
        expected = frac_div(frac_series(a, 6), frac_series(b, 6))
        assert_coeffs(got, [float(e) for e in expected], tol=1e-10)


def test_divisor_near_zero_raises():
    with pytest.raises(DivisorNearZero):
        series([0, 1], 3).reciprocal()
    with pytest.raises(DivisorNearZero):
        series([1], 3) / series([1e-13, 1], 3)


def test_add_sub_orders_must_match():
    with pytest.raises(ValueError):
        series([1], 3) + series([1], 4)


# ----------------------------------------------------------------- compose


def test_compose_square_outer():
    outer = PowerSeries.monomial(2, 4)  # w^2
    inner = series([0, 1, 1], 4)  # z + z^2
    assert_coeffs(outer.compose(inner), [0, 0, 1, 2, 1], tol=0)


def test_compose_identity_outer_returns_inner():
    inner = series([0, 0.5, -0.25, 0.125], 3)
    got = PowerSeries.identity(3).compose(inner)
    assert_coeffs(got, inner.coeffs)


def test_compose_geometric_outer_halved_argument():
    outer = series([1, 1, 1], 2)  # 1/(1-w) to order 2
    inner = series([0, 0.5], 2)
    frac = frac_compose(frac_series([1, 1, 1], 2), frac_series([0, "1/2"], 2))
    got = outer.compose(inner)
    assert_coeffs(got, [float(v) for v in frac])
    assert_coeffs(got, [1, 0.5, 0.25])


def test_compose_rejects_nonvanishing_inner():
    with pytest.raises(InnerNotVanishing):
        series([1, 1], 2).compose(series([0.5, 1], 2))


# ----------------------------------------------------------------- hadamard


def test_hadamard_all_ones_kernel_strips_constant():
    f = series([3, 1, 4, 1, 5], 4)
    kernel = series([0, 1, 1, 1, 1], 4)  # z/(1-z)
    assert_coeffs(f.hadamard(kernel), [0, 1, 4, 1, 5], tol=0)


def test_hadamard_definition():
    got = series([0, 1, 2], 2).hadamard(series([0, 1, 3], 2))
    assert_coeffs(got, [0, 1, 6], tol=0)


def test_hadamard_q_kernel_matches_q_difference():
    zeta = 0.3 + 0.4j
    f = series([0, 1, -2, 0.5, 1j, 3], 5)
    kernel = q_kernel(zeta, 5)
    via_kernel = f.hadamard(kernel).shift(-1)
    direct = q_difference(f, zeta)
    assert_coeffs(via_kernel, direct.coeffs)


# ----------------------------------------------------------------- q-numbers


def test_q_number_examples():
    assert q_number(1, 0.77 + 0.1j) == 1
    assert q_number(3, 0.5) == pytest.approx(1.75)
    assert q_number(2, -1) == 0
    assert q_number(3, -1) == 1


def test_q_number_exact_at_one():
    for n in range(1, 65):
        assert q_number(n, 1.0) == n


def test_q_number_requires_positive_index():
    with pytest.raises(OutOfRange):
        q_number(0, 0.5)


@pytest.mark.parametrize("zeta", [0.5, 0.999, 1.0, -1.0, 0.6 * cmath.exp(1j * cmath.pi / 4)])
def test_q_numbers_bitwise_equal_to_q_number(zeta):
    qn = q_numbers(zeta, 64)
    assert len(qn) == 64
    for n in range(1, 65):
        # reference: the direct summation of 1 + zeta + ... + zeta**(n-1)
        acc, term = 0j, 1.0 + 0j
        for _ in range(n):
            acc += term
            term *= complex(zeta)
        assert qn[n - 1] == q_number(n, zeta) == acc


def test_check_divisors_first_degenerate_index():
    # zeta = -1: [2] - 1 = -1, [3] - 1 = 0 exactly
    qn = q_numbers(-1.0, 6)
    with pytest.raises(DegenerateDivisor) as exc:
        check_divisors(-1.0, qn)
    assert exc.value.n == 3
    assert check_divisors(-1.0, qn[:2]) == [0j, -1.0]
    assert check_divisors(-1.0, qn[:4], first=4) == [0j, -1.0, 0j, -1.0]
    # zeta = i: [2] - 1 = i, [3] - 1 = -1 + i, [4] - 1 = -1, [5] - 1 = 0
    with pytest.raises(DegenerateDivisor) as exc:
        check_divisors(1j, q_numbers(1j, 8))
    assert exc.value.n == 5
    # the divisors are zeta [n-1], exact where [n] - 1 would cancel
    assert check_divisors(1e-9, q_numbers(1e-9, 3))[1:] == [1e-9, 1e-9 * (1.0 + 1e-9)]


def test_kernel_coefficients_equal_q_numbers():
    # includes boundary |zeta| = 1 and zeta = 1 itself
    zetas = [0.5, -0.5, 0.9j, 0.6 * cmath.exp(1j), cmath.exp(0.3j), 1.0]
    for zeta in zetas:
        kernel = q_kernel(zeta, 16)
        for n in range(1, 17):
            assert abs(kernel.coeffs[n] - q_number(n, zeta)) <= 1e-12
            assert abs(kernel.coeffs[n] - kernel_coefficient(complex(zeta), n)) <= 1e-10


# ----------------------------------------------------------------- q-difference


def test_q_difference_basic():
    assert_coeffs(q_difference(PowerSeries.identity(3), 0.77), [1, 0, 0], tol=0)
    got = q_difference(PowerSeries.monomial(2, 3), 0.5)
    assert_coeffs(got, [0, 1.5, 0], tol=0)


def test_q_difference_classical_limit():
    f = series([2, -1, 3, 0.5, 1], 4)
    got = q_difference(f, 1.0)
    assert_coeffs(got, [-1, 6, 1.5, 4], tol=0)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
def test_q_difference_pointwise_formula(q):
    rng = np.random.default_rng(42)
    for _ in range(20):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = PowerSeries(tuple(c))
        # expand (f(z) - f(qz)) / ((1-q) z) symbolically through series ops
        fq = PowerSeries(tuple(ci * q**i for i, ci in enumerate(c)))
        diff = (f - fq) * (1.0 / (1.0 - q))
        expected = diff.shift(-1)
        got = q_difference(f, q)
        assert_coeffs(got, expected.coeffs)


# ----------------------------------------------------------------- evaluation


def test_evaluate_examples():
    assert series([1, 1, 1], 2).evaluate(0) == 1
    z = 0.3 + 0.4j
    assert PowerSeries.identity(4).evaluate(z) == z


def test_evaluate_geometric_tail():
    geom = series([1] * 21, 20)
    val = geom.evaluate(0.5)
    assert abs(val - 2.0) <= 2e-6
    assert abs(val - (2.0 - 0.5**20)) <= 1e-15


# ----------------------------------------------------------------- truncation


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
def test_truncation_homomorphism_products(a, b):
    # degree <= N/2 factors: truncated product == exact polynomial product
    order = 8
    exact = np.polynomial.polynomial.polymul(a, b)
    got = series(a, order) * series(b, order)
    assert_coeffs(got, list(exact) + [0] * (order + 1 - len(exact)), tol=0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=4))
def test_truncation_homomorphism_compose(outer):
    inner = [0, 1, 1]
    order = 12  # large enough that nothing truncates for these degrees
    exact = frac_compose(frac_series(outer, order), frac_series(inner, order))
    got = series(outer, order).compose(series(inner, order))
    assert_coeffs(got, [float(v) for v in exact], tol=0)


# ----------------------------------------------------------------- params


def test_class_params_validation():
    ClassParams(0.5)
    ClassParams(0.6 * cmath.exp(1j * cmath.pi / 4), 0.25)
    with pytest.raises(OutOfRange):
        ClassParams(1.5)
    with pytest.raises(OutOfRange):
        ClassParams(0.5, 1.0)
    with pytest.raises(OutOfRange):
        ClassParams(0.5, -0.1)
    for zeta in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(OutOfRange):
            ClassParams(zeta)


def test_class_params_q_accessor():
    assert ClassParams(0.5).q == 0.5
    with pytest.raises(OutOfRange):
        _ = ClassParams(0.5j).q
