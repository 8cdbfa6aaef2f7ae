import cmath
import math

import numpy as np
import pytest

from qstar import (
    ClassParams,
    DegenerateDivisor,
    InnerNotVanishing,
    OutOfRange,
)
from qstar.series import class_weights, exp_series, q_numbers

from _oracles import kernel_coefficient


# ----------------------------------------------------------------- exp_series


def test_exp_series_of_z_is_the_exponential():
    got = exp_series([0, 1] + [0] * 15)
    assert got.dtype == complex
    for k in range(17):
        assert abs(got[k] * math.factorial(k) - 1.0) <= 1e-15


def test_exp_series_of_minus_log_one_minus_z_is_geometric():
    # exp(sum_k z^k / k) = 1 / (1 - z)
    got = exp_series([0] + [1.0 / k for k in range(1, 33)])
    assert np.abs(got - 1.0).max() <= 1e-15


def test_exp_series_needs_a_vanishing_constant_term():
    with pytest.raises(InnerNotVanishing):
        exp_series([1e-13, 1.0, 0.5])
    exp_series([1e-15, 1.0, 0.5])  # within INNER_TOL


def test_exp_series_input_types_agree_bitwise():
    rng = np.random.default_rng(5)
    g = np.concatenate(([0j], rng.normal(size=24) + 1j * rng.normal(size=24)))
    ref = exp_series(g)
    for other in (g.tolist(), tuple(g.tolist())):
        assert ref.tobytes() == exp_series(other).tobytes()


# ----------------------------------------------------------------- q-numbers


def test_q_number_examples():
    assert q_numbers(0.77 + 0.1j, 1) == [1]
    assert q_numbers(0.5, 3)[-1] == pytest.approx(1.75)
    assert q_numbers(-1, 3)[1:] == [0, 1]


def test_q_number_exact_at_one():
    assert q_numbers(1.0, 64) == list(range(1, 65))


def test_q_number_requires_positive_index():
    with pytest.raises(OutOfRange):
        q_numbers(0.5, 0)


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
        assert qn[n - 1] == q_numbers(zeta, n)[-1] == acc


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
def test_q_difference_pointwise_formula(q):
    # scaling c[n] by [n] and shifting down one index is the Jackson
    # q-difference (f(z) - f(qz)) / ((1 - q) z), checked at points of the disk
    rng = np.random.default_rng(42)
    qn = np.array(q_numbers(q, 8))
    for _ in range(20):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        z = 0.8 * np.exp(2j * np.pi * rng.uniform(size=5))
        f = np.polynomial.polynomial.polyval
        expected = (f(z, c) - f(q * z, c)) / ((1.0 - q) * z)
        got = f(z, qn * c[1:])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_class_weights_first_degenerate_index():
    # zeta = -1: [2] - 1 = -1, [3] - 1 = 0 exactly
    with pytest.raises(DegenerateDivisor) as exc:
        class_weights(ClassParams(-1.0), 6)
    assert exc.value.n == 3
    assert class_weights(ClassParams(-1.0), 2)[1].tolist() == [0j, -1.0]
    # zeta = i: [2] - 1 = i, [3] - 1 = -1 + i, [4] - 1 = -1, [5] - 1 = 0
    with pytest.raises(DegenerateDivisor) as exc:
        class_weights(ClassParams(1j), 8)
    assert exc.value.n == 5
    # the divisors are zeta [n-1], exact where [n] - 1 would cancel
    d = class_weights(ClassParams(1e-9), 3)[1]
    assert d.tolist()[1:] == [1e-9, 1e-9 * (1.0 + 1e-9)]


def _same_bits(x, y):
    return all(np.array_equal(f(x), f(y)) for f in (
        np.real, np.imag, lambda v: np.signbit(v.real), lambda v: np.signbit(v.imag)))


@pytest.mark.parametrize("zeta", [1.0, -0.5, 0.01j, 0.5, 0.9j, 0.6 * cmath.exp(1j)])
@pytest.mark.parametrize("alpha", [0.0, 0.25])
def test_class_weights_are_the_class_sequences_bitwise(zeta, alpha):
    # w_k = (1 - 2 alpha) + [k] is formed in the requested precision; the
    # divisor D_k = zeta [k-1] in complex, where its degeneracy is tested
    params = ClassParams(zeta, alpha)
    qn = q_numbers(zeta, 24)
    for dtype in (complex, np.clongdouble):
        t = np.dtype(dtype).type
        w, d = class_weights(params, 24, dtype)
        assert w.dtype == d.dtype == np.dtype(dtype) and w.shape == d.shape == (24,)
        assert _same_bits(w, np.array([t(1.0 - 2.0 * alpha) + t(v) for v in qn]))
        assert _same_bits(d, np.array([t(0)] + [t(complex(zeta) * v) for v in qn[:-1]]))


def test_kernel_coefficients_equal_q_numbers():
    # includes boundary |zeta| = 1 and zeta = 1 itself
    zetas = [0.5, -0.5, 0.9j, 0.6 * cmath.exp(1j), cmath.exp(0.3j), 1.0]
    for zeta in zetas:
        for n, qn in enumerate(q_numbers(zeta, 16), start=1):
            assert abs(qn - kernel_coefficient(complex(zeta), n)) <= 1e-10


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
