import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import GaussFraction, exact_coefficients
from qstar.exact import Dyadic, recursion
from qstar.schwarz import schur_rows


def fraction(x):
    """A real Dyadic as a Fraction."""
    assert x.im == 0
    return Fraction(x.re) * Fraction(2) ** x.e


def gauss(x):
    """A Dyadic as a GaussFraction."""
    return GaussFraction(Fraction(x.re) * Fraction(2) ** x.e, Fraction(x.im) * Fraction(2) ** x.e)


def _doubles(rng, n):
    """Random doubles over the whole exponent range, both signs."""
    return [float(v) for v in rng.choice([-1.0, 1.0], n)
            * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1023, n))]


# ----------------------------------------------------------------- Dyadic


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, 0.1])
def test_dyadic_of_a_double_is_exact(x):
    for z in (complex(x, 0.0), complex(0.0, x), complex(x, -x), x):
        d = Dyadic.of(z)
        assert gauss(d) == GaussFraction(Fraction(z.real), Fraction(z.imag))


def test_dyadic_of_random_complex_doubles_is_exact():
    rng = np.random.default_rng(7)
    re, im = _doubles(rng, 500), _doubles(rng, 500)
    for z in map(complex, re, im):
        assert gauss(Dyadic.of(z)) == GaussFraction(Fraction(z.real), Fraction(z.imag))
    for z in rng.normal(size=50) + 1j * rng.normal(size=50):  # numpy scalars
        assert gauss(Dyadic.of(z)) == GaussFraction(z)


def test_dyadic_ring_operations_are_exact():
    rng = np.random.default_rng(11)
    zs = [complex(u, v) * 10.0 ** e for u, v, e in
          zip(rng.normal(size=60), rng.normal(size=60), rng.integers(-30, 30, 60))]
    for x, y in zip(zs[::2], zs[1::2]):
        dx, dy, gx, gy = Dyadic.of(x), Dyadic.of(y), GaussFraction(x), GaussFraction(y)
        assert gauss(dx + dy) == gx + gy
        assert gauss(dx - dy) == gx - gy
        assert gauss(dx * dy) == gx * gy
        assert fraction(dx.norm()) == gx.re * gx.re + gx.im * gx.im
        # an int is coerced on the reflected operators
        assert gauss(1 + dx) == 1 + gx and gauss(-3 * dx) == -3 * gx


def test_dyadic_ratio_is_correctly_rounded():
    rng = np.random.default_rng(5)
    xs = _doubles(rng, 400)
    xs = [x for x in xs if abs(math.log2(abs(x))) < 500]  # keep each quotient finite
    edges = [(5e-324, 1.0), (1.0, 3.0), (0.0, 7.0), (-0.0, -2.0), (5e-324, 1.7e308),
             (1.7e308, 2.0), (1.0, 5e-324 * 2**60)]
    for x, y in edges + list(zip(xs[::2], xs[1::2])):
        assert Dyadic.of(x).ratio(Dyadic.of(y)) == float(Fraction(x) / Fraction(y))
    for x, y in zip(xs[::2], xs[1::2]):
        # sums and products keep their exponents apart; the ratio is still exact
        dx, dy = Dyadic.of(x), Dyadic.of(y)
        s, p = dx * dx + dy, dx * dy
        assert s.ratio(p) == float(fraction(s) / fraction(p))


# ----------------------------------------------------------------- recursion


@pytest.mark.parametrize("zeta, alpha", [
    (-0.4, 0.86), (1e-9, 0.0), (0.6 * cmath.exp(1j * math.pi / 4), 0.25), (-0.5, 0.0),
    (0.2817 * cmath.exp(2.6798j), 0.9), (1.0, 0.25)])
def test_exact_recursion_is_the_rational_recursion_multiplied_out(zeta, alpha):
    # A_n = a_n D_2 ... D_n, against the recursion with its divisions over
    # Gaussian rationals, on random Schur rows and w = z, w = 0, at order 8
    order = 8
    rng = np.random.default_rng(3)
    gammas = rng.uniform(-0.7, 0.7, (5, 5)) + 1j * rng.uniform(-0.7, 0.7, (5, 5))
    gammas[0], gammas[1] = [1.0, 0, 0, 0, 0], 0.0
    s = Dyadic(1) - 2 * Dyadic.of(alpha)
    for row in schur_rows(gammas, order):
        a, w, d = recursion([Dyadic.of(v) for v in row[:order]], Dyadic.of(zeta), s, order)
        want_a, want_w, want_d = exact_coefficients(row, zeta, alpha, order)
        scale = GaussFraction(1)
        for n in range(1, order + 1):
            if n >= 2:
                scale = scale * want_d[n]
                assert gauss(d[n - 1]) == want_d[n]
            assert gauss(w[n - 1]) == want_w[n]
            assert (a[n] == 1 if n == 1 else gauss(a[n]) == want_a[n] * scale)


def test_exact_recursion_over_ints_at_zeta_one():
    # at zeta = 1, [n] = n and D_n = n - 1; w = z gives
    # a_n = prod_{k=2}^n (s + k - 1) / (k - 1)
    order = 12
    b = [0, 1] + [0] * (order - 2)  # w = z
    a, w, d = recursion(b, 1, 1, order)  # alpha = 0, s = 1: the Koebe function
    assert all(type(v) is int for v in a + w + d)
    assert d == list(range(order)) and w == [k + 1 for k in range(1, order + 1)]
    for n in range(1, order + 1):
        assert a[n] == math.factorial(n)
        assert a[n] == n * math.prod(d[1:n])  # a_n = n
    a, _, d = recursion(b, 1, 0, order)  # alpha = 1/2, s = 0
    for n in range(1, order + 1):
        assert a[n] == math.prod(d[1:n])  # a_n = 1
