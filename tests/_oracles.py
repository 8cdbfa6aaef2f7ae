"""Independent reference computations used to freeze expected test values.

Everything here is deliberately primitive: exact-rational series arithmetic
on coefficient lists, permutation-expansion determinants, and direct
substitution formulas.  None of it shares code paths with the package.
"""

from fractions import Fraction
from itertools import permutations


def frac_series(values, order):
    """Coefficient list of exact Fractions, zero-padded to order."""
    out = [Fraction(v) for v in values]
    out += [Fraction(0)] * (order + 1 - len(out))
    return out[: order + 1]


def frac_div(a, b):
    """Long division a/b on exact rationals; b[0] must be nonzero."""
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        acc = a[m]
        for k in range(1, m + 1):
            acc -= b[k] * out[m - k]
        out[m] = acc / b[0]
    return out


def caratheodory_p2p3(p1, x, y):
    """(p2, p3) of a Caratheodory function from (p1, x, y), by direct
    substitution into the Libera-Zlotkiewicz formulas:

    2 p2 = p1^2 + x (4 - p1^2),
    4 p3 = p1^3 + 2 (4 - p1^2) p1 x - p1 (4 - p1^2) x^2
           + 2 (4 - p1^2)(1 - |x|^2) y.
    """
    s = 4.0 - p1 * p1
    p2 = (p1 * p1 + x * s) / 2.0
    p3 = (p1**3 + 2.0 * s * p1 * x - p1 * s * x * x + 2.0 * s * (1.0 - abs(x) ** 2) * y) / 4.0
    return p2, p3


def initial_coeffs_closed(b1, b2, b3, q):
    """(a2, a3, a4) of the q-starlike class at alpha = 0 from (b1, b2, b3), by
    the hand-expanded recursion at real q in (0, 1):

    a2 = 2 b1 / q
    a3 = (2 b2 q + 4 b1^2 + 2 b1^2 q) / (q^2 (1 + q))
    a4 = (2 q^2 (1+q) b3 + 4 q (2 + 2q + q^2) b1 b2
          + 2 (4 + 4q + 3q^2 + q^3) b1^3) / (q^3 (1+q)(1 + q + q^2))

    Scalars or numpy arrays, which broadcast against each other.
    """
    a2 = 2.0 * b1 / q
    a3 = (2.0 * b2 * q + 4.0 * b1 * b1 + 2.0 * b1 * b1 * q) / (q * q * (1.0 + q))
    a4 = (
        2.0 * q * q * (1.0 + q) * b3
        + 4.0 * q * (2.0 + 2.0 * q + q * q) * b1 * b2
        + 2.0 * (4.0 + 4.0 * q + 3.0 * q * q + q**3) * b1**3
    ) / (q**3 * (1.0 + q) * (1.0 + q + q * q))
    return a2, a3, a4


def det_permanent_expansion(m):
    """Determinant by signed permutation expansion (k! terms; k <= 5)."""
    k = len(m)
    total = 0
    for perm in permutations(range(k)):
        sign = 1
        seen = [False] * k
        # count cycles for the permutation sign
        for start in range(k):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(k):
            term = term * m[i][perm[i]]
        total += term
    return total


def kernel_coefficient(zeta, n):
    """z^n coefficient of z/((1 - zeta z)(1 - z)) via partial fractions."""
    if n == 0:
        return 0j
    if abs(zeta - 1.0) < 1e-9:
        return complex(n)
    return (1.0 - zeta**n) / (1.0 - zeta)


class GaussFraction:
    """An exact complex rational re + i im with Fraction parts; enough
    arithmetic for :func:`frac_div` on complex coefficient lists."""

    def __init__(self, re, im=0):
        if isinstance(re, complex):
            re, im = re.real, re.imag
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        other = _gauss(other)
        return GaussFraction(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _gauss(other)
        return GaussFraction(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _gauss(other)
        return GaussFraction(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gauss(other)
        norm = other.re * other.re + other.im * other.im
        return self * GaussFraction(other.re / norm, -other.im / norm)

    def conjugate(self):
        return GaussFraction(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _gauss(value):
    return value if isinstance(value, GaussFraction) else GaussFraction(value)
