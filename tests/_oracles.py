"""Independent reference computations used to freeze expected test values.

Everything here is deliberately primitive: exact-rational series arithmetic
on coefficient lists, permutation-expansion determinants, direct
substitution formulas, a disk maximum over every point of its grid, the
closed disk maximum of Choi, Kim and Sugawa in all its branches, and the
(b1, |x|) lattice search of the sharpness engine before it took arg x at
three candidate angles per circle and |x| at four candidate radii.  None of
it shares code paths with the package; the lattice search takes the
package's pointwise evaluator as an argument, so that both searches compare
the same arithmetic.
"""

import math

from fractions import Fraction
from itertools import permutations

import numpy as np


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

    def __eq__(self, other):
        other = _gauss(other)
        return (self.re, self.im) == (other.re, other.im)


def _gauss(value):
    return value if isinstance(value, GaussFraction) else GaussFraction(value)


def exact_coefficients(b, zeta, alpha, order):
    """(a, w, div), lists of GaussFractions indexed k = 1..order (index 0
    unused): the coefficients a_k of the member with Schwarz coefficients
    b_0, b_1, ..., the weights w_k = (1 - 2 alpha) + [k] and the divisors
    [k] - 1, all exact for the double inputs.  The recursion
    a_n = sum_{k<n} b_(n-k) w_k a_k / ([n] - 1) runs over Gaussian
    rationals, with its divisions, and [k] by Horner, [k] = 1 + zeta [k-1]."""
    zeta = GaussFraction(complex(zeta))
    qn = [GaussFraction(1)]
    for _ in range(order - 1):
        qn.append(1 + zeta * qn[-1])
    w = [None] + [(1 - 2 * Fraction(alpha)) + v for v in qn]
    div = [None] + [v - 1 for v in qn]
    b = [GaussFraction(complex(v)) for v in b[:order]]
    a = [None, GaussFraction(1)]
    for n in range(2, order + 1):
        a.append(sum((b[n - k] * w[k] * a[k] for k in range(1, n)), GaussFraction(0))
                 / div[n])
    return a, w, div


def exact_parseval_terms(b, zeta, alpha, order):
    """(t, d, c), lists of Fractions indexed k = 1..order (index 0 unused):
    t_k = |a_k|^2, d_k = |w_k|^2 and c_k = |[k] - 1|^2 of
    :func:`exact_coefficients`, the squared coefficients of the member and
    its Parseval weights."""
    def norm(v):
        return v.re * v.re + v.im * v.im

    return tuple([None] + [norm(v) for v in seq[1:]]
                 for seq in exact_coefficients(b, zeta, alpha, order))


def disk_quadratic_max_full_grid(a, b, c, radial=256, angular=720):
    """max of |a + b z + c z^2| + 1 - |z|^2 over every point of the polar grid
    of ``radial`` radii in [0, 1] and ``angular`` angles, as a float (NaN or
    infinite when a value overflows)."""
    radii = np.linspace(0.0, 1.0, radial)
    angles = 2.0 * np.pi * np.arange(angular) / angular
    z = radii[:, None] * np.exp(1j * angles)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(a + b * z + c * z * z) + 1.0 - np.abs(z) ** 2
    return float(vals.max())


def parseval_rhs_per_n(zeta, alpha, abs_a, n):
    """The Parseval bound on |a_n|, one ``sum`` per n, in double precision,
    given ``abs_a`` (rows of |a_1|, |a_2|, ... along the last axis):

        sqrt( sum_{k=1}^{n-1} (d_k - c_k) |a_k|^2 ) / sqrt(c_n),
        d_k = |(1 - 2 alpha) + [k]|^2,  c_k = |zeta [k-1]|^2,

    with [k] = 1 + zeta + ... + zeta^(k-1) summed term by term.  No check
    that a divisor vanishes.
    """
    abs_a = np.asarray(abs_a, dtype=float)[..., :n - 1]
    zeta = complex(zeta)
    qn, term = [1.0 + 0j], 1.0 + 0j
    for _ in range(n - 1):
        term *= zeta
        qn.append(qn[-1] + term)
    dv = [0j] + [zeta * w for w in qn[:-1]]
    d = np.abs((1.0 - 2.0 * alpha) + np.asarray(qn)) ** 2
    c = np.abs(np.asarray(dv)) ** 2
    acc = ((d[:-1] - c[:-1]) * abs_a**2).sum(axis=-1)
    return np.sqrt(np.maximum(acc, 0.0)) / np.sqrt(c[-1])


def an_product_per_n(zeta, alpha, n):
    """The product bound on |a_n| as one loop per n, in double precision,

        prod_{k=2}^n |(1 - 2 alpha) + [k-1]| / |zeta [k-1]|,

    with [k] = 1 + zeta + ... + zeta^(k-1) summed term by term, its own loop
    for each n.  No check that a divisor vanishes.
    """
    zeta = complex(zeta)
    qn, term = [1.0 + 0j], 1.0 + 0j  # [1] .. [n-1]
    for _ in range(n - 2):
        term *= zeta
        qn.append(qn[-1] + term)
    acc = 1.0
    for v in qn:
        acc *= abs((1.0 - 2.0 * alpha) + v) / abs(zeta * v)
    return acc


def coefficient_bounds_exact(q):
    """(M2, M3, M4, H_a2_zero, H_a2_nonzero) at a rational q in (0, 1), as
    Fractions: the paper's bounds on |a2|, |a3|, |a4| and its two |H_2(2)|
    cases, each in its own closed form."""
    q = Fraction(q)
    one_q, one_qq = 1 + q, 1 + q + q * q
    return (2 / q, (4 + 2 * q) / (q**2 * one_q),
            2 * (4 + 4 * q + 3 * q**2 + q**3) / (q**3 * one_qq * one_q),
            4 / (q**2 * one_q**2), 4 * (2 + q) / (q**2 * one_q**2 * one_qq))


def toeplitz_expanded(name, q, case=None):
    """The paper's expanded bound on the Toeplitz determinant ``name`` at a
    rational q in (0, 1), as a Fraction; ``case`` ("a2_zero" or
    "a2_nonzero") picks the t2_3 form.  With

        A(q) = 4 + 4q + 3q^2 + 2q^3 + q^4
        B(q) = 4 + 4q + 4q^2 + 3q^3 + 2q^4 + q^5
        C(q) = 4 + 8q + 12q^2 + 9q^3 + 5q^4 + 3q^5 + q^6

    the forms are

        t1_2  1 + 4/q^2
        t2_2  4/q^2 + 4 (2+q)^2 / (q^4 (1+q)^2)
        t3_2  4 (2+q)^2 / (q^4 (1+q)^2)
                + 4 (4+4q+3q^2+q^3)^2 / (q^6 (1+q+q^2)^2 (1+q)^2)
        t1_3  1 + 8/q^2 + 4 (3q^2 + 8q + 4) / (q^4 (1+q)^2)
        t2_3  8 A B / (q^7 (1+q)^3 (1+q+q^2))       [a2 = 0]
              8 B C / (q^7 (1+q)^3 (1+q+q^2)^2)     [a2 != 0]
    """
    q = Fraction(q)
    one_q, one_qq = 1 + q, 1 + q + q * q
    if name == "t1_2":
        return 1 + 4 / q**2
    if name == "t2_2":
        return 4 / q**2 + 4 * (2 + q) ** 2 / (q**4 * one_q**2)
    if name == "t3_2":
        return (4 * (2 + q) ** 2 / (q**4 * one_q**2)
                + 4 * (4 + 4 * q + 3 * q**2 + q**3) ** 2 / (q**6 * one_qq**2 * one_q**2))
    if name == "t1_3":
        return 1 + 8 / q**2 + 4 * (3 * q**2 + 8 * q + 4) / (q**4 * one_q**2)
    a = 4 + 4 * q + 3 * q**2 + 2 * q**3 + q**4
    b = 4 + 4 * q + 4 * q**2 + 3 * q**3 + 2 * q**4 + q**5
    c = 4 + 8 * q + 12 * q**2 + 9 * q**3 + 5 * q**4 + 3 * q**5 + q**6
    if (name, case) == ("t2_3", "a2_zero"):
        return 8 * a * b / (q**7 * one_q**3 * one_qq)
    if (name, case) == ("t2_3", "a2_nonzero"):
        return 8 * b * c / (q**7 * one_q**3 * one_qq**2)
    raise KeyError((name, case))


def disk_quadratic_max_cks(a, b, c):
    """(Y, branch): Y = max of |a + b z + c z^2| + 1 - |z|^2 over the closed
    disk for real a, b, c, in the closed form of Choi, Kim and Sugawa
    (J. Math. Soc. Japan 59 (2007)) transcribed branch by branch, and the
    name of the branch taken.  With a c >= 0:

        |a| + |b| + |c|                if |b| >= 2 (1 - |c|)     "ac>=0 edge"
        1 + |a| + b^2 / (4 (1 - |c|))  otherwise                 "ac>=0 r1"

    and with a c < 0:

        1 - |a| + b^2 / (4 (1 - |c|))  if -4 a c (c^-2 - 1) <= b^2
                                       and |b| < 2 (1 - |c|)     "ac<0 r1"
        1 + |a| + b^2 / (4 (1 + |c|))  if b^2 < min(4 (1 + |c|)^2,
                                           -4 a c (c^-2 - 1))    "ac<0 r2"
        R(a, b, c)                     otherwise,

    R = |a| + |b| - |c|                if |c| (|b| + 4 |a|) <= |a b|   "R1"
        -|a| + |b| + |c|               if |a b| <= |c| (|b| - 4 |a|)   "R2"
        (|c| + |a|) sqrt(1 - b^2 / (4 a c))  otherwise                 "R3"
    """
    a, b, c = float(a), float(b), float(c)
    if a * c >= 0.0:
        if abs(b) >= 2.0 * (1.0 - abs(c)):
            return abs(a) + abs(b) + abs(c), "ac>=0 edge"
        return 1.0 + abs(a) + b * b / (4.0 * (1.0 - abs(c))), "ac>=0 r1"
    lift = -4.0 * a * c * (1.0 / (c * c) - 1.0)
    if lift <= b * b and abs(b) < 2.0 * (1.0 - abs(c)):
        return 1.0 - abs(a) + b * b / (4.0 * (1.0 - abs(c))), "ac<0 r1"
    if b * b < min(4.0 * (1.0 + abs(c)) ** 2, lift):
        return 1.0 + abs(a) + b * b / (4.0 * (1.0 + abs(c))), "ac<0 r2"
    if abs(c) * (abs(b) + 4.0 * abs(a)) <= abs(a * b):
        return abs(a) + abs(b) - abs(c), "R1"
    if abs(a * b) <= abs(c) * (abs(b) - 4.0 * abs(a)):
        return -abs(a) + abs(b) + abs(c), "R2"
    return (abs(c) + abs(a)) * math.sqrt(1.0 - b * b / (4.0 * a * c)), "R3"


def circle_max(a, b, c):
    """max of |a + b z + c z^2| over |z| = 1 for real a, b, c: the largest of
    the values at t = cos(arg z) = 1, -1 and the vertex of

        |a + b z + c z^2|^2 = (a - c)^2 + b^2 + 2 b (a + c) t + 4 a c t^2

    when it lies in (-1, 1)."""
    a, b, c = float(a), float(b), float(c)
    ts = [1.0, -1.0]
    if a * c < 0.0 and abs(b * (a + c)) < abs(4.0 * a * c):
        ts.append(-b * (a + c) / (4.0 * a * c))
    return max(math.sqrt(max(0.0, (a - c) ** 2 + b * b + 2.0 * b * (a + c) * t
                             + 4.0 * a * c * t * t)) for t in ts)


def lattice_search_max(y_max, grid, radii, b1_range, angles, ring):
    """max |functional| of the refined (b1, |x|, arg x, arg y) lattice search.

    ``y_max(b1, x, ays)`` is the functional maximized over |y| <= 1 at each
    (b1, x), swept on |y| = 1 at the angles ``ays`` when ``ring`` (else
    ``ays`` is None), as an array that broadcasts to
    (1, |x| points, arg x points, arg y points).  Both angle axes take
    ``angles`` points per turn, and |x| takes ``radii`` points in [0, 1];
    the b1 size and the number of refinement levels are ``grid``'s.  Each of
    ``grid.levels`` refinements shrinks every gridded range by a factor of 5
    around the incumbent, whose ties break toward the smallest
    (b1, |x|, arg x, arg y).
    """

    def axis(lo, hi, n):
        return np.array([lo]) if n <= 1 or hi <= lo else np.linspace(lo, hi, n)

    def shrink(centre, lo, hi, clamp):
        width = (hi - lo) / 5.0
        lo, hi = centre - width / 2.0, centre + width / 2.0
        return (lo, hi) if clamp is None else (max(clamp[0], lo), min(clamp[1], hi))

    turn = (0.0, 2.0 * math.pi * (angles - 1) / angles)
    ranges = [tuple(b1_range), (0.0, 1.0), turn, turn]
    sizes = [grid.b1_points, radii, angles, angles if ring else 1]
    clamps = [tuple(b1_range), (0.0, 1.0), None, None]
    best_val, best_key = -1.0, None
    for _ in range(grid.levels + 1):
        b1s, rxs, axs, ays = (axis(lo, hi, n) for (lo, hi), n in zip(ranges, sizes))
        x = (rxs[:, None] * np.exp(1j * axs)[None, :])[None, :, :, None]
        for b1 in b1s:
            vals = y_max(np.full((1, 1, 1, 1), b1), x, ays if ring else None)
            vals = np.broadcast_to(vals, (1, len(rxs), len(axs), len(ays)))
            flat = int(np.argmax(vals))
            i = np.unravel_index(flat, vals.shape)
            key = (float(b1), float(rxs[i[1]]), float(axs[i[2]]), float(ays[i[3]]))
            v = float(vals.flat[flat])
            if v > best_val or (v == best_val and key < best_key):
                best_val, best_key = v, key
        ranges = [shrink(c, lo, hi, clamp)
                  for c, (lo, hi), clamp in zip(best_key, ranges, clamps)]
        if not ring:
            ranges[3] = (0.0, 0.0)
    return best_val
