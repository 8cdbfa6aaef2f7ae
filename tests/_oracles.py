"""Independent reference computations used to freeze expected test values.

Everything here is deliberately primitive: exact-rational series arithmetic
on coefficient lists, permutation-expansion determinants, direct
substitution formulas, a disk maximum over every point of its grid, and
the (b1, x) lattice search of the sharpness engine before it took arg x at
three candidate angles per circle.  None of it shares code paths with the
package; the lattice search takes the package's pointwise evaluator as an
argument, so that both searches compare the same arithmetic.
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


def _gauss(value):
    return value if isinstance(value, GaussFraction) else GaussFraction(value)


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
    """The Parseval bound on |a_n|, one ``sum`` per n, in the precision of
    ``abs_a`` (rows of |a_1|, |a_2|, ... along the last axis):

        sqrt( sum_{k=1}^{n-1} (d_k - c_k) |a_k|^2 ) / sqrt(c_n),
        d_k = |(1 - 2 alpha) + [k]|^2,  c_k = |zeta [k-1]|^2,

    with [k] = 1 + zeta + ... + zeta^(k-1) summed term by term.  No check
    that a divisor vanishes.
    """
    abs_a = np.asarray(abs_a)[..., :n - 1]
    cdtype = np.result_type(abs_a.dtype, complex).type
    zeta = complex(zeta)
    qn, term = [1.0 + 0j], 1.0 + 0j
    for _ in range(n - 1):
        term *= zeta
        qn.append(qn[-1] + term)
    dv = [0j] + [zeta * w for w in qn[:-1]]
    d = np.abs(cdtype(1.0 - 2.0 * alpha) + np.asarray(qn, dtype=cdtype)) ** 2
    c = np.abs(np.asarray(dv, dtype=cdtype)) ** 2
    acc = ((d[:-1] - c[:-1]) * abs_a**2).sum(axis=-1)
    return np.sqrt(np.maximum(acc, 0.0)) / np.sqrt(c[-1])


def lattice_search_max(y_max, grid, b1_range, angles, ring):
    """max |functional| of the refined (b1, |x|, arg x, arg y) lattice search.

    ``y_max(b1, x, ays)`` is the functional maximized over |y| <= 1 at each
    (b1, x), swept on |y| = 1 at the angles ``ays`` when ``ring`` (else
    ``ays`` is None), as an array that broadcasts to
    (1, |x| points, arg x points, arg y points).  Both angle axes take
    ``angles`` points per turn; the b1 and |x| sizes and the number of
    refinement levels are ``grid``'s.  Each of ``grid.levels`` refinements
    shrinks every gridded range by a factor of 5 around the incumbent,
    whose ties break toward the smallest (b1, |x|, arg x, arg y).
    """

    def axis(lo, hi, n):
        return np.array([lo]) if n <= 1 or hi <= lo else np.linspace(lo, hi, n)

    def shrink(centre, lo, hi, clamp):
        width = (hi - lo) / 5.0
        lo, hi = centre - width / 2.0, centre + width / 2.0
        return (lo, hi) if clamp is None else (max(clamp[0], lo), min(clamp[1], hi))

    turn = (0.0, 2.0 * math.pi * (angles - 1) / angles)
    ranges = [tuple(b1_range), (0.0, 1.0), turn, turn]
    sizes = [grid.b1_points, grid.x_radii, angles, angles if ring else 1]
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
