"""Closed-form evaluators for every sharp bound and lemma quantity.

All real-parameter bounds below are stated for real zeta = q in (0, 1) and
alpha = 0; queries outside that range are rejected.  The paper proves seven
of them directly, in closed form:

    abs_a2          M2 = 2/q
    abs_a3          M3 = (4 + 2q) / (q^2 (1+q))
    abs_a4          M4 = 2 (4 + 4q + 3q^2 + q^3) / (q^3 (1 + q + q^2)(1+q))
    fekete_a2a3_a4  2 (q + 2) / (q^2 (1 + q + q^2))
    h1_2            2 / (q (q + 1))
    h2_2            H = 4 / (q^2 (1+q)^2)                      [a2 = 0]
                    H = 4 (2+q) / (q^2 (1+q)^2 (1 + q + q^2))  [a2 != 0]

and bounds the Toeplitz determinants by the triangle inequality in those:

    t1_2            1 + M2^2
    t2_2            M2^2 + M3^2
    t3_2            M3^2 + M4^2
    t1_3            1 + 2 M2^2 + M3 (2 M2^2 - M3)
    t2_3            (M2 + M4)(M2^2 + M3^2 + H)   [H of the same case]

The paper states the Toeplitz bounds expanded into rational functions of q
(t2_3 as 8AB / (q^7 (1+q)^3 (1+q+q^2)) and 8BC / (q^7 (1+q)^3 (1+q+q^2)^2)
with polynomials A, B, C of degrees 4, 5, 6); the tests check the
M-expressions against those expanded forms in exact arithmetic.  The t2_2
bound reads |a2|^2 <= M2^2 = 4/q^2; writing 4/q^4 for that term contradicts
the derivation and breaks attainment by the pi/2-rotated extremal, and the
tests pin the 4/q^2 value.  The Hankel rows stay closed forms: as
M-expressions they would be differences such as M2 M3 - M4 or
M3^2 - M2 M4, whose terms cancel in double precision (the latter loses
7.5e-5 relative at q = 1e-6).

:func:`an_product` extends the coefficient bound to complex zeta and order
alpha: |a_n| <= prod_{k=2}^n |((1 - 2 alpha) + [k-1]) / ([k] - 1)|, valid
whenever Re [k] > alpha along the way (see :func:`product_bound_applies`;
it computes the products for n = 2..order in one running product, but does
not gate on the condition).

The lemma kit at the bottom covers the disk maximum
Y(a, b, c) = max_{|z|<=1} (|a + b z + c z^2| + 1 - |z|^2) with its closed form
for real triples with a c >= 0, the cubic Schwarz-coefficient functional
|b3 + mu b1 b2 + nu b1^3| with its sharp region, and the specific (a, b, c)
triple behind the interior case of the second Hankel bound.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MissingCaseFlag, OutOfRange, PreconditionViolated, UnknownId, integer, real
from .functionals import FunctionalId, as_functional_id
from .series import ClassParams, class_weights, q_numbers


class CaseFlag(str, Enum):
    """Which branch of a case-split bound is wanted."""

    A2_ZERO = "a2_zero"
    A2_NONZERO = "a2_nonzero"

    def __str__(self):
        return self.value


#: ids whose bound splits on whether a2 vanishes
CASE_SPLIT_IDS = {FunctionalId.H2_2, FunctionalId.T2_3}


@dataclass(frozen=True)
class BoundQuery:
    """A catalog bound lookup: functional id, parameters, case flag.

    ``case_flag`` is required exactly for the two case-split ids (h2_2,
    t2_3) and rejected otherwise.
    """

    id: object
    params: ClassParams
    case_flag: CaseFlag | None = None

    def __post_init__(self):
        fid = as_functional_id(self.id)
        object.__setattr__(self, "id", fid)
        if fid in CASE_SPLIT_IDS and self.case_flag is None:
            raise MissingCaseFlag(f"{fid} needs case_flag a2_zero/a2_nonzero")
        if fid not in CASE_SPLIT_IDS and self.case_flag is not None:
            raise OutOfRange(f"{fid} does not take a case flag")
        if self.case_flag is not None:
            object.__setattr__(self, "case_flag", CaseFlag(self.case_flag))


def _real_bound(fid: FunctionalId, q: float, case: CaseFlag | None) -> float:
    one_q = 1.0 + q
    one_qq = 1.0 + q + q * q
    if fid is FunctionalId.FEKETE_A2A3_A4:
        return 2.0 * (q + 2.0) / (q * q * one_qq)
    if fid is FunctionalId.H1_2:
        return 2.0 / (q * one_q)
    if fid is FunctionalId.H2_2:
        if case is CaseFlag.A2_ZERO:
            return 4.0 / (q * q * one_q * one_q)
        return 4.0 * (2.0 + q) / (q * q * one_q * one_q * one_qq)
    # each M_n is formed only once an id needs it, so that a power of q that
    # underflows fails just the ids that read it
    m2 = 2.0 / q
    if fid is FunctionalId.ABS_A2:
        return m2
    if fid is FunctionalId.T1_2:
        return 1.0 + m2 * m2
    m3 = (4.0 + 2.0 * q) / (q * q * one_q)
    if fid is FunctionalId.ABS_A3:
        return m3
    if fid is FunctionalId.T2_2:
        return m2 * m2 + m3 * m3
    if fid is FunctionalId.T1_3:
        return 1.0 + 2.0 * m2 * m2 + m3 * (2.0 * m2 * m2 - m3)
    m4 = 2.0 * (4.0 + 4.0 * q + 3.0 * q**2 + q**3) / (q**3 * one_qq * one_q)
    if fid is FunctionalId.ABS_A4:
        return m4
    if fid is FunctionalId.T3_2:
        return m3 * m3 + m4 * m4
    if fid is FunctionalId.T2_3:
        return (m2 + m4) * (m2 * m2 + m3 * m3 + _real_bound(FunctionalId.H2_2, q, case))
    raise UnknownId(f"no closed-form bound for {fid}")


def bound_value(query: BoundQuery) -> float:
    """Evaluate the closed-form catalog bound named by ``query``, at real
    zeta = q in (0, 1) and alpha = 0 (the complex-zeta product bound is
    :func:`an_product`)."""
    params = query.params
    if not params.is_real_q or params.alpha != 0.0:
        raise OutOfRange(
            f"{query.id} requires real zeta in (0, 1) and alpha = 0, "
            f"got zeta={params.zeta}, alpha={params.alpha}"
        )
    try:
        value = _real_bound(query.id, params.q, query.case_flag)
    except ZeroDivisionError:  # a power of q underflowed to 0
        value = math.inf
    if not math.isfinite(value):
        raise OutOfRange(f"the {query.id} bound at q = {params.q} is not finite in double precision")
    return value


def an_product(params: ClassParams, order: int) -> np.ndarray:
    """The product bounds on |a_2|, ..., |a_order|, as a float64 array:

        |a_n| <= prod_{k=2}^n |w_(k-1)| / |D_k|

    with the weights w and divisors D of :func:`qstar.series.class_weights`,
    one running product over k.  ``order`` is an integer >= 2.  Raises
    DegenerateDivisor at the first k in 2..order where [k] - 1 vanishes.
    """
    w, d = class_weights(params, integer("order", order, 2))
    acc, out = 1.0, []
    for num, den in zip(w.tolist()[:-1], d.tolist()[1:]):
        acc *= abs(num) / abs(den)
        out.append(acc)
    return np.array(out)


def parseval_weights(params: ClassParams, n: int) -> tuple:
    """The weights (d, c) of the Parseval chain, for k = 1..n,

        sum_{k<=n} c_k |a_k|^2  <=  sum_{k<=n-1} d_k |a_k|^2,
        d_k = |(1-2a)+[k]|^2,  c_k = |[k]-1|^2,

    as float arrays: the squared moduli of :func:`qstar.series.class_weights`.
    Raises DegenerateDivisor at the first k in 2..n where [k] - 1 vanishes.
    """
    w, dv = class_weights(params, n)
    return np.abs(w) ** 2, np.abs(dv) ** 2


def parseval_rhs(params: ClassParams, abs_a):
    """Upper bounds on |a_2|, ..., |a_{m+1}| from the Parseval inequality chain.

    For n = 2..m+1, sqrt( sum_{k=1}^{n-1} (d_k - c_k) |a_k|^2 / c_n ) with
    the weights of :func:`parseval_weights`, given the moduli
    abs_a = (|a_1|, ..., |a_m|) with |a_1| = 1 along the last axis; n is
    read off the length m of that axis; its entries must be finite real
    numbers >= 0 (a NaN, infinite or negative modulus raises OutOfRange).
    The result is a float64 array of the shape of abs_a.  The partial sums
    are one running sum, which up to 7 terms adds in the order of the per-n
    ``sum``; beyond that numpy's pairwise ``sum`` may differ from it by an
    ulp (no caller passes more, since the random suite stops at order 8).
    Every divisor [n] - 1 up to n = m+1 must be away from 0.  A negative
    sum (impossible for genuine class members) is clamped to 0.
    """
    abs_a = np.asarray(abs_a)
    if abs_a.dtype.kind not in "iuf":  # complex, bool, text or object
        raise OutOfRange(f"abs_a must hold real moduli, got {abs_a.dtype} entries")
    abs_a = abs_a.astype(float, copy=False)
    if abs_a.ndim == 0 or abs_a.shape[-1] == 0:
        raise OutOfRange(f"abs_a must hold at least |a_1|, got shape {abs_a.shape}")
    bad = ~((abs_a >= 0.0) & (abs_a < np.inf))  # also true for NaN
    if bad.any():
        raise OutOfRange(f"abs_a must hold finite moduli >= 0, got {abs_a[bad]}")
    first = abs_a[..., 0]
    if not np.all(np.abs(first - 1.0) <= 1e-12):
        raise OutOfRange(f"abs_a[0] = {np.ravel(first)} must be 1 (a1 = 1)")
    d, c = parseval_weights(params, abs_a.shape[-1] + 1)
    acc = np.cumsum((d[:-1] - c[:-1]) * abs_a**2, axis=-1)
    return np.sqrt(np.maximum(acc, 0.0)) / np.sqrt(c[1:])


def cubic_bound_region(mu: float, nu: float) -> bool:
    """Membership in the region where |b3 + mu b1 b2 + nu b1^3| <= |nu|.

    The region is { |mu| >= 1/2 and nu <= -(2/3)(|mu| + 1) } union
    { |mu| >= 4 and nu >= (2/3)(|mu| - 1) }.  mu and nu must be finite real
    numbers (else OutOfRange).
    """
    mu, nu = _reals(mu=mu, nu=nu)
    am = abs(mu)
    if am >= 0.5 and nu <= -(2.0 / 3.0) * (am + 1.0):
        return True
    return am >= 4.0 and nu >= (2.0 / 3.0) * (am - 1.0)


def schwarz_cubic_functional(b1, b2, b3, mu, nu):
    """|b3 + mu b1 b2 + nu b1^3|; works on scalars or numpy arrays."""
    return abs(b3 + mu * b1 * b2 + nu * b1**3)


def _reals(**values) -> tuple:
    """The values as floats; OutOfRange unless each is a real number and
    none is NaN or infinite."""
    values = tuple(real(name, v) for name, v in values.items())
    _finite(*values)
    return values


def _finite(*values):
    """The last value, once no value is NaN or infinite (input or overflow)."""
    if not np.all(np.isfinite(values)):
        raise OutOfRange(f"non-finite value (NaN, infinity or overflow) in {values}")
    return values[-1]


def disk_quadratic_max_closed(a: float, b: float, c: float) -> float:
    """max over the closed disk of |a + b z + c z^2| + 1 - |z|^2, closed form.

    Valid for finite real a, b, c (else OutOfRange) with a*c >= 0:
        |a| + |b| + |c|                   when |b| >= 2 (1 - |c|),
        1 + |a| + b^2 / (4 (1 - |c|))     otherwise.
    """
    a, b, c = _reals(a=a, b=b, c=c)
    if a * c < 0.0:
        raise PreconditionViolated(f"a*c = {a * c} < 0 outside the covered case")
    if abs(b) >= 2.0 * (1.0 - abs(c)):
        return _finite(abs(a) + abs(b) + abs(c))
    return _finite(1.0 + abs(a) + b * b / (4.0 * (1.0 - abs(c))))


def _peak_cos(a, b, c, radii):
    """t = cos(theta) where |a + b z + c z^2| peaks on each circle |z| = r.

    For real a, b, c (scalars, or arrays that broadcast against ``radii``),
    |a + b z + c z^2|^2 = const + B t + 2 C t^2 with B = 2 b r (a + c r^2)
    and C = 2 a c r^2.  The result is the vertex -B / (4 C) clipped to
    [-1, 1] where C < 0, and 1 elsewhere; the circle's maximum lies there or
    at t = -1.
    """
    scale = np.maximum(np.maximum(abs(a), abs(b)), abs(c))
    scale = scale + (scale == 0.0)  # 1 where a = b = c = 0
    a, b, c = a / scale, b / scale, c / scale  # the vertex is scale-free; nothing overflows
    lin = 2.0 * b * radii * (a + c * radii * radii)
    quad = 2.0 * a * c * radii * radii
    with np.errstate(divide="ignore", over="ignore"):  # a huge vertex clips to -1 or 1
        vertex = np.divide(-lin, 4.0 * quad, out=np.ones_like(lin), where=quad < 0.0)
    return np.clip(vertex, -1.0, 1.0)


def _peak_angles(a: float, b: float, c: float, radii, angular: int):
    """Indices into the angular grid, one row per radius, that hold the
    row's largest |a + b z + c z^2| (see :func:`disk_quadratic_max_grid`)."""
    nearest = np.rint(np.arccos(_peak_cos(a, b, c, radii)) * (angular / (2.0 * np.pi)))
    k = nearest.astype(int)[:, None]
    half = angular // 2
    centres = np.hstack(np.broadcast_arrays(k, -k, 0, half, angular - half))
    return ((centres[:, :, None] + np.arange(-1, 2)) % angular).reshape(len(radii), -1)


def disk_quadratic_max_grid(
    a, b, c, radial: int = 256, angular: int = 720
) -> float:
    """Grid maximum of |a + b z + c z^2| + 1 - |z|^2 over the closed disk.

    A lower bound on the true maximum, with resolution error of order
    O(1/radial + 1/angular); the grid holds ``radial`` equispaced radii from
    0 to 1 and ``angular`` equispaced angles, so it contains z = 0 and |z| = 1.

    a, b and c must be finite real numbers (else ``OutOfRange``).  Then on
    the circle |z| = r, with t = cos(theta),

        |a + b z + c z^2|^2 = const + B t + 2 C t^2,
        B = 2 b r (a + c r^2),  C = 2 a c r^2,

    a quadratic in t, and t is monotone in the angle on [0, pi] and even in
    it.  So the largest grid value on each circle lies at the grid angle
    nearest the vertex t = -B / (4 C) when C < 0, and otherwise at t = 1 or
    t = -1.  Only those angles are evaluated: for each radius the index
    nearest the vertex, index 0 and the one or two indices nearest
    angular / 2, each with its neighbours on either side and its mirror
    image angular - j, which keeps at most 15 of the angles per circle.  Each
    value is the same expression on the same z as the full grid, so the
    result is the full grid's maximum bit for bit, up to rounding ties
    between angles (as where |f| is constant on a circle).
    """
    radial, angular = integer("radial", radial), integer("angular", angular)
    if radial < 64 or angular < 64:
        raise OutOfRange("grid resolutions must be >= 64")
    a, b, c = _reals(a=a, b=b, c=c)
    radii = np.linspace(0.0, 1.0, radial)
    j = _peak_angles(a, b, c, radii, angular)
    z = radii[:, None] * np.exp(1j * (2.0 * np.pi * j / angular))
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it
        vals = np.abs(a + b * z + c * z * z) + 1.0 - np.abs(z) ** 2
    return _finite(float(vals.max()))


#: the (a, b, c) triple behind the interior case of the h2_2 bound, plus the
#: value Y(a, b, c) it produces
QuadraticTriple = namedtuple("QuadraticTriple", "a b c y")


def h2_quadratic_triple(q: float, b1: float) -> QuadraticTriple:
    """The disk-quadratic triple of the interior second-Hankel estimate.

    a = -(2 + q) b1^3 / ((1 - b1^2)(1 + q)^2)
    b = 2 b1 / (1 + q)^2
    c = -b1 - (1 + q + q^2)(1 - b1^2) / ((1 + q)^2 b1)
    y = |a| + |b| + |c|
      = (1 - q) b1 / ((1 + q)(1 - b1^2))
        + (1 + q + q^2) / (b1 (1 - b1^2)(1 + q)^2)

    The denominator placement in c is forced: it is the only form for which
    y collapses to the displayed closed expression and for which the branch
    quantity |b| - 2(1 - |c|) = H(b1) / ((1+q)^2 b1) with
    H(b1) = (2 + 2q) b1^2 - 2 (1+q)^2 b1 + 2 (1 + q + q^2) stays positive on
    (0, 1)^2 (its discriminant 4(1+q)^4 - 16(1+q)(1+q+q^2) is negative).
    Putting (1+q)^2 in the numerator instead fails both identities, which the
    tests demonstrate.  Consequently a < 0 < b, c < 0, so a*c > 0 and the
    first branch of :func:`disk_quadratic_max_closed` always applies.
    """
    q, b1 = _reals(q=q, b1=b1)
    if not 0.0 < q < 1.0:
        raise OutOfRange(f"q = {q} outside the open interval (0, 1)")
    if not 0.0 < b1 < 1.0:
        raise OutOfRange(f"b1 = {b1} outside the open interval (0, 1)")
    one_q2 = (1.0 + q) ** 2
    one_m = 1.0 - b1 * b1
    a = -(2.0 + q) * b1**3 / (one_m * one_q2)
    b = 2.0 * b1 / one_q2
    c = -b1 - (1.0 + q + q * q) * one_m / (one_q2 * b1)
    return QuadraticTriple(a, b, c, abs(a) + abs(b) + abs(c))


def product_bound_applies(params: ClassParams, n_max: int) -> bool:
    """True iff Re [k] > alpha strictly for every 1 <= k <= n_max."""
    n_max = integer("n_max", n_max, 2)
    return all(w.real > params.alpha for w in q_numbers(params.zeta, n_max))


__all__ = [
    "CaseFlag",
    "BoundQuery",
    "CASE_SPLIT_IDS",
    "bound_value",
    "an_product",
    "parseval_weights",
    "parseval_rhs",
    "cubic_bound_region",
    "schwarz_cubic_functional",
    "disk_quadratic_max_closed",
    "disk_quadratic_max_grid",
    "QuadraticTriple",
    "h2_quadratic_triple",
    "product_bound_applies",
]
