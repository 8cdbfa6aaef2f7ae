"""The class S*_zeta(alpha): coefficient generation, extremals, membership.

A normalized function f(z) = z + a2 z^2 + ... belongs to S*_zeta(alpha) when
Re(z D_zeta f / f) > alpha on the unit disk, D_zeta being the q-difference
operator of :mod:`qstar.series`.  Writing the defining inequality through a
Schwarz function w,

    (z D_zeta f / f - alpha) / (1 - alpha) = (1 + w) / (1 - w),

and comparing coefficients yields the linear recursion

    ([n] - 1) a_n = sum_{k=1}^{n-1} b_{n-k} ((1 - 2 alpha) + [k]) a_k,

with a1 = 1 and [n] = q_number(n, zeta).  The recursion is the ground truth
here; the infinite-product solution for w(z) = z and the closed coefficient
formula are independent cross-checks of it.  :func:`recursion_coeffs` is the
one recursion kernel; the randomized suite in :mod:`qstar.search` runs it too.

For w(z) = z the function satisfies f(zeta z) = f(z) (zeta - s z)/(1 - z)
with s = 1 + (1 - zeta)(1 - 2 alpha), solved by the convergent product

    f(z) = z * prod_{k>=0} (zeta - zeta^(k+1) z) / (zeta - zeta^k s z),

whose n-th coefficient also equals the telescoped product

    a_n = prod_{k=2}^{n} ((1 - 2 alpha) + [k-1]) / ([k] - 1).

The class is rotation invariant: e^{-i t} f(e^{i t} z) has coefficients
a_n e^{i (n-1) t} and stays in S*_zeta(alpha); :func:`rotate` applies it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DenominatorVanished, InvalidSchwarz, OutOfRange
from .schwarz import MARGIN_TOL, SchwarzSeries, schur_test
from .series import DEGENERATE_TOL, ClassParams, PowerSeries, check_divisors
from .series import exp_series, one_minus_power, q_numbers

#: Factor cap for the direct extremal product; the remaining factors are
#: aggregated exactly in log space (their geometric sums are closed forms).
_PRODUCT_FACTOR_CAP = 64


@dataclass(frozen=True)
class StarlikeFunction:
    """A truncated member (or candidate member) of S*_zeta(alpha)."""

    series: PowerSeries
    params: ClassParams
    source: str = "raw"

    def __post_init__(self):
        c = self.series.coeffs
        if c[0] != 0:
            raise OutOfRange(f"f(0) = {c[0]} must be 0")
        if self.series.order < 1 or c[1] != 1:
            raise OutOfRange("f must be normalized with a1 = 1")
        if not all(cmath.isfinite(v) for v in c):
            raise OutOfRange("a coefficient is not finite (overflow or NaN input)")
        if self.source not in ("recursion", "product", "formula", "raw"):
            raise ValueError(f"unknown source {self.source!r}")

    @classmethod
    def from_coeffs(cls, coeffs, params: ClassParams, source="raw"):
        """Build from the tail (a1, a2, ...) or the full (0, a1, a2, ...)."""
        c = [complex(v) for v in coeffs]
        if c and c[0] != 0:
            c = [0j] + c
        return cls(PowerSeries(tuple(c)), params, source)

    @property
    def order(self) -> int:
        return self.series.order

    def coeff(self, n: int) -> complex:
        """The Taylor coefficient a_n."""
        return self.series.coeffs[n]


def recursion_coeffs(b, qn, dv, alpha: float, dtype) -> list:
    """a_0 .. a_N of the recursion in scalar ``dtype`` (complex or clongdouble),
    N = len(qn), from b_0 .. b_(N-1), the q-numbers [1] .. [N] and the checked
    divisors [1] - 1 .. [N] - 1 of :func:`qstar.series.check_divisors`."""
    one_m2a = dtype(1.0 - 2.0 * alpha)
    qnn = [dtype(w) for w in qn]
    bb = [dtype(v) for v in b]
    a = [dtype(0), dtype(1)]
    for n in range(2, len(qn) + 1):
        acc = dtype(0)
        for k in range(1, n):
            acc = acc + bb[n - k] * (one_m2a + qnn[k - 1]) * a[k]
        a.append(acc / dtype(dv[n - 1]))
    return a


def coeffs_from_schwarz(
    omega: SchwarzSeries, params: ClassParams, order: int
) -> StarlikeFunction:
    """Solve the coefficient recursion for the given Schwarz function.

    ``omega`` must pass :func:`qstar.schwarz.schur_test` (necessary-condition
    margin >= -1e-9) and must carry coefficients up to order - 1.
    """
    if order < 1:
        raise OutOfRange(f"order = {order} must be >= 1")
    if omega.order < order - 1:
        raise ValueError(
            f"omega carries {omega.order} coefficients; need >= {order - 1}"
        )
    _, margin = schur_test(omega)
    if margin < -MARGIN_TOL:
        raise InvalidSchwarz(f"schur_test margin {margin:.3e} below {-MARGIN_TOL}")
    qn = q_numbers(params.zeta, order)
    dv = check_divisors(params.zeta, qn)
    a = recursion_coeffs(omega.series.coeffs, qn, dv, params.alpha, complex)
    return StarlikeFunction(PowerSeries(tuple(a)), params, source="recursion")


def initial_coeffs_closed(b1, b2, b3, q: float) -> tuple:
    """(a2, a3, a4) in closed form from (b1, b2, b3), real q in (0, 1).

    a2 = 2 b1 / q
    a3 = (2 b2 q + 4 b1^2 + 2 b1^2 q) / (q^2 (1 + q))
    a4 = (2 q^2 (1+q) b3 + 4 q (2 + 2q + q^2) b1 b2
          + 2 (4 + 4q + 3q^2 + q^3) b1^3) / (q^3 (1+q)(1 + q + q^2))

    Any complex triple is accepted; validity is the caller's concern.
    Scalar arguments give Python complex values; numpy array arguments
    broadcast against each other and give arrays.
    """
    if not 0.0 < q < 1.0:
        raise OutOfRange(f"q = {q} outside (0, 1)")
    b1, b2, b3 = (complex(v) if np.ndim(v) == 0 else v for v in (b1, b2, b3))
    a2 = 2.0 * b1 / q
    a3 = (2.0 * b2 * q + 4.0 * b1 * b1 + 2.0 * b1 * b1 * q) / (q * q * (1.0 + q))
    a4 = (
        2.0 * q * q * (1.0 + q) * b3
        + 4.0 * q * (2.0 + 2.0 * q + q * q) * b1 * b2
        + 2.0 * (4.0 + 4.0 * q + 3.0 * q * q + q**3) * b1**3
    ) / (q**3 * (1.0 + q) * (1.0 + q + q * q))
    return a2, a3, a4


def extremal_product(params: ClassParams, order: int) -> StarlikeFunction:
    """The extremal function as a truncated product of rational factors.

    f(z)/z is the product over k >= 0 of the normalized factors

        (1 - zeta^k z) / (1 - zeta^(k-1) s z),

    with s = 1 + (1 - zeta)(1 - 2 alpha); the k = 0 denominator carries
    zeta^(-1), which is where the leading 2/zeta in a2 comes from.  Direct
    multiplication runs through K factors, K chosen so |zeta|^K (2 + |zeta|)
    < 1e-16.  For |zeta| near 1 that K explodes, so direct multiplication
    stops at 64 factors and the remaining tail is folded in exactly through
    its logarithm, whose coefficients are geometric sums in closed form.
    Requires 0 < |zeta| < 1.
    """
    if order < 1:
        raise OutOfRange(f"order = {order} must be >= 1")
    zeta = params.zeta
    r = abs(zeta)
    if r == 0.0 or r >= 1.0:
        raise OutOfRange(f"extremal product needs 0 < |zeta| < 1, got {zeta}")
    s = 1.0 + (1.0 - zeta) * (1.0 - 2.0 * params.alpha)
    k_rule = max(1, math.ceil(math.log(1e-16 / (2.0 + r)) / math.log(r)))
    k_direct = min(k_rule, _PRODUCT_FACTOR_CAP)

    n = order - 1  # work on f/z, whose constant term is 1
    p = [1.0 + 0j] + [0j] * n
    num_c = -1.0 + 0j  # -zeta^k, starting at k = 0
    den_c = -s / zeta  # -s * zeta^(k-1), starting at k = 0
    for _ in range(k_direct):
        # multiply by (1 + num_c z), then divide by (1 + den_c z)
        for m in range(n, 0, -1):
            p[m] += num_c * p[m - 1]
        for m in range(1, n + 1):
            p[m] -= den_c * p[m - 1]
        num_c *= zeta
        den_c *= zeta

    if k_direct < k_rule:
        # log of the tail product over k >= K := k_direct, coefficient of z^m:
        #   zeta^((K-1) m) (s^m - zeta^m) / (m (1 - zeta^m))
        zK = zeta ** (k_direct - 1)
        log_tail = [0j]
        sm = 1.0 + 0j
        zm = 1.0 + 0j
        zKm = 1.0 + 0j
        for m in range(1, n + 1):
            sm *= s
            zm *= zeta
            zKm *= zK
            log_tail.append(zKm * (sm - zm) / (m * one_minus_power(zeta, m)))
        tail = exp_series(PowerSeries(tuple(log_tail)))
        p = (PowerSeries(tuple(p)) * tail).coeffs

    coeffs = (0j,) + tuple(p)
    return StarlikeFunction(PowerSeries(coeffs), params, source="product")


def extremal_factors(params: ClassParams, n: int):
    """Yield ((1 - 2 alpha) + [k-1], [k] - 1) for k = 2 .. n, divisors checked."""
    qn = q_numbers(params.zeta, n)
    dv = check_divisors(params.zeta, qn)
    one_m2a = 1.0 - 2.0 * params.alpha
    for k in range(2, n + 1):
        yield one_m2a + qn[k - 2], dv[k - 1]


def extremal_coeff_formula(params: ClassParams, n: int) -> complex:
    """a_n of the extremal function as a literal product of complex factors.

    prod_{k=2}^{n} ((1 - 2 alpha) + [k-1]) / ([k] - 1); no modulus is taken.
    """
    if n < 2:
        raise OutOfRange(f"n = {n} must be >= 2")
    return extremal_by_formula(params, n).coeff(n)


def extremal_by_formula(params: ClassParams, order: int) -> StarlikeFunction:
    """The extremal function as running products of :func:`extremal_factors`,
    independent of the recursion and of :func:`extremal_product`."""
    if order < 1:
        raise OutOfRange(f"order = {order} must be >= 1")
    coeffs = [0j, 1.0 + 0j]
    for num, den in extremal_factors(params, order):
        coeffs.append(coeffs[-1] * (num / den))
    return StarlikeFunction(PowerSeries(tuple(coeffs)), params, source="formula")


def rotate(f: StarlikeFunction, theta: float) -> StarlikeFunction:
    """e^{-i theta} f(e^{i theta} z): coefficients a_n -> a_n e^{i(n-1) theta}."""
    phase = cmath.exp(1j * theta)
    coeffs = [0j, 1.0 + 0j]
    rot = phase
    for n in range(2, f.order + 1):
        coeffs.append(f.series.coeffs[n] * rot)
        rot *= phase
    return StarlikeFunction(PowerSeries(tuple(coeffs)), f.params, f.source)


def membership_margin(
    f: StarlikeFunction,
    r_max: float = 0.95,
    radial_steps: int = 48,
    angular_steps: int = 360,
) -> float:
    """min over a polar grid of Re(z D_zeta f / f) - alpha.

    The ratio is evaluated pointwise as a quotient of Horner evaluations of
    the truncated numerator and denominator (both divided by z, so their
    constant terms are a1 = 1).  A finite grid over truncated data makes this
    a heuristic certificate, not a proof of membership.

    Precondition: ``r_max`` must lie inside the disk of convergence of the
    series that the coefficients truncate; beyond it the sections determine
    no function and the margin means nothing (their zeros crowd onto the
    boundary circle).  For the extremal that disk is |z| < |zeta/s|, which is
    q/(2 - q) for real zeta = q and alpha = 0.  A coefficient list that is the
    whole function, such as a polynomial, has no such limit.
    """
    if not 0.0 < r_max < 1.0:
        raise OutOfRange(f"r_max = {r_max} outside (0, 1)")
    if radial_steps < 1 or angular_steps < 1:
        raise OutOfRange("grid steps must be positive")
    a = np.asarray(f.series.coeffs[1:], dtype=complex)  # a1..aN
    qn = np.asarray(q_numbers(f.params.zeta, f.order), dtype=complex)
    num = qn * a  # coefficients of (z D_zeta f)/z
    radii = np.linspace(r_max / radial_steps, r_max, radial_steps)
    angles = 2.0 * np.pi * np.arange(angular_steps) / angular_steps
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    pv = np.polynomial.polynomial.polyval
    top = pv(z, num)
    bot = pv(z, a)
    bad = np.abs(bot) <= 1e-12
    if bad.any():
        idx = int(np.argmax(bad))
        raise DenominatorVanished(complex(z[idx]))
    ratio = top / bot
    return float(np.min(ratio.real) - f.params.alpha)


__all__ = [
    "StarlikeFunction",
    "recursion_coeffs",
    "coeffs_from_schwarz",
    "initial_coeffs_closed",
    "extremal_product",
    "extremal_factors",
    "extremal_coeff_formula",
    "extremal_by_formula",
    "rotate",
    "membership_margin",
    "DEGENERATE_TOL",
]
