"""The class S*_zeta(alpha): coefficient generation, extremals, membership.

A normalized function f(z) = z + a2 z^2 + ... belongs to S*_zeta(alpha) when
Re(z D_zeta f / f) > alpha on the unit disk, D_zeta being the q-difference
operator that scales a_n by the q-number [n] = 1 + zeta + ... + zeta^(n-1)
(:func:`qstar.series.q_numbers`).  Writing the defining inequality through a
Schwarz function w,

    (z D_zeta f / f - alpha) / (1 - alpha) = (1 + w) / (1 - w),

and comparing coefficients yields the linear recursion

    ([n] - 1) a_n = sum_{k=1}^{n-1} b_{n-k} ((1 - 2 alpha) + [k]) a_k,

with a1 = 1.  Its weights (1 - 2 alpha) + [k] and divisors [n] - 1 are the
two sequences of :func:`qstar.series.class_weights`, which the telescoped
product below reads as well.  The recursion is the ground truth here; the
infinite-product solution for w(z) = z and the closed coefficient formula
are independent cross-checks of it.  :func:`recursion_coeffs` is the one
map from Schwarz to starlike coefficients, at any order and alpha:
:func:`coeffs_from_schwarz` runs it on one coefficient array, and
:mod:`qstar.search` on arrays of members (the grid's (b1, b2, b3), the
random suite's rows and the rotated extremal).  Each route returns a
:class:`StarlikeFunction`, which holds a_0 .. a_N as a read-only complex
numpy array.  :func:`qstar.exact.recursion` runs the same recursion with
its divisions multiplied out, A_n = a_n ([2] - 1) ... ([n] - 1), in exact
arithmetic, for the random suite's reported rows.

For w(z) = z the function satisfies f(zeta z) = f(z) (zeta - s z)/(1 - z)
with s = 1 + (1 - zeta)(1 - 2 alpha), solved by the convergent product

    f(z) = z * prod_{k>=0} (zeta - zeta^(k+1) z) / (zeta - zeta^k s z),

whose logarithm sums over k in closed form (:func:`extremal_product` takes
the exponential of that series, from running sums of its own, and borrows
neither the q-numbers nor the class weights) and whose
n-th coefficient also equals the telescoped product
(:func:`extremal_by_formula`)

    a_n = prod_{k=2}^{n} ((1 - 2 alpha) + [k-1]) / ([k] - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorVanished, InvalidSchwarz, OutOfRange, integer
from .schwarz import MARGIN_TOL, SchwarzSeries, schur_test
from .series import ClassParams, Coefficients, class_weights, exp_series, q_numbers

@dataclass(frozen=True, eq=False)
class StarlikeFunction(Coefficients):
    """A truncated member (or candidate member) a_0 .. a_N of S*_zeta(alpha)."""

    params: ClassParams

    def __post_init__(self):
        super().__post_init__()
        c = self.coeffs
        if c[0] != 0:
            raise OutOfRange(f"f(0) = {complex(c[0])} must be 0")
        if len(c) < 2 or c[1] != 1:
            raise OutOfRange("f must be normalized with a1 = 1")
        if not np.isfinite(c).all():
            raise OutOfRange("a coefficient is not finite (overflow or NaN input)")

    def __eq__(self, other):
        return super().__eq__(other) and self.params == other.params

    @classmethod
    def from_coeffs(cls, coeffs, params: ClassParams):
        """Build from the tail (a1, a2, ...) or the full (0, a1, a2, ...)."""
        c = Coefficients(coeffs).coeffs
        return cls(c if c[0] == 0 else np.append(0j, c), params)


def recursion_coeffs(b, params: ClassParams, order: int) -> list:
    """[a_0, ..., a_order] of the recursion, as numpy complex values.

    ``b[k]`` is the Schwarz coefficient b_k; b_1 .. b_(order-1) enter, each a
    scalar or an array of one b_k per member.  The arrays broadcast together,
    and an array b_k already has the broadcast shape of b_1 .. b_k, as when
    each coefficient is a function of the ones before it.  a_n has the
    broadcast shape of the b_1 .. b_(n-1) it reads (a_0 = 0 and a_1 = 1 are
    scalars), so the results broadcast together without being expanded.  A
    1-D coefficient array gives one member, the transposed rows of
    :func:`qstar.schwarz.schur_rows` one member per row, and a tuple
    (0, b1, b2, b3) of grid arrays one member per grid point.  The weights
    and the checked divisors come from :func:`qstar.series.class_weights`; a
    degenerate divisor raises ``DegenerateDivisor``.
    """
    # per-term lookups on lists: indexing an ndarray in the loop costs more
    w, div = (list(v) for v in class_weights(params, order))
    b = [np.asarray(v, dtype=complex)[()] for v in b[:order]]
    a = [np.complex128(0), np.complex128(1)]
    # an overflow surfaces as a non-finite coefficient, which the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(2, order + 1):
            acc = b[n - 1] * w[0]  # the k = 1 term, a_1 = 1
            for k in range(2, n):
                acc += b[n - k] * w[k - 1] * a[k]  # in place: one array temporary fewer
            a.append(acc / div[n - 1])
    return a


def coeffs_from_schwarz(
    omega: SchwarzSeries, params: ClassParams, order: int
) -> StarlikeFunction:
    """Solve the coefficient recursion for the given Schwarz function.

    ``omega`` must pass :func:`qstar.schwarz.schur_test` (necessary-condition
    margin >= -1e-9) and must carry coefficients up to order - 1.
    """
    order = integer("order", order, 1)
    if omega.order < order - 1:
        raise OutOfRange(f"omega carries {omega.order} coefficients; need >= {order - 1}")
    _, margin = schur_test(omega)
    if not margin >= -MARGIN_TOL:  # also true for a NaN margin
        raise InvalidSchwarz(f"schur_test margin {margin:.3e} below {-MARGIN_TOL}")
    return StarlikeFunction(recursion_coeffs(omega.coeffs, params, order), params)


def extremal_product(params: ClassParams, order: int) -> StarlikeFunction:
    """The extremal function as the exponential of its closed-form logarithm.

    f(z)/z is the product over k >= 0 of the normalized factors

        (1 - zeta^k z) / (1 - zeta^(k-1) s z),

    with s = 1 + (1 - zeta)(1 - 2 alpha); the k = 0 denominator carries
    zeta^(-1), which is where the leading 2/zeta in a2 comes from.  Summed
    over every k >= 0, the logarithm of that product is a geometric series in
    zeta^k with the z^m coefficient

        zeta^(-m) (s^m - zeta^m) / (m (1 - zeta^m))
            = zeta^(-m) (2 - 2 alpha) h_(m-1) / (m [m]),

    with h_m = s^m + s^(m-1) zeta + ... + zeta^m = zeta h_(m-1) + s^m and
    [m] = 1 + zeta + ... + zeta^(m-1), both kept as running sums here: the
    factor 1 - zeta of both differences is divided out exactly, as
    s - zeta = (1 - zeta)(2 - 2 alpha), so nothing cancels as zeta -> 1.
    f/z is one :func:`qstar.series.exp_series` of the series, with no
    truncation of the factor count.  Requires 0 < |zeta| < 1.
    """
    order = integer("order", order, 1)
    zeta = params.zeta
    r = abs(zeta)
    if r == 0.0 or r >= 1.0:
        raise OutOfRange(f"extremal product needs 0 < |zeta| < 1, got {zeta}")
    s = 1.0 + (1.0 - zeta) * (1.0 - 2.0 * params.alpha)
    lead = 2.0 - 2.0 * params.alpha
    inv = 1.0 / zeta
    log_f = [0j]  # log(f/z); f/z has constant term 1
    sm = zm = h = qm = inv_m = 1.0 + 0j  # s^(m-1), zeta^(m-1), h_(m-1), [m], zeta^(-m+1)
    for m in range(1, order):
        inv_m *= inv
        log_f.append(inv_m * lead * h / (m * qm))
        sm *= s
        zm *= zeta
        h = zeta * h + sm
        qm += zm
    return StarlikeFunction(np.append(0j, exp_series(log_f)), params)


def extremal_by_formula(params: ClassParams, order: int) -> StarlikeFunction:
    """The extremal function as the running products a_n = a_(n-1) w_(n-1) / D_n
    of :func:`qstar.series.class_weights`, in Python complex arithmetic,
    independent of the recursion and of :func:`extremal_product`."""
    order = integer("order", order, 1)
    w, d = class_weights(params, order)
    coeffs = [0j, 1.0 + 0j]
    for num, den in zip(w.tolist()[:-1], d.tolist()[1:]):
        coeffs.append(coeffs[-1] * (num / den))
    return StarlikeFunction(coeffs, params)


def _horner(coeffs, z):
    """Each row of ``coeffs`` (lowest degree first) at every point of ``z``,
    shape (rows, len(z)).

    The arithmetic of ``np.polynomial.polynomial.polyval`` on each row, bit
    for bit, run in place on one accumulator: no array is allocated per
    coefficient, nor for ``z * 0``.
    """
    acc = np.multiply(z, 0, out=np.empty((len(coeffs), len(z)), np.result_type(z, coeffs)))
    acc += coeffs[:, -1:]
    for c in coeffs[:, -2::-1].T:
        acc *= z
        acc += c[:, None]
    return acc


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
    whole function, such as a polynomial, has no such limit.  Coefficients
    that overflow double precision on the grid give a non-finite margin,
    which raises OutOfRange.
    """
    if not 0.0 < r_max < 1.0:
        raise OutOfRange(f"r_max = {r_max} outside (0, 1)")
    radial_steps = integer("radial_steps", radial_steps)
    angular_steps = integer("angular_steps", angular_steps)
    if radial_steps < 1 or angular_steps < 1:
        raise OutOfRange("grid steps must be positive")
    a = f.coeffs[1:]  # a1..aN
    qn = np.asarray(q_numbers(f.params.zeta, f.order), dtype=complex)
    radii = np.linspace(r_max / radial_steps, r_max, radial_steps)
    angles = 2.0 * np.pi * np.arange(angular_steps) / angular_steps
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    with np.errstate(all="ignore"):  # an overflow surfaces as a non-finite margin
        # qn * a: the coefficients of (z D_zeta f)/z
        top, bot = _horner(np.stack([qn * a, a]), z)
        bad = np.abs(bot) <= 1e-12
        if bad.any():
            raise DenominatorVanished(complex(z[np.argmax(bad)]))
        # the quotient overwrites top: a third grid-sized array beside z and
        # the accumulator takes the call's peak heap to twice its largest
        # array, glibc's trim threshold once that array has been freed, and
        # then each call can return the heap and page-fault it back
        margin = float(np.min(np.divide(top, bot, out=top).real) - f.params.alpha)
    if not np.isfinite(margin):
        raise OutOfRange(f"margin {margin}: the coefficients overflow on the grid")
    return margin


__all__ = [
    "StarlikeFunction",
    "recursion_coeffs",
    "coeffs_from_schwarz",
    "extremal_product",
    "extremal_by_formula",
    "membership_margin",
]
