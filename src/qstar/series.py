"""Truncated complex power series and the q-numbers of the class.

A :class:`PowerSeries` holds the Taylor coefficients ``c[0] .. c[N]`` of an
analytic function about 0.  Its products are truncated Cauchy products and its
quotients come from truncated long division, both strictly at the shared order
``N``: no operation ever reads or writes past index ``N``.  Truncating the
exact product of two polynomials of degree <= N/2 is therefore identical to
multiplying them at order ``N``.  :func:`exp_series` is the one transcendental
operation (the extremal product is the exponential of a closed-form series).

The q-calculus pieces used everywhere else:

* ``q_numbers(zeta, order)`` -- the generalized integers ``[1] .. [order]``,
  ``[n] = 1 + zeta + ... + zeta**(n-1)``, summed directly so that ``zeta = 1``
  gives exactly ``n``.  The q-difference operator D_zeta of the class scales
  the n-th coefficient by ``[n]``; it is the Jackson q-derivative for real
  ``zeta`` in (0, 1) and ``f'`` as ``zeta -> 1``;
* ``check_divisors`` forms the divisors ``[n] - 1`` of the coefficient
  recursion and product as ``zeta * [n-1]`` (the subtraction cancels for
  small |zeta|) and is the one test that they are away from 0.

Instances are immutable values; every operation is a pure function, so series
can be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDivisor, DivisorNearZero, InnerNotVanishing, OutOfRange

#: Divisors need a constant term of at least this modulus.
DIVISOR_TOL = 1e-12

#: |[n] - 1| at or below this counts as a degenerate divisor [n] - 1.
DEGENERATE_TOL = 1e-12

#: exp_series() demands |g(0)| below this.
INNER_TOL = 1e-14


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients ``c[0] + c[1] z + ... + c[N] z**N`` with N = order.

    ``coeffs`` is normalized to a tuple of ``complex``; the order is implied
    by its length.  Binary operations require both operands to carry the same
    order; :meth:`from_coeffs` truncates or zero-pads to one.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", coeffs)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        return cls((complex(value),) + (0j,) * order)

    @classmethod
    def monomial(cls, power: int, order: int, coeff=1.0) -> "PowerSeries":
        """Series of ``coeff * z**power`` at the given order."""
        if not 0 <= power <= order:
            raise ValueError(f"power {power} outside 0..{order}")
        c = [0j] * (order + 1)
        c[power] = complex(coeff)
        return cls(tuple(c))

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series of ``z`` itself."""
        return cls.monomial(1, order)

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "PowerSeries":
        """Build a series, zero-padding or truncating to ``order`` if given."""
        c = [complex(v) for v in coeffs]
        if order is not None:
            c = (c + [0j] * (order + 1 - len(c)))[: order + 1]
        return cls(tuple(c))

    # ------------------------------------------------------------------
    # basic queries

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    # ------------------------------------------------------------------
    # arithmetic

    def _same_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PowerSeries(tuple(a * other for a in self.coeffs))
        self._same_order(other)
        a, b = self.coeffs, other.coeffs
        n = self.order
        out = [0j] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += ai * b[j]
        return PowerSeries(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Truncated long division ``self / other``."""
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / other)
        self._same_order(other)
        b = other.coeffs
        if abs(b[0]) <= DIVISOR_TOL:
            raise DivisorNearZero(f"constant term {b[0]} below {DIVISOR_TOL}")
        a = self.coeffs
        n = self.order
        out = [0j] * (n + 1)
        for m in range(n + 1):
            acc = a[m]
            for k in range(1, m + 1):
                acc -= b[k] * out[m - k]
            out[m] = acc / b[0]
        return PowerSeries(tuple(out))

@dataclass(frozen=True)
class ClassParams:
    """Class parameters (zeta, alpha) with |zeta| <= 1 and alpha in [0, 1)."""

    zeta: complex
    alpha: float = 0.0

    def __post_init__(self):
        zeta = complex(self.zeta)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "alpha", float(self.alpha))
        if not abs(zeta) <= 1.0 + 1e-12:  # also false for NaN
            raise OutOfRange(f"|zeta| = {abs(zeta)} is not at most 1")
        if not 0.0 <= self.alpha < 1.0:
            raise OutOfRange(f"alpha = {self.alpha} outside [0, 1)")

    @property
    def is_real_q(self) -> bool:
        """True when zeta is a real number in (0, 1)."""
        return self.zeta.imag == 0.0 and 0.0 < self.zeta.real < 1.0

    @property
    def q(self) -> float:
        """The real parameter q; raises unless zeta is real in (0, 1)."""
        if not self.is_real_q:
            raise OutOfRange(f"zeta = {self.zeta} is not a real q in (0, 1)")
        return self.zeta.real


def q_numbers(zeta, order: int) -> list:
    """``[1], ..., [order]`` with ``[n] = 1 + zeta + ... + zeta**(n-1)``.

    One running sum (rather than the geometric closed form) keeps the values
    exact at ``zeta = 1``, where ``[n] == n`` for any n.
    """
    if order < 1:
        raise OutOfRange(f"order = {order} must be >= 1")
    zeta = complex(zeta)
    out = [1.0 + 0j]
    term = 1.0 + 0j
    for _ in range(order - 1):
        term *= zeta
        out.append(out[-1] + term)
    return out


def check_divisors(zeta, qn: list, first: int = 2) -> list:
    """The divisors ``[1] - 1 .. [N] - 1`` for ``qn = [1..N]``, formed as
    ``zeta * [n-1]``, or ``DegenerateDivisor(n)`` at the first n in first..N
    with ``|[n] - 1| <= DEGENERATE_TOL``."""
    zeta = complex(zeta)
    dv = [0j] + [zeta * w for w in qn[:-1]]
    for n in range(first, len(qn) + 1):
        if abs(dv[n - 1]) <= DEGENERATE_TOL:
            raise DegenerateDivisor(n)
    return dv


def one_minus_power(zeta, n: int) -> complex:
    """``1 - zeta**n`` computed without cancellation for real zeta near 1."""
    zeta = complex(zeta)
    if zeta.imag == 0.0 and zeta.real > 0.0:
        return complex(-math.expm1(n * math.log(zeta.real)))
    return 1.0 - zeta**n


def exp_series(g: PowerSeries) -> PowerSeries:
    """Truncated ``exp(g)`` for a series with ``g(0) = 0``."""
    if abs(g.coeffs[0]) > INNER_TOL:
        raise InnerNotVanishing(f"exp_series needs g(0) = 0, got {g.coeffs[0]}")
    n = g.order
    out = [0j] * (n + 1)
    out[0] = 1.0 + 0j
    for m in range(1, n + 1):
        acc = 0j
        for k in range(1, m + 1):
            acc += k * g.coeffs[k] * out[m - k]
        out[m] = acc / m
    return PowerSeries(tuple(out))


__all__ = [
    "PowerSeries",
    "ClassParams",
    "q_numbers",
    "check_divisors",
    "one_minus_power",
    "exp_series",
    "DIVISOR_TOL",
    "DEGENERATE_TOL",
    "INNER_TOL",
]
