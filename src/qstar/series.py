"""Coefficient arrays and the q-numbers of the class.

Taylor coefficients ``c[0] .. c[N]`` of an analytic function about 0 are a
1-D complex numpy array everywhere in the package.  The Schwarz and starlike
classes hold theirs through :class:`Coefficients`, as a read-only copy that
compares by value.  :func:`exp_series` is the one series operation (the
extremal product is the exponential of a closed-form series).

The q-calculus pieces used everywhere else:

* ``q_numbers(zeta, order)`` -- the generalized integers ``[1] .. [order]``,
  ``[n] = 1 + zeta + ... + zeta**(n-1)``, summed directly so that ``zeta = 1``
  gives exactly ``n``.  The values are in zeta's arithmetic: ``[1]`` is the
  int 1, a float zeta gives floats, a complex one complex values and a
  :class:`qstar.exact.Dyadic` one exact values; every caller in the package
  passes ``ClassParams.zeta``, a complex.  The q-difference operator D_zeta
  of the class scales the n-th coefficient by ``[n]``; it is the Jackson
  q-derivative for real ``zeta`` in (0, 1) and ``f'`` as ``zeta -> 1``;
* ``class_sequences(zeta, s, n)`` -- the two sequences every coefficient
  result of the class reads, the weights ``s + [k]`` (s = 1 - 2 alpha) and
  the divisors ``[k] - 1``, in zeta's arithmetic; it forms the divisors as
  ``[k-1] * zeta`` (the subtraction cancels for small |zeta|);
* ``class_weights(params, n)`` -- those sequences in complex double, as
  arrays, and the one test that the divisors are away from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDivisor, InnerNotVanishing, OutOfRange, complex_array,
                     complex_number, integer, real)

#: |[n] - 1| at or below this counts as a degenerate divisor [n] - 1.
DEGENERATE_TOL = 1e-12

#: exp_series() demands |g(0)| below this.
INNER_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Taylor coefficients c_0 .. c_N (N = ``order``): a read-only complex copy
    of a non-empty 1-D sequence, compared by value.  An entry that is not a
    complex number (a bool or a string is not) raises OutOfRange."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(complex_array("coefficient", self.coeffs))
        if c.ndim != 1 or not len(c):
            raise OutOfRange("coefficients must be a non-empty 1-D sequence")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.coeffs, other.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> complex:
        """The coefficient c_n."""
        return complex(self.coeffs[n])


@dataclass(frozen=True)
class ClassParams:
    """Class parameters (zeta, alpha) with |zeta| <= 1 and alpha in [0, 1),
    stored as a complex and a float; a zeta that is not a complex number or
    an alpha that is not a real one (a bool is neither) raises OutOfRange."""

    zeta: complex
    alpha: float = 0.0

    def __post_init__(self):
        zeta = complex_number("zeta", self.zeta)
        object.__setattr__(self, "alpha", real("alpha", self.alpha))
        object.__setattr__(self, "zeta", zeta)
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
    """``[1], ..., [order]`` with ``[n] = 1 + zeta + ... + zeta**(n-1)``, in
    zeta's arithmetic (any ring that takes the int 1: ``[1]`` is 1).

    One running sum (rather than the geometric closed form) keeps the values
    exact at ``zeta = 1``, where ``[n] == n`` for any n.
    """
    order = integer("order", order, 1)
    out = [1]
    term = 1
    for _ in range(order - 1):
        term *= zeta
        out.append(out[-1] + term)
    return out


def class_sequences(zeta, s, n: int) -> tuple:
    """The weights ``w_k = s + [k]`` and the divisors ``D_k = [k] - 1`` of the
    class for k = 1..n, s = 1 - 2 alpha, as two lists in zeta's arithmetic;
    ``D_k`` is formed as ``[k-1] * zeta``, and ``D_1`` is the int 0."""
    qn = q_numbers(zeta, n)
    return [v + s for v in qn], [0] + [v * zeta for v in qn[:-1]]


def class_weights(params: ClassParams, n: int) -> tuple:
    """The weights ``w_k = (1 - 2 alpha) + [k]`` and the divisors
    ``D_k = [k] - 1`` of :func:`class_sequences` for k = 1..n, as two complex
    arrays.

    The recursion reads ``D_n a_n = sum_k b_(n-k) w_k a_k``, the product
    bound ``prod |w_(k-1) / D_k|`` and the Parseval chain ``|w_k|^2`` and
    ``|D_k|^2``.  The first k in 2..n with ``|D_k| <= DEGENERATE_TOL`` raises
    ``DegenerateDivisor(k)``.
    """
    w, d = class_sequences(params.zeta, 1.0 - 2.0 * params.alpha, n)
    for k in range(2, n + 1):
        if abs(d[k - 1]) <= DEGENERATE_TOL:
            raise DegenerateDivisor(k)
    return np.asarray(w, dtype=complex), np.asarray(d, dtype=complex)


def exp_series(g) -> np.ndarray:
    """Truncated ``exp(g)`` for coefficients ``g[0] .. g[N]`` with ``g(0) = 0``."""
    g = [complex(v) for v in g]  # scalar complex arithmetic, in a fixed order
    if abs(g[0]) > INNER_TOL:
        raise InnerNotVanishing(f"exp_series needs g(0) = 0, got {g[0]}")
    out = [1.0 + 0j]
    for m in range(1, len(g)):
        acc = 0j
        for k in range(1, m + 1):
            acc += k * g[k] * out[m - k]
        out.append(acc / m)
    return np.array(out)


__all__ = [
    "ClassParams",
    "Coefficients",
    "q_numbers",
    "class_sequences",
    "class_weights",
    "exp_series",
    "DEGENERATE_TOL",
    "INNER_TOL",
]
