"""Schwarz-class functions and their Schur parameters.

The Schwarz class B0 consists of analytic self-maps of the unit disk fixing
the origin, ``w(z) = b1 z + b2 z**2 + ...`` with |w| < 1.  Every such
function is generated by a sequence of Schur parameters, complex numbers in
the closed unit disk, through the chain of disk automorphisms

    w(z) = z * phi(z),    phi = tau_g0(z * tau_g1(z * tau_g2(...))),
    tau_g(u) = (g + u) / (1 + conj(g) * u).

Expanding the chain shows the first coefficients in terms of the parameters
(g0, g1, g2) = (b1, x, y):

    b1 = g0,
    b2 = (1 - |g0|**2) * g1,
    b3 = (1 - |g0|**2) * ((1 - |g1|**2) * g2 - conj(g0) * g1**2),

which for real b1 is exactly the classical (b1, x, y) parameterization of the
first three Schwarz coefficients; :func:`schwarz_b2b3` evaluates it directly.
A unit-modulus parameter makes tau constant, so the chain terminates there: a
finite Blaschke product, whose later coefficients are all fixed, and in
particular b1 = 1 forces w(z) = z.  :func:`schur_rows` runs the chain forward
and :func:`schur_test` runs it backward, reading the parameters off a
coefficient array; a :class:`SchwarzSeries` holds one such array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParams, InvalidSchwarz, OutOfRange, complex_array, complex_number,
                     integer)
from .series import DISK_TOL, Coefficients

#: |gamma| within this of 1 terminates the Schur chain.
UNIT_TOL = 1e-12

#: schur_test margins above -MARGIN_TOL count as acceptable.
MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class SchurParams:
    """A finite Schur-parameter sequence, each entry in the closed unit disk.

    If some parameter has unit modulus the chain terminates there and all
    later entries are ignored by construction.
    """

    gammas: tuple

    def __post_init__(self):
        gammas = tuple(complex_number("Schur parameter", g) for g in self.gammas)
        if not gammas:
            raise InvalidParams("at least one Schur parameter is required")
        for k, g in enumerate(gammas):
            if not abs(g) <= 1.0 + DISK_TOL:  # also false for NaN
                raise InvalidParams(f"|gamma_{k}| = {abs(g)} is not at most 1")
        object.__setattr__(self, "gammas", gammas)


@dataclass(frozen=True, eq=False)
class SchwarzSeries(Coefficients):
    """A truncated expansion b_0 .. b_N of a Schwarz-class function
    (b_0 = 0, |b1| <= 1)."""

    def __post_init__(self):
        super().__post_init__()
        c = self.coeffs
        if c[0] != 0:
            raise InvalidSchwarz(f"w(0) = {complex(c[0])} must be 0")
        if len(c) > 1 and not abs(c[1]) <= 1.0 + DISK_TOL:  # also true for NaN
            raise InvalidSchwarz(f"|b1| = {abs(c[1])} exceeds 1")


def schur_expand(params: SchurParams, order: int) -> SchwarzSeries:
    """Expand the Schur chain of ``params`` to a truncated Schwarz series.

    Guarantees b1 = g0, b2 = (1-|g0|^2) g1 and the b3 formula quoted in the
    module docstring; a single unit-modulus parameter gives the rotation
    ``w(z) = g0 * z`` exactly.  This is the one-row case of
    :func:`schur_rows`.
    """
    if not isinstance(params, SchurParams):
        params = SchurParams(tuple(params))
    return SchwarzSeries(schur_rows(np.array([params.gammas]), order)[0])


def schur_rows(gammas, order: int) -> np.ndarray:
    """Coefficients b_0 .. b_order of many Schur chains at once.

    ``gammas`` has shape (N, depth), one chain per row, and the result has
    shape (N, order + 1).  Each step phi <- tau_g(z phi) is a truncated long
    division by 1 + conj(g) z phi, one numpy operation per coefficient index
    over all rows.  From a row's first parameter with |g| >= 1 - UNIT_TOL on,
    phi is the constant g (tau_g is constant there), so later parameters are
    ignored.
    """
    order = integer("order", order, 1)
    g = complex_array("Schur parameter", gammas)
    if g.ndim != 2 or g.shape[1] == 0:
        raise InvalidParams("at least one Schur parameter per row is required")
    r = np.abs(g)
    bad = ~(r <= 1.0 + DISK_TOL)  # also true for NaN
    if bad.any():
        raise InvalidParams(f"|gamma| = {r[bad][0]} is not at most 1")
    unit = r >= 1.0 - UNIT_TOL
    phi = np.zeros((len(g), order + 1), dtype=complex)
    phi[:, 0] = g[:, -1]
    for j in range(g.shape[1] - 2, -1, -1):
        den = np.zeros_like(phi)  # 1 + conj(g) z phi without its constant 1
        den[:, 1:] = phi[:, :-1] * g[:, j, None].conjugate()
        out = np.empty_like(phi)
        out[:, 0] = g[:, j]
        for m in range(1, order + 1):
            out[:, m] = phi[:, m - 1] - np.einsum(
                "ij,ij->i", den[:, 1:m + 1], out[:, m - 1::-1])
        out[unit[:, j], 1:] = 0.0
        phi = out
    b = np.zeros_like(phi)
    b[:, 1:] = phi[:, :-1]
    return b


def schur_test(w) -> tuple:
    """Run the Schur recursion on a truncated series; report the parameters.

    ``w`` is a :class:`SchwarzSeries` or any sequence b_0 .. b_N.

    Each step inverts one step of :func:`schur_rows` on the coefficient
    array, phi <- ((phi - g) / z) / (1 - conj(g) phi), a truncated long
    division with one dot product per index.  Returns ``(gammas, margin)``
    with ``margin = 1 - max_k |gamma_k|``.  The chain stops at the first
    |g| >= 1 - UNIT_TOL; there w must be a Blaschke product, so phi must be
    the constant g, and a remainder phi - g that does not vanish lowers the
    margin to -max_k |phi_k - g delta_k0|.  A margin >= -MARGIN_TOL is the
    acceptance threshold used downstream.  On truncated data this is a
    necessary condition for membership in B0 only: the tail of the true
    function is invisible at finite order.

    Never raises on bad input; an out-of-disk parameter simply produces a
    negative margin (e.g. ``w = 2z`` reports margin -1), and a division that
    blows up after a near-unit parameter reads as |g| > 1 or a NaN margin.
    """
    c = (w if isinstance(w, SchwarzSeries) else Coefficients(w)).coeffs
    if not abs(c[0]) <= 1e-14:  # also true for NaN
        raise InvalidSchwarz(f"w(0) = {complex(c[0])} must be 0")
    if len(c) == 1:
        return (0j,), 1.0
    phi = c[1:]
    gammas = [complex(phi[0])]
    while abs(gammas[-1]) < 1.0 - UNIT_TOL and len(phi) > 1:  # False for NaN
        den = -gammas[-1].conjugate() * phi  # 1 - conj(g) phi
        den[0] += 1.0
        out = np.empty(len(phi) - 1, dtype=complex)
        with np.errstate(all="ignore"):  # a blow-up reads as |g| > 1 or NaN
            out[0] = phi[1] / den[0]
            for m in range(1, len(out)):
                out[m] = (phi[m + 1] - den[1:m + 1] @ out[m - 1::-1]) / den[0]
        phi = out
        gammas.append(complex(phi[0]))
    # |phi| beyond its constant term is the remainder left after a unit g,
    # which must vanish; the last g goes first, so a NaN one carries over
    r = np.abs(phi)
    r[0] = max([r[0], *map(abs, gammas[:-1])]) - 1.0
    return tuple(gammas), float(0.0 - r.max())


def schwarz_b2b3(b1: float, x, y=None) -> tuple:
    """(b2, b3) of a Schwarz function from the triple (b1, x, y).

    b2 = x (1 - b1^2),  b3 = (1 - b1^2) ((1 - |x|^2) y - b1 x^2),
    valid for real b1 in [0, 1] and |x| <= 1, |y| <= 1.  Scalar arguments
    give Python complex values; numpy array arguments broadcast against each
    other, are range-checked element by element, and give arrays.  Without
    y only b2 is formed, and b3 comes back as None.
    """
    b1 = _real_in(b1, 0.0, 1.0, "b1")
    x = _disk(x, "x")
    one_m = 1.0 - b1 * b1
    b2 = x * one_m
    if y is None:
        return b2, None
    y = _disk(y, "y")
    b3 = one_m * ((1.0 - abs(x) ** 2) * y - b1 * x * x)
    return b2, b3


def canonical_schwarz(kind: str, order: int, *, x=None, b1=None) -> SchwarzSeries:
    """Named Schwarz functions used as extremal witnesses.

    kind = "identity":        w(z) = z.
    kind = "x_zsquared":      w(z) = x z**2 for |x| <= 1.
    kind = "blaschke_remark": w(z) = z (z - b1) / (b1 z - 1) for b1 in [0, 1];
        has b1(w) = b1 and b2 = -(1 - b1^2), the x = -1 case of the triple
        parameterization; its series is the closed form
        b1 z - (1 - b1^2) sum_{k>=2} b1^(k-2) z^k.
    """
    order = integer("order", order, 1)
    c = [0j] * (order + 1)
    if kind == "identity":
        c[1] = 1.0
    elif kind == "x_zsquared":
        if x is None:
            raise OutOfRange("x_zsquared requires the parameter x")
        x = _disk(x, "x")
        if order < 2:
            raise OutOfRange("x_zsquared needs order >= 2")
        c[2] = x
    elif kind == "blaschke_remark":
        if b1 is None:
            raise OutOfRange("blaschke_remark requires the parameter b1")
        b1 = _real_in(b1, 0.0, 1.0, "b1")
        c[1:] = [b1] + [-(1.0 - b1 * b1) * b1 ** (k - 2) for k in range(2, order + 1)]
    else:
        raise OutOfRange(f"unknown canonical kind {kind!r}")
    return SchwarzSeries(c)


def _as_complex(value, name):
    return complex_array(name, value) if np.ndim(value) else complex_number(name, value)


def _check(ok, value, message) -> None:
    """Raise OutOfRange naming the first element of ``value`` where ``ok`` fails."""
    if not np.all(ok):  # also fails for NaN
        raise OutOfRange(message.format(np.ravel(value)[np.argmin(np.ravel(ok))]))


def _real_in(value, lo, hi, name):
    """A real scalar or array in [lo, hi] (to within DISK_TOL), clamped there."""
    value = _as_complex(value, name)
    _check(np.abs(value.imag) <= DISK_TOL, value, name + " = {} must be real")
    v = value.real
    _check((lo - DISK_TOL <= v) & (v <= hi + DISK_TOL), v,
           name + f" = {{}} outside [{lo}, {hi}]")
    return np.clip(v, lo, hi) if np.ndim(v) else min(max(v, lo), hi)


def _disk(value, name):
    """A complex scalar or array in the closed unit disk (to within DISK_TOL)."""
    value = _as_complex(value, name)
    r = np.abs(value)
    _check(r <= 1.0 + DISK_TOL, r, f"|{name}| = {{}} exceeds 1")
    return value


__all__ = [
    "SchurParams",
    "SchwarzSeries",
    "schur_expand",
    "schur_rows",
    "schur_test",
    "schwarz_b2b3",
    "canonical_schwarz",
    "UNIT_TOL",
    "MARGIN_TOL",
]
