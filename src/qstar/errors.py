"""Exception types shared across the package, and the integer and real rules.

Every domain error derives from :class:`QStarError` so callers can catch the
whole family at once (the CLI does exactly that).  :func:`integer` is the
one check of an integer argument: grid sizes, orders, the random suite's
count and seed, and the order of ``an_product``.  :func:`real` is the one
check of a real argument: q, alpha and the lemma kit's inputs.
:func:`complex_number` is the one check of a complex argument: zeta, the
Schur parameters of a ``SchurParams`` and the disk parameters b1, x and y of
the Schwarz triples; :func:`complex_array` applies it to the entries of a
coefficient sequence and of the Schur-parameter rows of ``schur_rows``.
"""

import numbers

import numpy as np


class QStarError(Exception):
    """Base class for all qstar domain errors."""


class InnerNotVanishing(QStarError):
    """exp_series called on a series g whose constant term g(0) is not 0."""


class InvalidParams(QStarError):
    """A Schur parameter lies outside the closed unit disk."""


class OutOfRange(QStarError):
    """A scalar argument violates its documented range."""


class IndexOutOfRange(QStarError):
    """A determinant requests coefficients beyond the supplied sequence."""


class DegenerateDivisor(QStarError):
    """A q-number denominator [n] - 1 vanishes; carries the offending index."""

    def __init__(self, n, message=None):
        self.n = n
        super().__init__(message or f"[n]-1 vanishes at n={n}")


class InvalidSchwarz(QStarError):
    """A series fails the Schur-parameter membership test for the class B0."""


class DenominatorVanished(QStarError):
    """A sampled grid point hit a zero of the truncated denominator."""

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or f"denominator vanished at z={point}")


class UnknownId(QStarError):
    """An identifier does not name any known functional."""


class MissingCaseFlag(QStarError):
    """A case-split bound was queried without saying which case."""


class PreconditionViolated(QStarError):
    """A lemma-specific hypothesis (for example a*c >= 0) does not hold."""


def integer(name: str, value, least=None) -> int:
    """``value`` as an int; OutOfRange unless it is an integer (a bool is
    not) and, when ``least`` is given, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfRange(f"{name} = {value!r} is not an integer")
    value = int(value)
    if least is not None and value < least:
        raise OutOfRange(f"{name} = {value} must be >= {least}")
    return value


def real(name: str, value) -> float:
    """``value`` as a float; OutOfRange unless it is a real number (a bool or
    a str is not).  NaN and inf pass: each caller states its range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfRange(f"{name} = {value!r} is not a real number")
    return float(value)


def complex_number(name: str, value) -> complex:
    """``value`` as a complex; OutOfRange unless it is a complex number (a
    real number is; a bool or a str is not).  NaN and inf pass: each caller
    states its range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise OutOfRange(f"{name} = {value!r} is not a complex number")
    return complex(value)


def complex_array(name: str, values) -> np.ndarray:
    """``values`` as a complex ndarray, each entry by the rule of
    :func:`complex_number`.  A numeric ndarray passes unchecked, and a
    complex one is returned as it is, not copied."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iufc"):
        values = np.asarray(values, dtype=object)
        # one entry of each type is tested: construction is on hot paths
        for v in {type(v): v for v in values.flat}.values():
            complex_number(name, v)
    return np.asarray(values, dtype=complex)


# the exception classes only: the argument rules are reached as qstar.errors.*
__all__ = ["QStarError", "InnerNotVanishing", "InvalidParams", "OutOfRange", "IndexOutOfRange",
           "DegenerateDivisor", "InvalidSchwarz", "DenominatorVanished", "UnknownId",
           "MissingCaseFlag", "PreconditionViolated"]
