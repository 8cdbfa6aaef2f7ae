"""Exception types shared across the package.

Every domain error derives from :class:`QStarError` so callers can catch the
whole family at once (the CLI does exactly that).
"""


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


# Grid search raises the same error under the name the search module uses.
UnknownFunctional = UnknownId


class MissingCaseFlag(QStarError):
    """A case-split bound was queried without saying which case."""


class PreconditionViolated(QStarError):
    """A lemma-specific hypothesis (for example a*c >= 0) does not hold."""
