"""qstar: the q-starlike function family, its sharp coefficient bounds, and
brute-force verification that every bound is tight.

Layering, bottom up: :mod:`~qstar.series` (coefficient arrays, the series
exponential and the q-numbers), :mod:`~qstar.schwarz` (Schur parameters and
the Schwarz class), :mod:`~qstar.starlike` (coefficient recursion, extremal
functions, membership), :mod:`~qstar.functionals` (Hankel/Toeplitz
determinants), :mod:`~qstar.bounds` (the closed-form catalog),
:mod:`~qstar.search` (grid and randomized verification), :mod:`~qstar.cli`.
Every Taylor coefficient sequence is a read-only 1-D complex numpy array.
"""

from ._version import __version__
from .bounds import (
    BoundQuery,
    CaseFlag,
    an_product,
    bound_value,
    cubic_bound_region,
    disk_quadratic_max_closed,
    disk_quadratic_max_grid,
    h2_quadratic_triple,
    parseval_rhs,
    product_bound_applies,
    schwarz_cubic_functional,
)
from .errors import (
    DegenerateDivisor,
    DenominatorVanished,
    IndexOutOfRange,
    InnerNotVanishing,
    InvalidParams,
    InvalidSchwarz,
    MissingCaseFlag,
    OutOfRange,
    PreconditionViolated,
    QStarError,
    UnknownId,
)
from .functionals import (
    FunctionalId,
    hankel_det,
    hankel_matrix,
    named_functional,
    toeplitz_det,
    toeplitz_matrix,
)
from .schwarz import (
    SchurParams,
    SchwarzSeries,
    canonical_schwarz,
    schur_expand,
    schur_rows,
    schur_test,
    schwarz_b2b3,
)
from .search import (
    GridSpec,
    ReportItem,
    SearchResult,
    SearchSpec,
    VerificationReport,
    maximize_functional,
    random_schwarz_suite,
    rotated_extremal_values,
    sharpness_report,
)
from .series import ClassParams
from .starlike import (
    StarlikeFunction,
    coeffs_from_schwarz,
    extremal_by_formula,
    extremal_product,
    membership_margin,
)

__all__ = [
    "__version__",
    "ClassParams",
    "SchurParams",
    "SchwarzSeries",
    "schur_expand",
    "schur_rows",
    "schur_test",
    "schwarz_b2b3",
    "canonical_schwarz",
    "StarlikeFunction",
    "coeffs_from_schwarz",
    "extremal_product",
    "extremal_by_formula",
    "membership_margin",
    "FunctionalId",
    "named_functional",
    "hankel_matrix",
    "toeplitz_matrix",
    "hankel_det",
    "toeplitz_det",
    "CaseFlag",
    "BoundQuery",
    "bound_value",
    "an_product",
    "parseval_rhs",
    "cubic_bound_region",
    "schwarz_cubic_functional",
    "disk_quadratic_max_closed",
    "disk_quadratic_max_grid",
    "h2_quadratic_triple",
    "product_bound_applies",
    "GridSpec",
    "SearchSpec",
    "SearchResult",
    "ReportItem",
    "VerificationReport",
    "maximize_functional",
    "rotated_extremal_values",
    "random_schwarz_suite",
    "sharpness_report",
    "QStarError",
    "InnerNotVanishing",
    "InvalidParams",
    "OutOfRange",
    "IndexOutOfRange",
    "DegenerateDivisor",
    "InvalidSchwarz",
    "DenominatorVanished",
    "UnknownId",
    "MissingCaseFlag",
    "PreconditionViolated",
]
