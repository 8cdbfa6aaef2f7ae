"""qstar: the q-starlike function family, its sharp coefficient bounds, and
brute-force verification that every bound is tight.

Layering, bottom up: :mod:`~qstar.series` (coefficient arrays, the series
exponential and the q-numbers), :mod:`~qstar.exact` (exact binary-fraction
arithmetic and the division-free recursion), :mod:`~qstar.schwarz` (Schur
parameters and the Schwarz class), :mod:`~qstar.starlike` (coefficient recursion, extremal
functions, membership), :mod:`~qstar.functionals` (Hankel/Toeplitz
determinants), :mod:`~qstar.bounds` (the closed-form catalog),
:mod:`~qstar.search` (grid and randomized verification), :mod:`~qstar.cli`.
Every Taylor coefficient sequence is a read-only 1-D complex numpy array.

The package exports ``__version__`` and the ``__all__`` of each of
:mod:`~qstar.errors` (the exception classes), ``series``, ``schwarz``,
``starlike``, ``functionals``, ``bounds`` and ``search``, in that order;
each module's ``__all__`` is the one list of its public names.  ``exact``
and ``cli`` are reached by module name only (see the comment below).
"""

from ._version import __version__
from . import bounds, errors, functionals, schwarz, search, series, starlike
from .errors import *
from .series import *
from .schwarz import *
from .starlike import *
from .functionals import *
from .bounds import *
from .search import *

# exact and cli are not re-exported: exact.recursion is the division-free
# kernel, which at package level would read as the coefficient recursion,
# and cli is the command line, not the library
__all__ = ["__version__", *errors.__all__, *series.__all__, *schwarz.__all__,
           *starlike.__all__, *functionals.__all__, *bounds.__all__, *search.__all__]
