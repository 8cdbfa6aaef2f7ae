"""Hankel and Toeplitz determinants and the named coefficient functionals.

H_n^(k) is the k x k determinant with entry (i, j) = a_{n+i+j-2} (constant
anti-diagonals); T_n^(k) is the symmetric -- not conjugated -- k x k
determinant with entry (i, j) = a_{n+|i-j|}.  Small orders (k <= 3) are
hard-coded cofactor expansions, exact where the entries are (a 1 x 1
determinant is its entry); larger ones go through ``np.linalg.det``.

``named_functional`` evaluates the moduli of the specific combinations of
(a2, a3, a4) studied for the q-starlike family; the raw (signed/complex)
expressions live in ``RAW_FORMULAS`` and operate on scalars or numpy arrays
alike, which the grid search exploits.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import IndexOutOfRange, UnknownId


class FunctionalId(str, Enum):
    """Names of the coefficient and determinant functionals under study."""

    ABS_A2 = "abs_a2"
    ABS_A3 = "abs_a3"
    ABS_A4 = "abs_a4"
    FEKETE_A2A3_A4 = "fekete_a2a3_a4"
    H1_2 = "h1_2"
    H2_2 = "h2_2"
    T1_2 = "t1_2"
    T2_2 = "t2_2"
    T3_2 = "t3_2"
    T1_3 = "t1_3"
    T2_3 = "t2_3"

    def __str__(self):
        return self.value


#: id -> closed form in (a2, a3, a4), before taking the modulus.
RAW_FORMULAS = {
    FunctionalId.ABS_A2: lambda a2, a3, a4: a2,
    FunctionalId.ABS_A3: lambda a2, a3, a4: a3,
    FunctionalId.ABS_A4: lambda a2, a3, a4: a4,
    FunctionalId.FEKETE_A2A3_A4: lambda a2, a3, a4: a2 * a3 - a4,
    FunctionalId.H1_2: lambda a2, a3, a4: a3 - a2 * a2,
    FunctionalId.H2_2: lambda a2, a3, a4: a2 * a4 - a3 * a3,
    FunctionalId.T1_2: lambda a2, a3, a4: 1.0 - a2 * a2,
    FunctionalId.T2_2: lambda a2, a3, a4: a2 * a2 - a3 * a3,
    FunctionalId.T3_2: lambda a2, a3, a4: a3 * a3 - a4 * a4,
    FunctionalId.T1_3: lambda a2, a3, a4: 1.0
    - 2.0 * a2 * a2
    + 2.0 * a2 * a2 * a3
    - a3 * a3,
    FunctionalId.T2_3: lambda a2, a3, a4: (a2 - a4)
    * (a2 * a2 - 2.0 * a3 * a3 + a2 * a4),
}

#: ids whose formula actually reads a4; the search ignores y for the others
#: and takes them on |x| = 1 only
A4_DEPENDENT = {
    FunctionalId.ABS_A4,
    FunctionalId.FEKETE_A2A3_A4,
    FunctionalId.H2_2,
    FunctionalId.T3_2,
    FunctionalId.T2_3,
}

#: the A4_DEPENDENT ids whose formula is affine in a4; the other two are
#: quadratic in a4
A4_AFFINE = {
    FunctionalId.ABS_A4,
    FunctionalId.FEKETE_A2A3_A4,
    FunctionalId.H2_2,
}


def named_functional(fid, a2, a3, a4) -> float:
    """|expression| for the given functional id at (a2, a3, a4)."""
    fid = as_functional_id(fid)
    return float(abs(RAW_FORMULAS[fid](complex(a2), complex(a3), complex(a4))))


def as_functional_id(fid) -> FunctionalId:
    if isinstance(fid, FunctionalId):
        return fid
    try:
        return FunctionalId(str(fid))
    except ValueError as exc:
        raise UnknownId(f"unknown functional {fid!r}") from exc


def _coeff_matrix(a, n: int, k: int, offsets) -> np.ndarray:
    """The k x k complex matrix with entry (i, j) = a_{n + offsets[i, j]} of
    the sequence a = (a1, a2, ...); IndexOutOfRange names the first label,
    row by row, that the sequence does not hold."""
    if n < 1 or k < 1:
        raise IndexOutOfRange(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    labels = n + offsets
    missing = labels[labels > len(a)]
    if missing.size:
        raise IndexOutOfRange(
            f"coefficient a_{missing[0]} requested; sequence holds a_1..a_{len(a)}"
        )
    return np.asarray(a, dtype=complex)[labels - 1]


def hankel_matrix(a, n: int, k: int) -> np.ndarray:
    """k x k matrix with entry (i, j) = a_{n+i+j-2} (1-based i, j)."""
    i = np.arange(k)
    return _coeff_matrix(a, n, k, i[:, None] + i)


def toeplitz_matrix(a, n: int, k: int) -> np.ndarray:
    """Symmetric k x k matrix with entry (i, j) = a_{n+|i-j|}."""
    i = np.arange(k)
    return _coeff_matrix(a, n, k, abs(i[:, None] - i))


def _det(m: np.ndarray) -> complex:
    k = m.shape[0]
    if k == 1:
        return complex(m[0, 0])
    if k == 2:
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if k == 3:
        return complex(
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    return complex(np.linalg.det(m))


def hankel_det(a, n: int, k: int) -> complex:
    """H_n^(k) of the coefficient sequence a = (a1, a2, ...)."""
    return _det(hankel_matrix(a, n, k))


def toeplitz_det(a, n: int, k: int) -> complex:
    """T_n^(k) of the coefficient sequence a = (a1, a2, ...)."""
    return _det(toeplitz_matrix(a, n, k))


__all__ = [
    "FunctionalId",
    "RAW_FORMULAS",
    "A4_DEPENDENT",
    "A4_AFFINE",
    "named_functional",
    "as_functional_id",
    "hankel_matrix",
    "toeplitz_matrix",
    "hankel_det",
    "toeplitz_det",
]
