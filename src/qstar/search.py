"""Brute-force sharpness verification of the coefficient bounds.

Two engines live here.

``maximize_functional`` searches the parameter family of the first three
Schwarz coefficients -- real b1 in [0, 1] and disk parameters x, y -- by
mapping each triple through :func:`qstar.schwarz.schwarz_b2b3` and the
coefficient recursion (:func:`qstar.starlike.recursion_coeffs`, the one map
from Schwarz to starlike coefficients) to (a2, a3, a4) and evaluating the
chosen functional.  It grids b1 alone and refines that grid around the
incumbent, as many times as its :class:`GridSpec` preset's ``levels``.
b3, hence a4, is affine in y, and at real q every functional is a
polynomial in x and y with real coefficients that depend on b1 only.  The
search covers b1 in [0, 1], or the a2 = 0 slice b1 = 0 when its
:class:`SearchSpec` says ``a2_zero``.  It removes what the maths removes
exactly, x and y included, on every functional that is not quadratic in a4
on the searched range (all but t3_2, and t2_3 off the a2 = 0 slice, where
t2_3 = 2 a3^2 a4; ``verify`` checks those on the rotated extremal instead).

The functional is A + B y with A = P(x) = p0 + p1 x + p2 x^2 and
B = Q (1 - |x|^2), |Q| constant on each circle |x| = r.  One evaluator,
:func:`_affine_parts`, gives A and B, off y = 0 and y = 1, and every value
the search reads comes from it.  The maximum over |y| <= 1 is
|A| + |B| = |P| + |Q| (1 - r^2) exactly (the triangle-inequality step of
the paper's proofs).  |x| leaves through the disk maximum of Choi, Kim and
Sugawa (J. Math. Soc. Japan 59 (2007)): with |Q| free of x, as for abs_a4,
fekete and h2_2, the maximum over |x| <= 1 lies on one of two circles whose
radii p0, p1, p2 and |Q| give, or on |x| = 1; for t2_3 on the a2 = 0 slice,
P = 0 and |Q| (1 - r^2) is c r^2 (1 - r^2), largest at r^2 = 1/2.  So each
b1 takes four radii (:func:`_x_step`), from p0, p1, p2, read off A at
x = 0, 1, -1, and |Q| = |B| at x = 0, all from one evaluation
(:func:`_read_off`).  A functional that does not read a4 (the grid items
abs_a2, abs_a3, h1_2) never sees y: its B is None, its map stops at a3, and
it is P(x) alone, a polynomial in x at fixed b1; by the maximum modulus
principle its maximum over |x| <= 1 lies on |x| = 1, the one circle the
search takes for it.
|P|^2 is a quadratic in cos(arg x) on each circle, so its maximum over
arg x lies at arg x = 0, pi, or the vertex
(:func:`qstar.bounds._peak_cos`, the vertex formula that
``disk_quadratic_max_grid`` uses too).  Only those three angles are
evaluated; the vertex only decides where to look.  Every candidate is
evaluated through the recursion, so the radii only decide where to look too.

Every evaluated point, and every reported witness, is a genuine class
member, so a search value above the catalog bound (a negative gap) falsifies
either the bound or this implementation.

``random_schwarz_suite`` attacks the complex-parameter inequalities instead:
it draws seeded Schur-parameter tuples, builds members through the same
recursion, and checks the Parseval chain inequality, the derived |a_n| bound,
and the product bound on every sample.  It works on batches of samples as
numpy arrays with one row per sample: the Schur chains
(:func:`qstar.schwarz.schur_rows`), the recursion and the inequality sides
run over all rows of a batch at once, in double precision.  The sample each
check reports is then decided in exact arithmetic: the binary fractions of
:mod:`qstar.exact` and its division-free recursion (:func:`_exact_sides`).

Both engines, and the rotated-extremal items of ``sharpness_report``, judge
a gap (bound minus value reached) by one rule, :func:`_verdict`: both of its
tolerances are relative to max(1, |bound|), since the catalog bounds grow
like q^-7 and the suite's sides reach 1e13 and more at small |zeta|.

Determinism contract: grid cells and random samples are independent work
items.  Grid reductions break ties lexicographically on
(b1, |x|, arg x, |y|, arg y) (the first flat C-order maximum on ascending
axes).  The |x| axis of each b1 is its candidate radii in ascending order,
the arg x axis of each (b1, |x|) circle is its three candidates in
ascending order, 0 <= arccos(vertex) <= pi, and the witness (|y|, arg y) of
|A| + |B| is radius 1 and arg y = arg A - arg B, or y = 0 when B == 0 -- a
function of (b1, x); a functional that ignores y reports y = 0.

Every sample draws from its own counter-based Philox4x64-10 stream, keyed by
the seed at counter 1024 * (sample index).  The generator is this module's
own (:func:`_philox_doubles`, numpy on uint64 words): its key words are
(seed mod 2^64, seed >> 64), and block k = 1, 2, ... of sample i is the
cipher of the 128-bit counter 1024 i + k, four 64-bit words, so the blocks
of a whole batch come from one pass with no generator state.  Since
``numpy.random.Philox`` also steps its counter before each block, this is
its stream at counter 1024 i, bit for bit.  A sample reads its stream as one
block: the uniforms in [-1, 1) that ``Generator.uniform`` makes of
consecutive doubles, paired into points u + iv, of which the first
``SUITE_DEPTH`` inside the closed unit disk are the sample's tuple -- the
same points as drawing pair by pair and rejecting those outside, bit for
bit.  Each check keeps its worst sample as a left fold over samples in index
order (lowest gap on the verdict's scale, the first on a tie, the first NaN
gap over any number), and a batch enters the fold with the incumbent as its
first row.  So any split into batches, or any parallel schedule of them, and
any rerun reproduces the serial report bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__ as _pkg_version
from .bounds import (
    CASE_SPLIT_IDS,
    BoundQuery,
    CaseFlag,
    an_product,
    bound_value,
    parseval_rhs,
    parseval_weights,
    product_bound_applies,
    _peak_cos,
)
from .errors import DegenerateDivisor, OutOfRange, integer, real
from .exact import Dyadic, recursion
from .functionals import (
    A4_AFFINE,
    A4_DEPENDENT,
    RAW_FORMULAS,
    FunctionalId,
    as_functional_id,
    named_functional,
)
from .schwarz import schur_rows, schwarz_b2b3
from .series import ClassParams
from .starlike import recursion_coeffs

#: a gap below this times max(1, |bound|) is a VIOLATION
VIOLATION_TOL = -1e-9

#: a gap at or below this times max(1, |bound|) counts as attained
ATTAIN_TOL = 1e-2

#: smallest q the sharpness search accepts: H2(2) = a2 a4 - a3^2 cancels
#: terms of size 16/q^4 to a bound near 8/q^2, so its double-precision value
#: carries a relative error of about 2 eps / q^2 (4e-12 here, 4e-8 at
#: q = 1e-4, where the search reported rounding noise as a VIOLATION)
Q_MIN = 0.01

#: toeplitz-family ids verified through the rotated extremal, not the grid
#: (the a2 = 0 slice of the case-split t2_3 is grid searched)
ROTATED_IDS = (
    FunctionalId.T1_2,
    FunctionalId.T2_2,
    FunctionalId.T3_2,
    FunctionalId.T1_3,
    FunctionalId.T2_3,
)

#: hankel-family ids verified by grid search
GRID_IDS = (
    FunctionalId.ABS_A2,
    FunctionalId.ABS_A3,
    FunctionalId.ABS_A4,
    FunctionalId.FEKETE_A2A3_A4,
    FunctionalId.H1_2,
    FunctionalId.H2_2,
)


@dataclass(frozen=True)
class GridSpec:
    """The b1 grid of the search, and the number of refinement ``levels``
    after the first grid.

    The level-0 b1 grid spans its range with both endpoints on the lattice,
    so it needs at least 2 points.  Neither x nor y is gridded: the search
    takes x at four candidate radii (one, |x| = 1, for a functional that
    does not read a4), each at three candidate angles, and eliminates y
    exactly, so a level evaluates at most 12 ``b1_points`` points.  The
    ``--grid`` presets are :data:`GRIDS`.  A size that is not an integer, or
    is below its minimum, raises OutOfRange.
    """

    b1_points: int = 51
    levels: int = 3

    def __post_init__(self):
        minimum = {"b1_points": 2, "levels": 0}
        for name, least in minimum.items():
            object.__setattr__(self, name, integer(name, getattr(self, name), least))


#: the ``--grid`` presets, in the order ``--help`` lists them
GRIDS = {"coarse": GridSpec(26, 2), "default": GridSpec(), "fine": GridSpec(101, 3)}


@dataclass(frozen=True)
class SearchSpec:
    """One maximization task: functional, class parameter, grid, and whether
    the search keeps to the a2 = 0 slice b1 = 0.

    ``a2_zero`` selects the a2_zero case of a case-split bound, and its
    default False the a2_nonzero case on b1 in [0, 1].  ``q`` is stored as a
    float; a q that is not a real number, an ``a2_zero`` that is not a bool,
    or a grid that is not a :class:`GridSpec` raises OutOfRange.
    """

    functional: FunctionalId
    q: float
    grid: GridSpec = field(default_factory=GridSpec)
    a2_zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "functional", as_functional_id(self.functional))
        if not isinstance(self.grid, GridSpec):
            raise OutOfRange(f"grid = {self.grid!r} is not a GridSpec")
        if not isinstance(self.a2_zero, bool):
            raise OutOfRange(f"a2_zero = {self.a2_zero!r} is not a bool")
        object.__setattr__(self, "q", real("q", self.q))
        if not Q_MIN <= self.q < 1.0:
            raise OutOfRange(f"q = {self.q} outside [{Q_MIN}, 1)")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a grid maximization."""

    max_value: float
    argmax: tuple  # (b1, x, y) with complex x, y
    bound: float
    gap: float  # bound - max_value; >= VIOLATION_TOL * max(1, |bound|) on a sound run
    evaluations: int  # (b1, |x|, arg x) points evaluated; not the (p, |Q|) reads


@dataclass(frozen=True)
class ReportItem:
    """One verified inequality: its bound, the value reached, the verdict."""

    name: str
    zeta: complex
    alpha: float
    case: str | None
    bound: float | None
    achieved: float | None
    gap: float | None
    verdict: str  # attained | consistent | VIOLATION | skipped
    witness: str = ""


@dataclass(frozen=True)
class VerificationReport:
    items: tuple
    seed: int
    tool_version: str = _pkg_version

    @property
    def has_violation(self) -> bool:
        return any(item.verdict == "VIOLATION" for item in self.items)

    def to_json_dict(self) -> dict:
        return {
            "items": [{**vars(it), "zeta": [it.zeta.real, it.zeta.imag]} for it in self.items],
            "seed": self.seed,
            "tool_version": self.tool_version,
        }


def _verdict(gap: float, bound: float) -> str:
    """The one verdict rule: both tolerances scale with max(1, |bound|)."""
    if not (math.isfinite(gap) and math.isfinite(bound)):  # no sound run gives these
        return "VIOLATION"
    scale = max(abs(bound), 1.0)
    if gap < VIOLATION_TOL * scale:
        return "VIOLATION"
    if gap <= ATTAIN_TOL * scale:
        return "attained"
    return "consistent"


def _checked_item(name, zeta, alpha, case, bound, achieved, gap, witness) -> ReportItem:
    """A report item judged by :func:`_verdict` on its gap and bound."""
    return ReportItem(name, zeta, alpha, case, bound, achieved, gap,
                      _verdict(gap, bound), witness)


# ----------------------------------------------------------------------
# grid maximization


#: y = 0 and y = 1, where a functional affine in a4 shows A and A + B
_Y_ENDS = np.array([0.0, 1.0])


def _affine_parts(fid, params, b1, x):
    """(A, B) with the functional A + B y at every (b1, x) of the broadcast
    arrays, for the class ``params``: the one evaluator of the grid.

    ``b1`` and ``x`` end in an axis of length 1, the y axis, and so do A and
    B.  A functional that reads a4 is evaluated at y = 0 and y = 1, where
    it shows A and A + B.  For one that does not, B is None: the recursion
    stops at a3, neither b3 nor a4 is formed, and the functional gets
    a4 = None.
    """
    if fid not in A4_DEPENDENT:
        b2, _ = schwarz_b2b3(b1, x)
        return RAW_FORMULAS[fid](*recursion_coeffs((0.0, b1, b2), params, 3)[2:], None), None
    b2, b3 = schwarz_b2b3(b1, x, _Y_ENDS)
    v = RAW_FORMULAS[fid](*recursion_coeffs((0.0, b1, b2, b3), params, 4)[2:])
    return v[..., :1], v[..., 1:] - v[..., :1]


def _affine_witness(a, b) -> tuple:
    """(|y|, arg y) of a y attaining max |a + b y| = |a| + |b| on |y| <= 1."""
    if b == 0:
        return 0.0, 0.0
    return 1.0, cmath.phase(a) - cmath.phase(b)


def _y_max(fid, params, b1, x):
    """|functional| maximized over |y| <= 1 at each (b1, x) pair: |A| + |B|
    of :func:`_affine_parts` (the triangle-inequality step), or |A| where B
    is None.

    ``b1`` and ``x`` broadcast to (nb, rx, ax, 1), and so do the values.
    Returns ``(vals, witness)``; ``witness(index)`` is the (|y|, arg y)
    behind vals[index], y = 0 where B is None.
    """
    a, b = _affine_parts(fid, params, b1, x)
    if b is None:
        return np.abs(a), lambda i: (0.0, 0.0)
    return np.abs(a) + np.abs(b), lambda i: _affine_witness(a[i], b[i])


#: x = 0, 1 and -1, where the search reads P(x) = p0 + p1 x + p2 x^2
_X_ENDS = np.array([[0.0], [1.0], [-1.0]])


def _read_off(fid, params, b1s):
    """(p0, p1, p2, |Q|) at each b1 of the 1-D array ``b1s``, arrays of its
    shape, from one :func:`_affine_parts` evaluation at x = 0, 1, -1: P's
    coefficients, read off A = P(x) there, and |Q| = |B| at x = 0, None
    where B is."""
    a, b = _affine_parts(fid, params, b1s[:, None, None], _X_ENDS)
    p0, p_plus, p_minus = np.broadcast_to(a, (len(b1s), 3, 1))[:, :, 0].real.T  # abs_a2 ignores x
    absq = None if b is None else np.abs(b[:, 0, 0])
    return p0, (p_plus - p_minus) / 2.0, (p_plus + p_minus) / 2.0 - p0, absq


def _circle_args(p0, p1, p2, radii):
    """The circle step's candidate arg x (see the module docstring) on each
    circle of ``radii``, shape (rows, R): 0, the vertex angle of |P| and pi,
    ascending, shape (rows, R, 3), for P = p0 + p1 x + p2 x^2 with real
    coefficients of shape (rows,)."""
    t = _peak_cos(p0[:, None], p1[:, None], p2[:, None], radii)
    ends = np.zeros_like(t)
    return np.stack([ends, np.arccos(t), ends + math.pi], axis=-1)


def _x_step(p0, p1, p2, absq):
    """The search's candidate x on each row: ``(radii, args)``, of shapes
    (rows, R) and (rows, R, 3), x = radii e^(i args).

    On a row, the item is |P(x)| + |Q| (1 - |x|^2), P = p0 + p1 x + p2 x^2
    with real coefficients and |Q| free of x (all of shape (rows,)).  In each
    branch of the disk maximum of Choi, Kim and Sugawa, its maximum over
    |x| <= 1 lies at x = +-r1 or x = +-r2,

        r1 = |p1| / (2 (|Q| - |p2|)),  r2 = |p1| / (2 (|Q| + |p2|)),

    or on |x| = 1.  Where P = 0 and the y term is c x^2 (1 - |x|^2) y
    instead (t2_3 on the a2 = 0 slice), c r^2 (1 - r^2) peaks at
    r^2 = 1/2.  So the radii are min(r1, 1), min(r2, 1), 2^-1/2 and 1,
    ascending, and the circle step is exact on each; a radius whose
    denominator is not positive is 0.  Without |Q| (a functional that does
    not read a4, a polynomial in x) the maximum modulus principle puts the
    maximum on |x| = 1, the one radius.
    """
    if absq is None:
        radii = np.ones((len(p0), 1))
    else:
        d = np.stack([absq - np.abs(p2), absq + np.abs(p2)], axis=1)
        with np.errstate(over="ignore"):  # a radius past 1 is 1
            r = np.divide(np.abs(p1)[:, None] / 2.0, d, out=np.zeros_like(d), where=d > 0.0)
        fixed = np.broadcast_to([math.sqrt(0.5), 1.0], d.shape)
        radii = np.sort(np.hstack([np.minimum(r, 1.0), fixed]), axis=1)
    return radii, _circle_args(p0, p1, p2, radii)


def maximize_functional(spec: SearchSpec) -> SearchResult:
    """Maximize |functional| over the (b1, x, y) family, with refinement.

    The search grids b1 alone: at each b1 it takes x at its candidate radii
    (:func:`_x_step`), each at its three candidate angles, and eliminates y
    exactly (|A| + |B|), as the module docstring states.  Each of the grid's
    ``levels`` of refinement shrinks the b1 range by a factor of 5 around
    the incumbent, clamped to [0, 1], and re-grids at the same resolution;
    the a2 = 0 slice b1 = 0 takes one level, as nothing is left to refine.
    Ties break toward the lexicographically smallest
    (b1, |x|, arg x, |y|, arg y).

    A functional quadratic in a4 on the searched range (t3_2, and t2_3 off
    the a2 = 0 slice) has no exact y step and raises OutOfRange.
    """
    fid, g, params = spec.functional, spec.grid, ClassParams(spec.q)
    case = _case_for(spec)
    # quadratic in a4, but t2_3 = 2 a3^2 a4 is affine in it where a2 = 0
    if fid in A4_DEPENDENT - A4_AFFINE and case is not CaseFlag.A2_ZERO:
        where = "" if spec.a2_zero else " off the a2 = 0 slice"
        raise OutOfRange(f"{fid.value} is quadratic in a4{where}, where the search has no "
                         "exact y step; verify checks it on the rotated extremal")

    # the a2 = 0 slice is the one point b1 = 0, with nothing to refine
    levels, points = (0, 1) if spec.a2_zero else (g.levels, g.b1_points)
    window = (0.0, 0.0 if spec.a2_zero else 1.0)
    best_val = -1.0
    best_key = None  # (b1, rx, ax, ry, ay)
    evaluations = 0

    for _level in range(levels + 1):
        b1s = np.linspace(*window, points)
        radii, args = _x_step(*_read_off(fid, params, b1s))
        x = (radii[..., None] * np.exp(1j * args))[..., None]
        vals, witness = _y_max(fid, params, b1s[:, None, None, None], x)
        vals = np.broadcast_to(vals, x.shape)
        evaluations += vals.size
        flat = int(np.argmax(vals))
        v = float(vals.flat[flat])
        idx = np.unravel_index(flat, x.shape)
        key = (float(b1s[idx[0]]), float(radii[idx[:2]]), float(args[idx[:3]])) + witness(idx)
        if v > best_val or (v == best_val and key < best_key):
            best_val = v
            best_key = key
        # a window a fifth as wide around the incumbent, inside [0, 1]
        width = (window[1] - window[0]) / 5.0
        window = max(0.0, best_key[0] - width / 2.0), min(1.0, best_key[0] + width / 2.0)

    bound = bound_value(BoundQuery(fid, params, case_flag=case))
    b1c, rxc, axc, ryc, ayc = best_key
    argmax = (
        b1c,
        complex(rxc * math.cos(axc), rxc * math.sin(axc)),
        complex(ryc * math.cos(ayc), ryc * math.sin(ayc)),
    )
    return SearchResult(
        max_value=best_val,
        argmax=argmax,
        bound=bound,
        gap=bound - best_val,
        evaluations=evaluations,
    )


def _case_for(spec: SearchSpec) -> CaseFlag | None:
    if spec.functional not in CASE_SPLIT_IDS:
        return None
    return CaseFlag.A2_ZERO if spec.a2_zero else CaseFlag.A2_NONZERO


# ----------------------------------------------------------------------
# rotated-extremal attainment (toeplitz family)


def rotated_extremal_values(q: float) -> tuple:
    """(a2, a3, a4) of the rotated extremal: the member generated by the
    Schwarz function w(z) = e^(i theta) z at theta = pi/2, whose coefficients
    are the extremal's a_n times e^(i (n-1) theta).

    With the positive extremal coefficients the rotation sends (a2, a3, a4)
    to (i a2, -a3, -i a4), which aligns the two terms of each two-by-two
    Toeplitz determinant:

        |1 - (i a2)^2|        = 1 + a2^2
        |(i a2)^2 - (-a3)^2|  = a2^2 + a3^2
        |(-a3)^2 - (-i a4)^2| = a3^2 + a4^2

    and turns the 3x3 expansion into 1 + 2 a2^2 + a3 (2 a2^2 - a3).  These
    are exactly the catalog bounds, so the rotated extremal is the
    attainment witness for the whole family (the unrotated one is not:
    |1 - a2^2| < 1 + a2^2 for real a2).
    """
    # rect, not 1j: the reported Toeplitz values depend on its real part, 6e-17
    a = recursion_coeffs((0.0, cmath.rect(1.0, math.pi / 2.0), 0.0, 0.0), ClassParams(q), 4)
    return tuple(complex(v) for v in a[2:])


# ----------------------------------------------------------------------
# randomized complex-parameter suite


#: samples per batch of the random suite; bounds the size of its arrays (a
#: few MB), so the suite's memory does not grow with its sample count, while
#: one batch holds a call of up to 2046 samples and pays the per-batch numpy
#: overhead once
_CHUNK_SAMPLES = 1 << 11

#: the random suite's highest order (its lowest is 2): beyond it the
#: coefficients of small |zeta| overflow double precision and read as
#: violations
SUITE_MAX_ORDER = 8

#: Schur parameters drawn per random sample
SUITE_DEPTH = 5

#: the suite's checks, in report order; product is skipped without its hypothesis
_CHECKS = ("chain", "parseval", "product")

#: the largest 64-bit word, and the mask of one
_WORD = (1 << 64) - 1

#: Philox4x64-10's round multipliers
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))

#: the Weyl increments of its two key words, which stay Python ints between
#: rounds and wrap by masking
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

_LOW32, _BITS32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a, m):
    """(high, low) 64-bit words of the 128-bit products of the uint64 array
    ``a`` with the uint64 ``m``, from products of 32-bit halves."""
    a0, a1, m0, m1 = a & _LOW32, a >> _BITS32, m & _LOW32, m >> _BITS32
    t = a1 * m0 + ((a0 * m0) >> _BITS32)
    u = a0 * m1 + (t & _LOW32)
    return a1 * m1 + (t >> _BITS32) + (u >> _BITS32), a * m


def _philox_doubles(seed: int, index, n: int) -> np.ndarray:
    """The first ``n`` doubles of the Philox4x64-10 stream keyed by ``seed``
    at counter 1024 i, for each i of the uint64 array ``index``, shape
    (len(index), n): bit for bit what ``Generator.random`` makes of
    ``numpy.random.Philox(key=seed, counter=1024 i)``.  Block k of sample i
    is the cipher of the counter 1024 i + k, k = 1, 2, ..., carried into
    the counter's second word; it holds four words, each the double
    (word >> 11) 2^-53.
    """
    blocks = -(-n // 4)
    low = (index << np.uint64(10))[:, None]
    c0 = low + np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = (index >> np.uint64(54))[:, None] + (c0 < low)
    c2 = c3 = np.zeros_like(c0)
    k0, k1 = seed & _WORD, seed >> 64
    for _ in range(10):
        h0, l0 = _mulhilo(c0, _PHILOX_M[0])
        h1, l1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = h1 ^ c1 ^ np.uint64(k0), l1, h0 ^ c3 ^ np.uint64(k1), l0
        k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
    words = np.stack([c0, c1, c2, c3], axis=2).reshape(len(index), 4 * blocks)
    return (words[:, :n] >> np.uint64(11)) * 2.0**-53


def _sample_gammas(seed: int, indices, depth: int) -> np.ndarray:
    """The Schur tuples of the given sample indices, shape (len(indices), depth).

    Sample i reads the Philox stream keyed by ``seed`` at counter 1024 i
    (:func:`_philox_doubles`) as uniforms in [-1, 1), pairs them into u + iv
    and keeps its first ``depth`` points with u^2 + v^2 <= 1.  All samples
    draw a block of 2 (depth + 3) uniforms at once, which usually holds
    them; the samples that run short draw blocks of twice as many pairs from
    the start of their streams, and so on until each is filled.  An index
    that is not an integer in [0, 2^64) raises OutOfRange.
    """
    index = np.asarray(indices)
    if index.dtype.kind not in "iu":  # Python ints, some past 2^63, or no integers
        index = np.array([integer("sample index", i) for i in indices], dtype=object)
    if index.size and (index.min() < 0 or index.max() > _WORD):
        raise OutOfRange("sample index outside [0, 2**64)")
    index = index.astype(np.uint64)
    gammas = np.empty((len(index), depth), dtype=complex)
    todo = np.arange(len(index))
    pairs = depth + 3
    while todo.size:
        # -1 + 2 d is what Generator.uniform(-1, 1) makes of the same doubles
        z = (-1.0 + 2.0 * _philox_doubles(seed, index[todo], 2 * pairs)).view(complex)
        inside = z.real * z.real + z.imag * z.imag <= 1.0
        full = inside.sum(axis=1) >= depth
        first = np.argsort(~inside[full], axis=1, kind="stable")[:, :depth]
        gammas[todo[full]] = np.take_along_axis(z[full], first, axis=1)
        todo, pairs = todo[~full], 2 * pairs
    return gammas


def _suite_keys(b, params, order, weights, prod):
    """The ranking key of every check on rows of Schwarz coefficients ``b``,
    shape (rows, checks, order - 1) over n = 2..order: the gap (bound side
    minus other side) on the verdict's scale, gap / max(1, |bound side|),
    NaN where the gap is.  ``weights`` is the pair (d, c) of
    :func:`qstar.bounds.parseval_weights` at ``order``; the product check is
    present when ``prod`` (its bounds) is.
    """
    a = recursion_coeffs(b.T, params, order)
    abs_a = np.abs(np.stack(np.broadcast_arrays(*a[1:]), axis=1))  # |a_1| .. |a_order|
    d, c = weights
    t = abs_a**2
    lhs = np.cumsum(c * t, axis=1)[:, 1:]  # sum_{k<=n} c_k |a_k|^2
    rhs = np.cumsum(d * t, axis=1)[:, :-1]  # sum_{k<=n-1} d_k |a_k|^2
    an = abs_a[:, 1:]
    sides = [(rhs, lhs), (parseval_rhs(params, abs_a[:, :-1]), an)]  # (bound, other)
    if prod is not None:
        sides.append((prod, an))
    return np.stack([(s - o) / np.fmax(np.abs(s), 1.0) for s, o in sides], axis=1)


def _exact_sides(b, params, order, prod):
    """(gap, bound side, other side) of every check on one row ``b`` of
    Schwarz coefficients, each of shape (checks, order - 1) over the checks
    and n of :func:`_suite_keys`, with each gap's sign decided exactly.

    The member is rebuilt from the double zeta, alpha and b_1 .. b_(order-1)
    taken as exact binary fractions (:class:`qstar.exact.Dyadic`):
    :func:`qstar.exact.recursion` gives A_n = a_n D_2 ... D_n, the weights
    and the divisors, each an integer times a power of two.  Each check
    compares non-negative sides, so it compares their squares exactly: for
    chain, the two sums; for parseval, c_n |a_n|^2 with the partial sum
    under the root; for product, |a_n|^2 with the square of the double
    bound ``prod``, as :func:`qstar.bounds.an_product` gives it.  A gap is
    that exact difference, rounded once, divided by the sum of the rounded
    sides for parseval and product.  The sides stay far inside the double
    range: the order is at most SUITE_MAX_ORDER and every divisor is above
    DEGENERATE_TOL.
    """
    a, w, d = recursion([Dyadic.of(v) for v in b[:order]], Dyadic.of(params.zeta),
                        Dyadic(1) - 2 * Dyadic.of(params.alpha), order)
    # at n, scale = Q_n = c_2 ... c_n, x = Q_n sum_{k<=n} c_k |a_k|^2, and
    # before its update g = Q_(n-1) sum_{k<n} d_k |a_k|^2
    scale, x, g = Dyadic(1), Dyadic(0), w[0].norm()
    rows = []  # (gap, bound side, other side) of each check, at each n
    for n in range(2, order + 1):
        c, t = d[n - 1].norm(), a[n].norm()  # c_n and Q_n |a_n|^2
        scale = scale * c
        rhs = g * c  # Q_n sum_{k<n} d_k |a_k|^2
        root = g - x  # Q_(n-1) sum_{k<n} (d_k - c_k) |a_k|^2
        x = (x + t) * c
        margin = rhs - x
        an = math.sqrt(t.ratio(scale))
        prhs = math.sqrt(root.ratio(scale))
        rows.append([(margin.ratio(scale), rhs.ratio(scale), x.ratio(scale)),
                     (margin.ratio(scale * c) / (prhs + an) if margin.re else 0.0, prhs, an)])
        if prod is not None:
            p = prod[n - 2]
            e = Dyadic.of(p).norm() * scale - t  # Q_n (p^2 - |a_n|^2)
            rows[-1].append((e.ratio(scale) / (p + an) if e.re else 0.0, p, an))
        g = rhs + w[n - 1].norm() * t
    return tuple(np.array(rows).transpose(2, 1, 0))


def check_suite_inputs(count: int, seed: int, order: int) -> tuple:
    """(count, seed, order) as ints, or OutOfRange unless
    :func:`random_schwarz_suite` takes them; a value that is not an integer
    (a bool included) is rejected, since the seed keys the sample streams
    and is written to the report."""
    count = integer("count", count, 0)
    seed = integer("seed", seed)
    order = integer("order", order)
    if not 0 <= seed < 1 << 128:
        raise OutOfRange(f"seed = {seed} outside [0, 2**128)")
    if not 2 <= order <= SUITE_MAX_ORDER:
        raise OutOfRange(f"order = {order} outside 2..{SUITE_MAX_ORDER}")
    return count, seed, order


def random_schwarz_suite(
    params: ClassParams,
    seed: int = 0,
    count: int = 10000,
    order: int = 8,
) -> VerificationReport:
    """Check the complex-parameter coefficient inequalities on random members.

    Draws ``count`` Schur tuples of length SUITE_DEPTH (after the forced
    samples w = 0 and w = z), builds each member through the coefficient
    recursion, and tests for every 2 <= n <= order, where order lies in
    2..SUITE_MAX_ORDER:

      chain[n]     sum_{k<=n} |[k]-1|^2 |a_k|^2
                     <= sum_{k<=n-1} |(1-2a)+[k]|^2 |a_k|^2
      parseval[n]  |a_n| <= parseval_rhs
      product[n]   |a_n| <= an_product(params, order)[n - 2]  (skipped unless
                   Re [k] > alpha holds up to order)

    ``parseval[n]`` is ``chain[n]`` solved for |a_n| (its |[n]-1|^2 > 0), so
    the two rows always share a sign: one inequality on two scales, not two
    pieces of evidence.

    Samples go through in batches of at most ``_CHUNK_SAMPLES`` rows.  Each
    check reports the sample whose gap (bound side, the right-hand side
    above, minus the other side) is lowest on the scale max(1, |bound side|)
    of :func:`_verdict`, with its gap unscaled; the first such sample on a
    tie, and the first NaN gap over any number.  At small |zeta| the sides
    reach 1e13 and more, where rounding alone exceeds any absolute slack.
    The samples are ranked in double precision, on every platform.  Near
    equality (the forced w = z sample attains all three families) a double
    gap is rounding alone, and the Parseval bound, the square root of a sum
    that cancels down to c_n |a_n|^2, is off by up to about
    sqrt(eps S / c_n), S the size of the sum's terms (1e-8 at alpha near 1
    and zeta near the negative real axis).  So the double pass computes only
    what the ranking reads, each check's key (:func:`_suite_keys`, the gap
    on the verdict's scale), and every reported number (gap, bound and
    achieved) comes from the reported row re-derived in exact arithmetic
    (:func:`_exact_sides`): its gap has the exact sign of bound side minus
    other side, for the class of the double zeta and alpha and the row's
    double Schwarz coefficients.  The class's Parseval weights and product
    bounds are built once per call.

    A degenerate [n] - 1 divisor marks the sample (here: every sample, since
    degeneracy depends only on zeta) as skipped.  A non-finite gap is a
    VIOLATION.
    """
    count, seed, order = check_suite_inputs(count, seed, order)
    zeta, alpha = params.zeta, params.alpha
    try:
        weights = parseval_weights(params, order)
        live = _CHECKS if product_bound_applies(params, order) else _CHECKS[:2]
    except DegenerateDivisor:
        live = ()
    prod = an_product(params, order) if "product" in live else None

    worst = None  # [key, row] of each (check, n)
    kept = {}  # the Schwarz coefficients of each row in worst
    for start in range(0, count + 2 if live else 0, _CHUNK_SAMPLES):
        # row 0 is w = 0, row 1 is w = z, row r >= 2 draws sample r - 2
        rows = np.arange(start, min(start + _CHUNK_SAMPLES, count + 2))
        gammas = np.zeros((len(rows), SUITE_DEPTH), dtype=complex)
        gammas[rows == 1, 0] = 1.0
        gammas[rows >= 2] = _sample_gammas(seed, rows[rows >= 2] - 2, SUITE_DEPTH)
        b = schur_rows(gammas, order)
        key = _suite_keys(b, params, order, weights, prod)
        batch = [key, np.broadcast_to(rows[:, None, None], key.shape)]
        if worst is not None:  # the incumbent goes first, as the earlier sample
            batch = [np.concatenate([w[None], x]) for w, x in zip(worst, batch)]
        # the first lowest key, or the first NaN, which np.argmin puts below any number
        pick = np.argmin(batch[0], axis=0)[None]
        worst = [np.take_along_axis(x, pick, axis=0)[0] for x in batch]
        kept = {r: kept[r] if r < start else b[r - start] for r in worst[1].ravel().tolist()}
    # every reported number comes from the exact sides of its row
    exact = {r: _exact_sides(br, params, order, prod) for r, br in kept.items()}

    labels = ("forced_zero", "forced_z")
    items = []
    for n in range(2, order + 1):
        for check in _CHECKS:
            name = f"{check}[n={n}]"
            if check not in live:
                items.append(
                    ReportItem(name, zeta, alpha, None, None, None, None, "skipped")
                )
                continue
            at = live.index(check), n - 2
            row = worst[1][at]
            gap, bnd, ach = (x[at] for x in exact[row])
            witness = labels[row] if row < 2 else f"sample{row - 2}"
            items.append(_checked_item(name, zeta, alpha, None, float(bnd), float(ach),
                                       float(gap), witness))
    return VerificationReport(tuple(items), seed)


# ----------------------------------------------------------------------
# aggregated sharpness report


def sharpness_report(
    q_list,
    functionals=None,
    grid: GridSpec | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Verify bound attainment for each (q, functional) pair.

    Hankel-family functionals are grid searched with no rotation; the
    Toeplitz family is evaluated directly on the pi/2-rotated extremal, whose
    coefficient phases are the attainment witness the triangle-inequality
    bounds require (a real-b1 grid cannot reach them).  For h2_2 and t2_3 a
    second item reports the a2 = 0 slice, searched on the b1 = 0 grid.
    Every q must lie in [Q_MIN, 1).
    """
    grid = grid or GridSpec()
    if functionals is None:
        functionals = GRID_IDS + ROTATED_IDS
    functionals = [as_functional_id(f) for f in functionals]
    items = []
    for q in q_list:
        for fid in functionals:
            items.append(_sharpness_item(SearchSpec(fid, q, grid)))
            if fid in CASE_SPLIT_IDS:
                items.append(_sharpness_item(SearchSpec(fid, q, grid, a2_zero=True)))
    return VerificationReport(tuple(items), seed)


def _sharpness_item(spec: SearchSpec) -> ReportItem:
    """The spec's item: the rotated extremal for a Toeplitz id, else the grid."""
    fid, case, a2_zero = spec.functional, _case_for(spec), spec.a2_zero
    if fid in ROTATED_IDS and not a2_zero:
        achieved = named_functional(fid, *rotated_extremal_values(spec.q))
        bound = bound_value(BoundQuery(fid, ClassParams(spec.q), case_flag=case))
        witness = "rotated extremal (theta=pi/2)"
    else:
        res = maximize_functional(spec)
        bound, achieved, witness = res.bound, res.max_value, _argmax_str(res)
    return _checked_item(fid.value + ("[b1=0]" if a2_zero else ""), complex(spec.q), 0.0,
                         case.value if case else None, bound, achieved, bound - achieved,
                         witness)


def _argmax_str(res: SearchResult) -> str:
    b1, x, y = res.argmax
    return f"b1={b1:.6g} x={x:.6g} y={y:.6g}"


__all__ = [
    "GridSpec",
    "GRIDS",
    "SearchSpec",
    "SearchResult",
    "ReportItem",
    "VerificationReport",
    "maximize_functional",
    "rotated_extremal_values",
    "random_schwarz_suite",
    "sharpness_report",
    "VIOLATION_TOL",
    "ATTAIN_TOL",
    "Q_MIN",
    "SUITE_MAX_ORDER",
    "SUITE_DEPTH",
    "check_suite_inputs",
    "ROTATED_IDS",
    "GRID_IDS",
]
