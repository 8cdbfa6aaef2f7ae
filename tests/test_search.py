import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from qstar import (
    BoundQuery,
    CaseFlag,
    ClassParams,
    FunctionalId,
    GridSpec,
    SearchSpec,
    bound_value,
    maximize_functional,
    named_functional,
    random_schwarz_suite,
    rotated_extremal_values,
    schwarz_b2b3,
    sharpness_report,
)
from qstar import search
from qstar.bounds import an_product, parseval_weights, product_bound_applies
from qstar.errors import OutOfRange
from qstar.functionals import RAW_FORMULAS
from qstar.schwarz import schur_rows
from qstar.search import (GRIDS, _circle_args, _read_off, _sample_gammas, _verdict, _worst,
                          _x_step, _y_max)

from _oracles import (circle_max, disk_quadratic_max_cks, exact_parseval_terms,
                      initial_coeffs_closed, lattice_search_max)

COARSE = GRIDS["coarse"]


def coarse_spec(fid, q, **kw):
    return SearchSpec(fid, q, grid=COARSE, **kw)


# ----------------------------------------------------------------- grid search


def test_h2_2_search_attains_bound():
    res = maximize_functional(coarse_spec(FunctionalId.H2_2, 0.5))
    assert res.bound == pytest.approx(640.0 / 63.0, rel=1e-14)
    assert -1e-9 <= res.gap <= 1e-2
    assert res.argmax[0] == 1.0  # maximizer at b1 = 1


def test_h2_2_zero_slice():
    res = maximize_functional(
        coarse_spec(FunctionalId.H2_2, 0.5, a2_zero=True)
    )
    assert res.bound == pytest.approx(64.0 / 9.0, rel=1e-14)
    assert abs(res.max_value - 64.0 / 9.0) <= 1e-6
    assert abs(res.argmax[1]) == pytest.approx(1.0)  # |x| = 1 attains


def test_fekete_search():
    res = maximize_functional(coarse_spec(FunctionalId.FEKETE_A2A3_A4, 0.5))
    assert res.max_value == pytest.approx(80.0 / 7.0, rel=1e-6)
    assert -1e-9 <= res.gap <= 1e-2
    assert res.argmax[0] == 1.0


def test_h1_2_search_attains_along_x_minus_one():
    # equality holds along the whole x = -1 line (any b1); rounding noise
    # decides which point of the line wins, but x = -1 it must be
    res = maximize_functional(coarse_spec(FunctionalId.H1_2, 0.5))
    assert res.max_value == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert res.gap >= -1e-9
    assert res.argmax[1] == pytest.approx(-1.0, abs=1e-9)


def test_abs_a2_search():
    res = maximize_functional(coarse_spec(FunctionalId.ABS_A2, 0.7))
    assert res.max_value == pytest.approx(2.0 / 0.7, rel=1e-12)
    assert res.gap <= 1e-9


def test_search_determinism():
    spec = coarse_spec(FunctionalId.ABS_A4, 0.5)
    r1 = maximize_functional(spec)
    r2 = maximize_functional(spec)
    assert r1 == r2


def test_search_never_violates_bound():
    for fid in (FunctionalId.ABS_A3, FunctionalId.ABS_A4, FunctionalId.H2_2):
        for q in (0.4, 0.8):
            res = maximize_functional(coarse_spec(fid, q))
            assert res.gap >= -1e-9


# ----------------------------------------------------------------- y elimination

A4_IDS = (
    FunctionalId.ABS_A4,
    FunctionalId.FEKETE_A2A3_A4,
    FunctionalId.H2_2,
    FunctionalId.T3_2,
    FunctionalId.T2_3,
)

#: the functionals quadratic in a4: t2_3 = 2 a3^2 a4 is affine in it at a2 = 0
QUADRATIC_IN_A4 = (FunctionalId.T3_2, FunctionalId.T2_3)


def searchable(fid, a2_zero):
    """Whether the search takes this functional on b1 in [0, 1], or on the
    a2 = 0 slice b1 = 0 when ``a2_zero``."""
    return fid not in QUADRATIC_IN_A4 or (fid is FunctionalId.T2_3 and a2_zero)


def b1_range(a2_zero):
    """The b1 range that the search covers."""
    return (0.0, 0.0) if a2_zero else (0.0, 1.0)


@pytest.mark.parametrize("fid, a2_zero", [
    pytest.param(fid, a2_zero, id=f"{fid.value}-a2_zero={a2_zero}")
    for fid in A4_IDS for a2_zero in (False, True)
    if searchable(fid, a2_zero)
])
def test_search_witness_replays_max_value(fid, a2_zero):
    # the reported (b1, x, y) is a class member whose functional is max_value
    lo, hi = b1_range(a2_zero)
    for q in (0.4, 0.5, 0.8):
        res = maximize_functional(SearchSpec(fid, q, a2_zero=a2_zero))
        b1, x, y = res.argmax
        assert lo <= b1 <= hi
        b2, b3 = schwarz_b2b3(b1, x, y)
        value = named_functional(fid, *initial_coeffs_closed(b1, b2, b3, q))
        assert value == pytest.approx(res.max_value, rel=1e-12)


@pytest.mark.parametrize("fid", [fid for fid in A4_IDS if fid is not FunctionalId.T3_2])
def test_y_elimination_dominates_a_y_lattice(fid):
    # brute force over an 11 x 18 polar y-lattice at fixed (b1, x): the
    # eliminated value |A| + |B| is no lower (t2_3 on its a2 = 0 slice only)
    ry = np.linspace(0.0, 1.0, 11)
    ay = 2.0 * np.pi * np.arange(18) / 18
    lattice = (ry[:, None] * np.exp(1j * ay)[None, :]).ravel()
    b1s = (0.0,) if fid in QUADRATIC_IN_A4 else (0.0, 0.3, 0.75, 1.0)
    points = [(b1, x) for b1 in b1s
              for x in (0.0, 0.5, -0.8 + 0.3j, 0.6j, cmath.exp(2j))]
    for q in (0.4, 0.5, 0.8):
        for b1, x in points:
            vals, _ = _y_max(fid, ClassParams(q), np.full((1, 1, 1, 1), b1),
                             np.full((1, 1, 1, 1), x))
            b2, b3 = schwarz_b2b3(b1, x, lattice)
            brute = np.max(np.abs(RAW_FORMULAS[fid](*initial_coeffs_closed(b1, b2, b3, q))))
            assert np.max(vals) >= brute - 1e-12 * max(1.0, brute)


@pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.9, 0.99])
def test_grid_map_matches_the_closed_forms(monkeypatch, q):
    # the (a2, a3, a4) the grid's functionals read, against the hand-expanded
    # recursion of the test oracle, on a random (b1, x, y) lattice
    rng = np.random.default_rng(11)
    b1 = rng.uniform(0.0, 1.0, (40, 1, 1, 1))
    x = (rng.uniform(0.0, 1.0, 30) ** 0.5
         * np.exp(2j * np.pi * rng.uniform(size=30))).reshape(1, 5, 6, 1)
    y = rng.uniform(0.0, 1.0, 7) ** 0.5 * np.exp(2j * np.pi * rng.uniform(size=7))
    monkeypatch.setattr(search, "RAW_FORMULAS", {"probe": lambda *a: a})
    got = search._functional_values("probe", ClassParams(q), b1, x, y)
    b2, b3 = schwarz_b2b3(b1, x, y)
    for a, closed in zip(got, initial_coeffs_closed(b1, b2, b3, q)):
        a, closed = np.broadcast_arrays(a, closed)
        assert np.all(np.abs(a - closed) <= 1e-13 * np.maximum(1.0, np.abs(closed)))


def test_search_evaluation_counts():
    # b1 points times the candidate radii times the three candidate angles of
    # the circle step: 51 * 4 * 3 per level, 4 levels; a y-free functional
    # takes |x| = 1 only, 51 * 1 * 3 per level; the a2 = 0 slice is one
    # level of 1 * 4 * 3
    for fid in (FunctionalId.ABS_A4, FunctionalId.FEKETE_A2A3_A4, FunctionalId.H2_2):
        assert maximize_functional(SearchSpec(fid, 0.5)).evaluations == 2448
    for fid in (FunctionalId.H2_2, FunctionalId.T2_3):
        assert maximize_functional(SearchSpec(fid, 0.5, a2_zero=True)).evaluations == 12
    for fid in (FunctionalId.H1_2, FunctionalId.ABS_A3, FunctionalId.ABS_A2):
        assert maximize_functional(SearchSpec(fid, 0.5)).evaluations == 612


def test_search_builds_its_class_once(monkeypatch):
    # one ClassParams per search, which every evaluation and the bound share
    built, queried = [], []

    def build(q):
        built.append(ClassParams(q))
        return built[-1]

    def bound(query):
        queried.append(query.params)
        return bound_value(query)

    monkeypatch.setattr(search, "ClassParams", build)
    monkeypatch.setattr(search, "bound_value", bound)
    maximize_functional(coarse_spec(FunctionalId.H2_2, 0.5))
    assert len(built) == 1 and queried[0] is built[0]


@pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.9, 0.99])
def test_t2_3_zero_slice_reaches_its_closed_maximum(q):
    # where a2 = 0, T2(3) = 2 a3^2 a4 = c x^2 (1 - |x|^2) y, whose modulus
    # peaks at |x|^2 = 1/2, |y| = 1 at 4 / (q^3 (1 + q)^2 (1 + q + q^2))
    res = maximize_functional(coarse_spec(FunctionalId.T2_3, q, a2_zero=True))
    assert res.max_value == pytest.approx(4.0 / (q**3 * (1 + q) ** 2 * (1 + q + q * q)),
                                          rel=1e-13)
    _, x, y = res.argmax
    assert abs(x) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert abs(y) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("fid, a2_zero", [
    (FunctionalId.T3_2, False),
    (FunctionalId.T3_2, True),
    (FunctionalId.T2_3, False),
])
def test_search_refuses_a_functional_quadratic_in_a4(fid, a2_zero):
    # no exact y step: verify checks these on the rotated extremal
    with pytest.raises(OutOfRange, match="rotated extremal"):
        maximize_functional(coarse_spec(fid, 0.5, a2_zero=a2_zero))


# ----------------------------------------------------------------- arg x

#: every (functional, a2_zero) that the search accepts; each takes arg x at
#: three angles
CIRCLE_STEPS = [
    (fid, a2_zero)
    for fid in FunctionalId
    for a2_zero in (False, True)
    if searchable(fid, a2_zero)
]


@pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("fid, a2_zero", CIRCLE_STEPS)
def test_circle_candidates_dominate_a_fine_arg_x_sweep(fid, a2_zero, q):
    # at random (b1, |x|), the three candidate angles of each circle reach
    # the maximum of a 3601-angle sweep of the same circle
    rng = np.random.default_rng(5)
    params = ClassParams(q)
    b1s = rng.uniform(*b1_range(a2_zero), 1 if a2_zero else 12)
    b1 = b1s[:, None, None, None]
    radii = np.broadcast_to(rng.uniform(0.0, 1.0, 8), (len(b1s), 8))
    args = _circle_args(*_read_off(fid, params, b1s)[:3], radii)
    x = (radii[..., None] * np.exp(1j * args))[..., None]
    best = np.max(_y_max(fid, params, b1, x)[0], axis=2)
    theta = np.linspace(0.0, 2.0 * np.pi, 3601)
    x = radii[:, :, None, None] * np.exp(1j * theta)[None, None, :, None]
    sweep = np.max(_y_max(fid, params, b1, x)[0], axis=2)
    assert np.all(best >= sweep * (1.0 - 1e-12))


@pytest.mark.parametrize("fid, a2_zero", CIRCLE_STEPS)
def test_circle_step_is_never_below_the_lattice_search(fid, a2_zero):
    # the lattice of 11 |x| and 18 arg x per circle that the search ran
    # before (with an 18-angle sweep of |y| = 1 for t2_3 on the a2 = 0 slice
    # too): the candidate x reach at least its maximum on the coarse grid
    ring = fid in QUADRATIC_IN_A4
    for q in (0.01, 0.5, 0.8, 0.99):
        params = ClassParams(q)

        def y_max(b1, x, ays):
            if ays is None:
                return _y_max(fid, params, b1, x)[0]
            return np.abs(search._functional_values(fid, params, b1, x, np.exp(1j * ays)))

        lattice = lattice_search_max(y_max, COARSE, 11, b1_range(a2_zero), 18, ring)
        res = maximize_functional(coarse_spec(fid, q, a2_zero=a2_zero))
        assert res.max_value >= lattice * (1.0 - 1e-15), (q, res.max_value, lattice)


# ----------------------------------------------------------------- |x|

#: the branches of the Choi-Kim-Sugawa disk maximum, and |Q| = 0
CKS_BRANCHES = {"ac>=0 edge", "ac>=0 r1", "ac<0 r1", "ac<0 r2", "R1", "R2", "R3", "|Q| = 0"}


def test_x_step_reaches_the_disk_maximum_in_every_branch():
    # on raw rows (p0, p1, p2, |Q|), the best candidate x reaches |Q| Y(p / |Q|),
    # Y the Choi-Kim-Sugawa disk maximum, or the circle maximum of |P| where
    # |Q| = 0; the grid items did not reach the branch at +-r2 at 99 q from
    # 0.01 to 0.99 and 501 b1 each, so only this test guards that radius
    rng = np.random.default_rng(16)
    rows = rng.uniform(-2.0, 2.0, (2400, 4))
    rows[:, 3] = np.abs(rows[:, 3])
    rows[0::4, 2] = -np.sign(rows[0::4, 0]) * np.abs(rows[0::4, 2])  # p0 p2 < 0
    rows[1::4, 2] *= rng.uniform(1.0, 3.0, 600) * rows[1::4, 3] / np.abs(rows[1::4, 2])
    rows[2::4] *= 10.0 ** rng.uniform(-3.0, 3.0, (600, 4))  # unequal scales
    rows[3::8, 3] = 0.0
    rows[np.arange(7, 2400, 8), rng.integers(0, 3, 300)] = 0.0  # a zero coefficient
    p0, p1, p2, absq = rows.T
    radii, args = _x_step(p0, p1, p2, absq)
    assert radii.shape == (2400, 4) and np.all(np.diff(radii, axis=1) >= 0.0)
    x = radii[..., None] * np.exp(1j * args)
    col = rows[:, :, None, None]
    got = np.max(np.abs(col[:, 0] + col[:, 1] * x + col[:, 2] * x * x)
                 + col[:, 3] * (1.0 - np.abs(x) ** 2), axis=(1, 2))
    branches = set()
    for (a, b, c, q), value in zip(rows, got):
        if q == 0.0:
            want, branch = circle_max(a, b, c), "|Q| = 0"
        else:
            y, branch = disk_quadratic_max_cks(a / q, b / q, c / q)
            want = q * y
        branches.add(branch)
        assert abs(value - want) <= 1e-12 * want, (a, b, c, q, branch)
    assert branches == CKS_BRANCHES


@pytest.mark.parametrize("field, value", [
    ("b1_points", 2.0), ("b1_points", "51"), ("levels", True), ("levels", None),
    ("b1_points", 1), ("b1_points", 0), ("levels", -1),
])
def test_grid_spec_rejects_a_size_that_breaks_the_search(field, value):
    with pytest.raises(OutOfRange):
        GridSpec(**{field: value})


def test_grid_presets_pin_their_sizes():
    # --grid lists the presets in this order; --help and perfbench read them
    assert [(name, dataclasses.astuple(g)) for name, g in GRIDS.items()] == [
        ("coarse", (26, 2)), ("default", (51, 3)), ("fine", (101, 3))]


def test_grid_spec_accepts_its_minimum_sizes():
    grid = GridSpec(np.int64(2), 0)
    assert type(grid.b1_points) is int
    res = maximize_functional(SearchSpec(FunctionalId.ABS_A4, 0.5, grid))
    assert res.argmax[0] == 1.0 and res.evaluations == 2 * 4 * 3


@pytest.mark.parametrize("fid, a2_zero", [
    (FunctionalId.H2_2, False),
    (FunctionalId.T2_3, True),
], ids=["h2_2", "t2_3"])
def test_search_determinism_default_grid(fid, a2_zero):
    spec = SearchSpec(fid, 0.5, a2_zero=a2_zero)
    assert maximize_functional(spec) == maximize_functional(spec)


@pytest.mark.parametrize("q, a2_zero, ok", [
    (0.5, True, True),
    (np.float64(0.5), True, True),
    *[(0.5, a2_zero, False) for a2_zero in (0, 1, None, "yes", (0.0, 0.0), np.True_)],
    *[(q, True, False) for q in (0.5 + 0j, "0.5", None, True)],
])
def test_search_spec_takes_a_real_q_and_a_bool_a2_zero(q, a2_zero, ok):
    if not ok:
        with pytest.raises(OutOfRange):
            SearchSpec(FunctionalId.H2_2, q, COARSE, a2_zero)
        return
    spec = SearchSpec(FunctionalId.H2_2, q, COARSE, a2_zero)
    assert spec.a2_zero is True and type(spec.q) is float
    res = maximize_functional(spec)
    assert res.bound == pytest.approx(64.0 / 9.0, rel=1e-14)  # the a2_zero case
    assert abs(res.gap) <= 1e-6


def test_search_spec_validation():
    import qstar

    with pytest.raises(qstar.OutOfRange):
        SearchSpec(FunctionalId.ABS_A2, 1.5)
    with pytest.raises(qstar.OutOfRange):
        SearchSpec(FunctionalId.H2_2, 0.005)  # below Q_MIN, rounding swamps H2(2)
    with pytest.raises(qstar.UnknownId):
        SearchSpec("nope", 0.5)
    for grid in (None, (26, 2)):  # the search reads the GridSpec fields
        with pytest.raises(qstar.OutOfRange):
            SearchSpec(FunctionalId.H2_2, 0.5, grid=grid)


# ----------------------------------------------------------------- rotation


def test_rotated_extremal_attainment_identities():
    for q in (0.5, 0.8):
        a2, a3, a4 = initial_coeffs_closed(1.0, 0.0, 0.0, q)
        ra2, ra3, ra4 = rotated_extremal_values(q)
        # the rotation sends (a2, a3, a4) to (i a2, -a3, -i a4)
        assert abs(ra2 - 1j * a2) <= 1e-12 * abs(a2)
        assert abs(ra3 + a3) <= 1e-12 * abs(a3)
        assert abs(ra4 + 1j * a4) <= 1e-12 * abs(a4)
        params = ClassParams(q)
        checks = {
            FunctionalId.T1_2: 1.0 + a2.real**2,
            FunctionalId.T2_2: a2.real**2 + a3.real**2,
            FunctionalId.T3_2: a3.real**2 + a4.real**2,
            FunctionalId.T1_3: 1.0
            + 2.0 * a2.real**2
            + a3.real * (2.0 * a2.real**2 - a3.real),
        }
        for fid, exact in checks.items():
            achieved = named_functional(fid, ra2, ra3, ra4)
            bound = bound_value(BoundQuery(fid, params))
            assert achieved == pytest.approx(exact, rel=1e-12)
            assert achieved == pytest.approx(bound, rel=1e-9)


def test_rotated_extremal_t2_3_attains_nonzero_case():
    for q in (0.5, 0.8):
        achieved = named_functional(FunctionalId.T2_3, *rotated_extremal_values(q))
        bound = bound_value(
            BoundQuery(FunctionalId.T2_3, ClassParams(q), case_flag=CaseFlag.A2_NONZERO)
        )
        assert achieved == pytest.approx(bound, rel=1e-9)


def test_t1_2_value_at_half():
    ra2, ra3, ra4 = rotated_extremal_values(0.5)
    assert named_functional(FunctionalId.T1_2, ra2, ra3, ra4) == pytest.approx(17.0)


# ----------------------------------------------------------------- reports


def test_sharpness_report_structure_and_verdicts():
    rep = sharpness_report(
        [0.5],
        [FunctionalId.ABS_A3, FunctionalId.H2_2, FunctionalId.T1_2, FunctionalId.T1_3],
        grid=COARSE,
        seed=7,
    )
    by_name = {it.name: it for it in rep.items}
    assert set(by_name) == {"abs_a3", "h2_2", "h2_2[b1=0]", "t1_2", "t1_3"}
    assert by_name["abs_a3"].verdict == "attained"
    assert by_name["h2_2"].verdict == "attained"
    assert by_name["h2_2"].case == "a2_nonzero"
    assert by_name["h2_2[b1=0]"].case == "a2_zero"
    assert by_name["t1_2"].achieved == pytest.approx(17.0)
    assert by_name["t1_3"].achieved == pytest.approx(2537.0 / 9.0, rel=1e-12)
    assert not rep.has_violation
    assert rep.seed == 7


def test_sharpness_report_q_scan_has_no_rounding_violation():
    # the Toeplitz bounds reach 1e14 at small q, where rounding alone moves
    # the rotated extremal's gap by 1e-4; every bound is a theorem, and all
    # but the unreached a2 = 0 case of t2_3 are attained
    qs = [0.02 + 0.04 * i for i in range(25)]
    rep = sharpness_report(qs, grid=COARSE)
    assert len(rep.items) == 25 * 13
    for it in rep.items:
        expected = "consistent" if it.name == "t2_3[b1=0]" else "attained"
        assert it.verdict == expected, (it.name, it.zeta, it.gap, it.bound)


def test_sharpness_report_deterministic():
    args = ([0.6], [FunctionalId.ABS_A3, FunctionalId.T2_2])
    grid = dataclasses.replace(COARSE, levels=1)
    r1 = sharpness_report(*args, grid=grid)
    r2 = sharpness_report(*args, grid=grid)
    assert r1 == r2


# ----------------------------------------------------------------- suite


def test_random_suite_no_violations_smoke():
    params = ClassParams(0.6 * cmath.exp(1j * math.pi / 4), 0.25)
    rep = random_schwarz_suite(params, seed=3, count=400, order=8)
    assert not rep.has_violation
    verdicts = {it.verdict for it in rep.items}
    assert "skipped" not in verdicts


def test_random_suite_product_equality_for_forced_identity():
    # w = z attains the product bound with equality; real zeta, alpha = 0
    rep = random_schwarz_suite(ClassParams(0.5), seed=1, count=50, order=8)
    for it in rep.items:
        if it.name.startswith("product"):
            assert abs(it.gap) <= 1e-9
            assert it.witness == "forced_z"
            assert it.verdict == "attained"
    # at zeta = -0.5 it attains every check, and no random sample comes lower
    rep = random_schwarz_suite(ClassParams(-0.5), seed=7, count=300, order=8)
    assert {it.witness for it in rep.items} == {"forced_z"}


#: ten |zeta| from 3e-12 to 1 at four alphas, arg zeta stepping by the golden
#: angle; three alpha = 0.9 classes near the most negative double-precision
#: gaps of wider scans; and two classes whose double-precision parseval[n=8]
#: reads a VIOLATION (alpha near 1, zeta on the negative real axis)
_GAP_SCAN = [
    (r * cmath.exp(2.39996j * i), alpha)
    for i, (r, alpha) in enumerate(
        (r, alpha) for r in np.geomspace(3e-12, 1.0, 10) for alpha in (0.0, 0.25, 0.5, 0.9))
] + [(0.2817 * cmath.exp(2.6798j), 0.9),
     (0.6071733857690266 * cmath.exp(2.8727362828245457j), 0.9),
     (0.19689956025253402 * cmath.exp(-2.999481271765206j), 0.9),
     (-0.4, 0.86),
     (-0.3, 0.88)]


def test_random_suite_gap_scan_stays_within_rounding():
    # every reported row is decided exactly, so on the verdict's scale
    # max(1, |bound|) its gap stays a thousand times above the -1e-9
    # VIOLATION threshold on every class of the scan
    worst = min(
        it.gap / max(1.0, abs(it.bound))
        for zeta, alpha in _GAP_SCAN
        for it in random_schwarz_suite(ClassParams(zeta, alpha), seed=0, count=300,
                                       order=8).items
        if it.gap is not None)
    assert worst > -1e-12


@pytest.mark.parametrize("zeta, alpha", [(-0.4, 0.86), (-0.3, 0.88)])
def test_random_suite_decides_a_collapsing_extremal_exactly(zeta, alpha):
    # a weight (1 - 2 alpha) + [k] nearly vanishes and the extremal's |a_n|
    # collapse; the Parseval bound of the w = z row cancels down to
    # c_n |a_n|^2, and in double precision parseval[n=8] reads a VIOLATION
    params = ClassParams(zeta, alpha)
    b = schur_rows(np.array([[1.0, 0, 0, 0, 0]], dtype=complex), 8)
    gap, side = search._suite_sides(b, params, 8, parseval_weights(params, 8), None)
    assert gap[0, 1, -1] < search.VIOLATION_TOL * max(1.0, side[0, 1, -1])
    # the reported rows are decided exactly: w = z attains chain and
    # parseval with equality, so their gaps are exactly 0
    rep = random_schwarz_suite(params, seed=0, count=300, order=8)
    assert not rep.has_violation
    for it in rep.items:
        if it.name.startswith("product"):
            assert it.verdict == "skipped"
        else:
            assert (it.gap, it.witness, it.verdict) == (0.0, "forced_z", "attained")


@pytest.mark.parametrize("zeta, alpha", [
    (-0.4, 0.86), (1e-9, 0.0), (0.6 * cmath.exp(1j * math.pi / 4), 0.25), (-0.5, 0.0),
    (0.2817 * cmath.exp(2.6798j), 0.9), (1.0, 0.25)])
def test_exact_sides_match_the_rational_recursion(zeta, alpha):
    # _exact_sides against the recursion with its divisions, over Gaussian
    # rationals: chain exactly as rounded, parseval and product gaps to an
    # ulp or two of the exact difference over the rounded sides
    params, order = ClassParams(zeta, alpha), 8
    prod = an_product(params, order) if product_bound_applies(params, order) else None
    rng = np.random.default_rng(3)
    gammas = rng.uniform(-0.7, 0.7, (4, 5)) + 1j * rng.uniform(-0.7, 0.7, (4, 5))
    gammas[0], gammas[1] = [1.0, 0, 0, 0, 0], 0.0  # w = z and w = 0
    for row in schur_rows(gammas, order):
        t, d, c = exact_parseval_terms(row, zeta, alpha, order)
        gap, side, other = search._exact_sides(row, params, order, prod)
        for n in range(2, order + 1):
            lhs = sum(c[k] * t[k] for k in range(1, n + 1))
            rhs = sum(d[k] * t[k] for k in range(1, n))
            root = (rhs - lhs) / c[n] + t[n]
            an = math.sqrt(t[n])
            assert (gap[0, n - 2], side[0, n - 2], other[0, n - 2]) == (
                float(rhs - lhs), float(rhs), float(lhs))
            exact = [(root - t[n], math.sqrt(root))]
            if prod is not None:
                p = prod[n - 2]
                exact.append((Fraction(float(p)) ** 2 - t[n], p))
            for i, (diff, bound) in enumerate(exact, start=1):
                assert side[i, n - 2] == pytest.approx(bound, rel=1e-15)
                assert other[i, n - 2] == pytest.approx(an, rel=1e-15)
                want = float(diff) / (bound + an) if diff else 0.0
                assert gap[i, n - 2] == pytest.approx(want, rel=1e-15, abs=0.0)
                assert math.copysign(1.0, gap[i, n - 2]) == math.copysign(1.0, want)


def test_random_suite_skips_on_failed_hypothesis():
    # 0.9i at alpha = 0.25 fails Re [3] > alpha: product items are skipped
    rep = random_schwarz_suite(ClassParams(0.9j, 0.25), seed=2, count=20, order=6)
    product_verdicts = {it.verdict for it in rep.items if it.name.startswith("product")}
    assert product_verdicts == {"skipped"}
    other_verdicts = {it.verdict for it in rep.items if not it.name.startswith("product")}
    assert "VIOLATION" not in other_verdicts
    assert "skipped" not in other_verdicts


def test_random_suite_degenerate_zeta_skips_everything():
    rep = random_schwarz_suite(ClassParams(-1.0), seed=0, count=5, order=6)
    assert {it.verdict for it in rep.items} == {"skipped"}


def test_random_suite_rejects_negative_count():
    with pytest.raises(OutOfRange):
        random_schwarz_suite(ClassParams(0.5), count=-1, order=4)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5),  # Philox would key it as seed 1, and the report would say 1.5
    ("seed", True),
    ("count", 2.5),
    ("count", None),
    ("order", 3.0),
    ("order", False),
])
def test_random_suite_takes_only_integer_count_seed_and_order(name, value):
    with pytest.raises(OutOfRange, match="not an integer"):
        random_schwarz_suite(ClassParams(0.5), **{"seed": 1, "count": 2, "order": 4,
                                                  name: value})


def test_random_suite_reads_numpy_integers_as_int():
    rep = random_schwarz_suite(ClassParams(0.5), seed=np.int64(1), count=np.int32(2),
                               order=np.uint8(4))
    assert type(rep.seed) is int
    assert rep == random_schwarz_suite(ClassParams(0.5), seed=1, count=2, order=4)


@pytest.mark.parametrize("order", [1, 9, 32])
def test_random_suite_rejects_an_order_outside_its_range(order):
    # at zeta = 1e-5 and order 32 the double-precision sides overflow into
    # false VIOLATIONs (-inf, nan and inf gaps)
    with pytest.raises(OutOfRange):
        random_schwarz_suite(ClassParams(1e-5), seed=0, count=20, order=order)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf])
def test_nonfinite_gap_is_a_violation(gap):
    assert _verdict(gap, 1.0) == "VIOLATION"
    assert _verdict(gap, 1e22) == "VIOLATION"
    assert _verdict(0.0, gap) == "VIOLATION"  # nor does a non-finite bound pass


def test_suite_worst_keeps_a_nan_gap():
    gaps = np.array([1.0, math.nan, -3.0, math.nan])
    labels = ["a", "b", "c", "d"]
    pick = _worst(gaps, np.zeros(4))
    gap, label = gaps[pick], labels[pick]
    assert math.isnan(gap) and label == "b"
    assert _verdict(gap, 0.0) == "VIOLATION"


def test_verdict_thresholds():
    # both tolerances are relative to max(1, |bound|)
    assert _verdict(-1e-10, 1.0) == "attained"
    assert _verdict(-1e-8, 1.0) == "VIOLATION"
    assert _verdict(-1e-8, 100.0) == "attained"  # the same gap on a larger scale
    assert _verdict(-2e-9, 0.1) == "VIOLATION"  # the scale is at least 1
    assert _verdict(0.5, 1.0) == "consistent"
    assert _verdict(0.5, 100.0) == "attained"
    assert _verdict(1024.0, 1.1e22) == "attained"


def test_suite_slack_is_relative_to_the_bound_side(monkeypatch):
    # at small |zeta| the product bounds reach 1e15; the forced w = z sample
    # attains them, so shrinking every bound by a relative 1e-8 must give
    # VIOLATIONs however large the scale, and by 1e-11 must not
    params = ClassParams(0.01 + 0.01j, 0.01)
    exact = search.an_product
    for shrink, violated in ((1e-8, True), (1e-11, False)):
        monkeypatch.setattr(search, "an_product", lambda p, o: exact(p, o) * (1.0 - shrink))
        rep = random_schwarz_suite(params, seed=0, count=0, order=8)
        product = [it for it in rep.items if it.name.startswith("product")]
        assert {it.verdict == "VIOLATION" for it in product} == {violated}
    # the worst sample is the lowest gap on that scale, reported unscaled
    gaps, bounds, labels = np.array([-1e-7, -5e-8]), np.array([1e3, 1.0]), ["big", "small"]
    pick = _worst(gaps, bounds)
    assert (gaps[pick], labels[pick]) == (-5e-8, "small")
    assert _verdict(gaps[pick], bounds[pick]) == "VIOLATION"


def _disk_point_reference(rng) -> complex:
    # the per-pair rejection loop the suite's draws must reproduce
    while True:
        u, v = rng.uniform(-1.0, 1.0, size=2)
        if u * u + v * v <= 1.0:
            return complex(u, v)


def _sample_gammas_reference(seed, index, depth):
    rng = np.random.Generator(np.random.Philox(key=seed, counter=1024 * index))
    return [_disk_point_reference(rng) for _ in range(depth)]


@pytest.mark.parametrize(
    "seeds, indices, depth",
    [
        ((0, 7, 2026, 2**64 + 3), range(600), 5),
        ((11,), range(300), 1),
        ((12,), range(300), 8),
        # counters 2^64 + 3072 + k and 2^74 - 1024 + k: the counter's second word
        ((5, 2**128 - 1), [2**54 + 3, 2**64 - 1, 2**54 + 3], 5),
        # about 1080 blocks from counter 2^64 - 1024: the last ones carry past 2^64
        ((9,), [2**54 - 1], 1700),
        ((2**128 - 1,), range(300), 5),
        # a batch that holds only the two forced rows draws no sample
        ((3,), [], 5),
    ],
)
def test_block_draw_reproduces_the_pairwise_stream(seeds, indices, depth):
    # bit for bit, including the samples whose first block runs short
    for seed in seeds:
        got = _sample_gammas(seed, indices, depth)
        want = np.array([_sample_gammas_reference(seed, i, depth) for i in indices],
                        dtype=complex).reshape(len(indices), depth)
        assert got.shape == (len(indices), depth)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
    # any subset of indices, in any order, draws the same tuples
    idx = [*indices[-1:], *indices[:2], *indices[-1:]]
    assert np.array_equal(_sample_gammas(seeds[0], idx, depth),
                          np.array([_sample_gammas_reference(seeds[0], i, depth)
                                    for i in idx], dtype=complex).reshape(len(idx), depth))


@pytest.mark.parametrize("indices", [[2**64], [-1], np.array([4, -1]), [0.0], np.array([2.0])])
def test_block_draw_rejects_an_index_outside_the_counter_range(indices):
    # an index outside [0, 2^64), or not an integer, is refused: never
    # wrapped into the counter or truncated
    with pytest.raises(OutOfRange, match="sample index"):
        _sample_gammas(0, indices, 5)


@pytest.mark.parametrize("perturb", [False, True])
@pytest.mark.parametrize("params", [ClassParams(-0.5), ClassParams(0.9j, 0.25)])
def test_random_suite_is_independent_of_the_chunk_size(monkeypatch, params, perturb):
    # the determinism contract: any schedule of sample batches gives the
    # serial report, bit for bit.  The forced w = z sample is every check's
    # worst, so a perturbed run replaces the gaps by -|b_(n-1)| rounded to
    # 0.1 (ties) and the n = 2 gaps by NaN where Re b_1 > 0.8, to make random
    # samples, first-on-tie and first-NaN picks cross the batch boundaries
    sides = search._suite_sides

    def perturbed(b, *args):
        gap, side = sides(b, *args)
        gap = np.broadcast_to(-np.round(np.abs(b[:, None, 1:-1]), 1), gap.shape).copy()
        gap[b[:, 1].real > 0.8, :, 0] = np.nan
        return gap, side

    if perturb:
        monkeypatch.setattr(search, "_suite_sides", perturbed)
    reports = []
    # 128, the batch size before 2048, spans three batches here
    for chunk in (1, 7, 128, search._CHUNK_SAMPLES):
        monkeypatch.setattr(search, "_CHUNK_SAMPLES", chunk)
        reports.append(random_schwarz_suite(params, seed=5, count=300, order=8))
    assert len({repr(r) for r in reports}) == 1  # repr, since NaN != NaN
    witnesses = {it.witness for it in reports[0].items} - {""}
    assert witnesses == {"forced_z"} if not perturb else len(witnesses) >= 3


def test_random_suite_reports_only_the_exact_sides(monkeypatch):
    # the double pass only ranks: every live item's gap, bound and achieved
    # is its reported row's entry of _exact_sides, replaced here by
    # sentinels that tag the row (by |b_1|), the check and n.  The ranking
    # gap is -|b_(n-1)|, so the forced w = z row and random samples are both
    # reported
    params, seed, count, order = ClassParams(-0.5), 5, 300, 8
    sides = search._suite_sides

    def ranking(b, *args):
        gap, side = sides(b, *args)
        return np.broadcast_to(-np.abs(b[:, None, 1:-1]), gap.shape), side

    def sentinel(b, params, order, prod):
        checks = 2 + (prod is not None)
        tag = np.add.outer(100.0 * np.arange(checks), np.arange(2, order + 1)) + abs(b[1])
        return tag + 0.25, tag + 0.5, tag + 0.75

    monkeypatch.setattr(search, "_suite_sides", ranking)
    monkeypatch.setattr(search, "_exact_sides", sentinel)
    rep = random_schwarz_suite(params, seed=seed, count=count, order=order)
    forced = [[0.0] * search.SUITE_DEPTH, [1.0] + [0.0] * (search.SUITE_DEPTH - 1)]
    rows = schur_rows(np.vstack([np.array(forced, dtype=complex),
                                 _sample_gammas(seed, range(count), search.SUITE_DEPTH)]),
                      order)
    witnesses = set()
    for it in rep.items:
        check, n = it.name.removesuffix("]").split("[n=")
        row = {"forced_zero": 0, "forced_z": 1}.get(it.witness)
        if row is None:
            row = int(it.witness.removeprefix("sample")) + 2
        want = sentinel(rows[row], params, order, True)
        at = search._CHECKS.index(check), int(n) - 2
        assert (it.gap, it.bound, it.achieved) == tuple(float(x[at]) for x in want)
        witnesses.add(it.witness)
    assert "forced_z" in witnesses and len(witnesses) >= 4


def test_random_suite_deterministic():
    params = ClassParams(-0.5, 0.25)
    r1 = random_schwarz_suite(params, seed=11, count=100, order=6)
    r2 = random_schwarz_suite(params, seed=11, count=100, order=6)
    assert r1 == r2
    r3 = random_schwarz_suite(params, seed=12, count=100, order=6)
    assert r1 != r3


def test_report_json_shape():
    rep = random_schwarz_suite(ClassParams(-0.5), seed=5, count=10, order=4)
    d = rep.to_json_dict()
    assert d["seed"] == 5
    assert d["tool_version"]
    # the keys are ReportItem's fields, in its order
    fields = [f.name for f in dataclasses.fields(search.ReportItem)]
    assert fields == ["name", "zeta", "alpha", "case", "bound", "achieved", "gap",
                      "verdict", "witness"]
    assert all(list(item) == fields for item in d["items"])
