import cmath
import math

import numpy as np
import pytest

from qstar import (
    BoundQuery,
    CaseFlag,
    ClassParams,
    DegenerateDivisor,
    FunctionalId,
    MissingCaseFlag,
    OutOfRange,
    PreconditionViolated,
    an_product,
    bound_value,
    cubic_bound_region,
    disk_quadratic_max_closed,
    disk_quadratic_max_grid,
    extremal_by_formula,
    h2_quadratic_triple,
    parseval_rhs,
    product_bound_applies,
    schwarz_cubic_functional,
)
from qstar.bounds import CASE_SPLIT_IDS
from qstar.functionals import RAW_FORMULAS
from qstar.schwarz import schur_rows
from qstar.search import Q_MIN
from qstar.series import q_numbers
from qstar.starlike import recursion_coeffs

from _oracles import (an_product_per_n, disk_quadratic_max_cks, disk_quadratic_max_full_grid,
                      parseval_rhs_per_n)

Q_HALF = ClassParams(0.5)


def bound(fid, q, case=None):
    return bound_value(BoundQuery(fid, ClassParams(q), case_flag=case))


# ----------------------------------------------------------------- catalog


def test_bound_examples():
    assert bound(FunctionalId.ABS_A2, 0.5) == 4.0
    assert bound(FunctionalId.ABS_A3, 0.5) == pytest.approx(40.0 / 3.0, rel=1e-14)
    assert bound(FunctionalId.ABS_A4, 0.5) == pytest.approx(880.0 / 21.0, rel=1e-14)
    assert bound(FunctionalId.FEKETE_A2A3_A4, 0.5) == pytest.approx(80.0 / 7.0, rel=1e-14)
    assert bound(FunctionalId.H1_2, 0.5) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert bound(FunctionalId.H2_2, 0.5, CaseFlag.A2_NONZERO) == pytest.approx(
        640.0 / 63.0, rel=1e-14
    )
    assert bound(FunctionalId.H2_2, 0.5, CaseFlag.A2_ZERO) == pytest.approx(
        64.0 / 9.0, rel=1e-14
    )
    assert bound(FunctionalId.T1_2, 0.5) == 17.0
    # t2_2 first term is (2/q)^2, the square of the a2 bound
    assert bound(FunctionalId.T2_2, 0.5) == pytest.approx(16.0 + 1600.0 / 9.0, rel=1e-14)
    assert bound(FunctionalId.T3_2, 0.5) == pytest.approx(
        1600.0 / 9.0 + (880.0 / 21.0) ** 2, rel=1e-14
    )
    assert bound(FunctionalId.T1_3, 0.5) == pytest.approx(2537.0 / 9.0, rel=1e-14)


@pytest.mark.parametrize("fid", list(FunctionalId))
def test_every_functional_has_a_formula_and_a_finite_bound_per_case(fid):
    assert fid in RAW_FORMULAS
    cases = (CaseFlag.A2_ZERO, CaseFlag.A2_NONZERO) if fid in CASE_SPLIT_IDS else (None,)
    for q in (Q_MIN, 0.5, 0.999):
        for case in cases:
            assert math.isfinite(bound(fid, q, case)) and bound(fid, q, case) > 0.0


def test_t2_3_components_identity():
    # the two degree-11 rational forms equal (M2+M4)(M2^2+M3^2+H_case)
    for q in np.linspace(0.05, 0.95, 19):
        m2 = bound(FunctionalId.ABS_A2, q)
        m3 = bound(FunctionalId.ABS_A3, q)
        m4 = bound(FunctionalId.ABS_A4, q)
        for case in (CaseFlag.A2_ZERO, CaseFlag.A2_NONZERO):
            h = bound(FunctionalId.H2_2, q, case)
            expect = (m2 + m4) * (m2 * m2 + m3 * m3 + h)
            got = bound(FunctionalId.T2_3, q, case)
            assert got == pytest.approx(expect, rel=1e-12)


def test_t2_3_limit_values():
    for case in (CaseFlag.A2_ZERO, CaseFlag.A2_NONZERO):
        assert bound(FunctionalId.T2_3, 1.0 - 1e-8, case) == pytest.approx(84.0, abs=1e-4)


def test_q_to_one_limits():
    q = 1.0 - 1e-6
    expectations = {
        (FunctionalId.ABS_A2, None): 2.0,
        (FunctionalId.ABS_A3, None): 3.0,
        (FunctionalId.ABS_A4, None): 4.0,
        (FunctionalId.FEKETE_A2A3_A4, None): 2.0,
        (FunctionalId.H1_2, None): 1.0,
        (FunctionalId.H2_2, CaseFlag.A2_NONZERO): 1.0,
        (FunctionalId.T1_2, None): 5.0,
        (FunctionalId.T2_2, None): 13.0,
        (FunctionalId.T3_2, None): 25.0,
        (FunctionalId.T1_3, None): 24.0,
    }
    for (fid, case), limit in expectations.items():
        assert bound(fid, q, case) == pytest.approx(limit, rel=1e-4)


def test_case_flag_requirements():
    with pytest.raises(MissingCaseFlag):
        BoundQuery(FunctionalId.H2_2, Q_HALF)
    with pytest.raises(MissingCaseFlag):
        BoundQuery(FunctionalId.T2_3, Q_HALF)
    with pytest.raises(OutOfRange):
        BoundQuery(FunctionalId.ABS_A2, Q_HALF, case_flag=CaseFlag.A2_ZERO)


@pytest.mark.parametrize("order", [None, 1, 2.5, 3.0, True])
def test_an_product_takes_an_integer_order_of_at_least_2(order):
    with pytest.raises(OutOfRange):
        an_product(Q_HALF, order)


def test_real_bounds_reject_complex_or_alpha():
    with pytest.raises(OutOfRange):
        bound_value(BoundQuery(FunctionalId.ABS_A2, ClassParams(0.5j)))
    with pytest.raises(OutOfRange):
        bound_value(BoundQuery(FunctionalId.ABS_A2, ClassParams(0.5, 0.25)))


def test_h2_2_case_difference_positive_and_vanishing():
    qs = np.linspace(0.001, 0.999, 1000)
    for q in qs:
        h = bound(FunctionalId.H2_2, q, CaseFlag.A2_NONZERO) - bound(
            FunctionalId.H2_2, q, CaseFlag.A2_ZERO
        )
        assert h > 0.0
    tail = bound(FunctionalId.H2_2, 1 - 1e-8, CaseFlag.A2_NONZERO) - bound(
        FunctionalId.H2_2, 1 - 1e-8, CaseFlag.A2_ZERO
    )
    assert tail < 1e-6


# ----------------------------------------------------------------- an_product


def test_an_product_examples():
    got = an_product(Q_HALF, 4)
    assert got.shape == (3,) and got.dtype == np.float64
    assert got[0] == pytest.approx(4.0)
    assert got[2] == pytest.approx(880.0 / 21.0, rel=1e-12)
    assert an_product(ClassParams(-1.0), 2) == pytest.approx([2.0])
    with pytest.raises(DegenerateDivisor):
        an_product(ClassParams(-1.0), 3)


@pytest.mark.parametrize("zeta", [0.5, 0.999, -0.5, 0.9j, 0.3 + 0.6j])
@pytest.mark.parametrize("alpha", [0.0, 0.25])
def test_an_product_is_modulus_of_formula(zeta, alpha):
    params = ClassParams(zeta, alpha)
    for n, bound in enumerate(an_product(params, 32), start=2):
        formula = abs(extremal_by_formula(params, n).coeff(n))
        assert bound == pytest.approx(formula, rel=1e-13)


#: the six criterion-8 classes, the classical endpoint zeta = 1 (Robertson's
#: product), small |zeta| where the products reach 1e43, and a class where
#: the product's hypothesis fails
_PRODUCT_CLASSES = [
    (zeta, alpha) for zeta in (0.6 * cmath.exp(1j * math.pi / 4), 0.9j, -0.5)
    for alpha in (0.0, 0.25)
] + [(1.0, 0.25), (1.0, 0.5), (0.01, 0.0), (0.01j, 0.25), (1e-6, 0.25), (-0.95, 0.5)]


@pytest.mark.parametrize("zeta, alpha", _PRODUCT_CLASSES)
def test_an_product_equals_the_per_n_product_bit_for_bit(zeta, alpha):
    params = ClassParams(zeta, alpha)
    for order in [*range(2, 9), 32]:
        got = an_product(params, order)
        want = [an_product_per_n(params.zeta, alpha, n) for n in range(2, order + 1)]
        assert got.tolist() == want, order


# ----------------------------------------------------------------- parseval


def test_parseval_rhs_n2():
    for zeta, alpha in ((0.5, 0.0), (0.9j, 0.25), (0.6 * cmath.exp(1j), 0.1)):
        params = ClassParams(zeta, alpha)
        got = parseval_rhs(params, [1.0])
        assert got.shape == (1,)
        assert got[0] == pytest.approx((2 - 2 * alpha) / abs(complex(zeta)), rel=1e-12)
    assert parseval_rhs(Q_HALF, [1.0])[0] == pytest.approx(4.0)


def test_parseval_rhs_zero_tail():
    params = ClassParams(0.9j)
    got = parseval_rhs(params, [1.0, 0.0])[-1]
    q3 = 1 + 0.9j + (0.9j) ** 2
    expect = 2.0 / abs(q3 - 1)  # only the k = 1 term survives
    assert got == pytest.approx(expect, rel=1e-12)


def test_parseval_rhs_on_rows_matches_the_scalar_sum():
    # rows of moduli give the bound on every |a_n| of every row; the
    # reference is the scalar sum written out
    params = ClassParams(0.6 * cmath.exp(1j), 0.1)
    rng = np.random.default_rng(4)
    rows = np.hstack([np.ones((50, 1)), rng.uniform(0.0, 3.0, size=(50, 5))])
    qn = q_numbers(params.zeta, 7)
    dv = [0j] + [params.zeta * qn[k - 1] for k in range(1, 7)]  # [k+1] - 1
    got = parseval_rhs(params, rows)
    assert got.shape == (50, 6) and got.dtype == np.float64
    for row, values in zip(rows, got):
        for n, value in enumerate(values, start=2):
            acc = sum((abs(0.8 + w) ** 2 - abs(d) ** 2) * a**2
                      for w, d, a in zip(qn, dv, row[:n - 1]))
            assert float(value) == pytest.approx(
                math.sqrt(max(acc, 0.0)) / abs(dv[n - 1]), rel=1e-14)
        assert np.array_equal(parseval_rhs(params, row), values)


#: the criterion-8 classes of the random suite, and |zeta| = 0.01
_PARSEVAL_CLASSES = [
    (zeta, alpha)
    for zeta in (0.6 * cmath.exp(1j * math.pi / 4), 0.9j, -0.5, 0.01, 0.01j)
    for alpha in (0.0, 0.25)
]


@pytest.mark.parametrize("zeta, alpha", _PARSEVAL_CLASSES)
def test_parseval_rhs_running_sum_equals_the_per_n_sum(zeta, alpha):
    # one running sum over |a_1| .. |a_m| gives, bit for bit, what one sum
    # per n gives, for every m the random suite reaches (1..7), on genuine
    # members (w = z and random Schur tuples) and on arbitrary moduli
    params = ClassParams(zeta, alpha)
    rng = np.random.default_rng(8)
    gammas = np.sqrt(rng.uniform(size=(60, 5))) * np.exp(2j * np.pi * rng.uniform(size=(60, 5)))
    gammas[0] = (1.0, 0.0, 0.0, 0.0, 0.0)
    a = recursion_coeffs(schur_rows(gammas, 8).T, params, 8)
    members = np.abs(np.stack(np.broadcast_arrays(*a[1:]), axis=1))
    scale = members.max(axis=0)
    free = np.hstack([np.ones((40, 1)), rng.uniform(size=(40, 7)) * scale[1:]])
    for rows in (members, free):
        for m in range(1, 8):
            got = parseval_rhs(params, rows[:, :m])
            want = np.stack([parseval_rhs_per_n(zeta, alpha, rows, n)
                             for n in range(2, m + 2)], axis=1)
            assert got.dtype == want.dtype == rows.dtype
            assert np.array_equal(got, want), m


def test_parseval_rhs_validation():
    with pytest.raises(OutOfRange):
        parseval_rhs(Q_HALF, [])
    with pytest.raises(OutOfRange):
        parseval_rhs(Q_HALF, [0.9])
    # moduli are real numbers: no complex, bool or text entries; any real
    # precision is read as float64
    for abs_a in ([1.0, 0.5 + 0.5j], np.array([True, False]), ["1", "0.5"], [1.0, None]):
        with pytest.raises(OutOfRange, match="must hold real moduli"):
            parseval_rhs(Q_HALF, abs_a)
    # a modulus is finite and not negative: no NaN bound, and no bound built
    # from a negative "modulus"
    for abs_a in ([1.0, math.nan], [1.0, -3.0], [1.0, math.inf], [[1.0, 0.5], [1.0, -1e-300]]):
        with pytest.raises(OutOfRange, match="must hold finite moduli >= 0"):
            parseval_rhs(Q_HALF, abs_a)
    for abs_a in ([1, 2], np.array([1.0, 0.5], np.float32), np.array([1.0, 0.5], np.longdouble)):
        got = parseval_rhs(Q_HALF, abs_a)
        assert got.dtype == np.float64
        assert np.array_equal(got, parseval_rhs(Q_HALF, np.asarray(abs_a, dtype=float)))
    # zeta = -1: [2] - 1 = -1, [3] - 1 = 0; every divisor up to n is checked
    assert parseval_rhs(ClassParams(-1.0), [1.0])[0] == pytest.approx(2.0)
    with pytest.raises(DegenerateDivisor) as exc:
        parseval_rhs(ClassParams(-1.0), [1.0, 1.0, 1.0])
    assert exc.value.n == 3


# ----------------------------------------------------------------- cubic lemma


def test_cubic_bound_region_examples():
    assert not cubic_bound_region(0.0, 0.0)
    # the fekete pair at q = 0.5: (4, -5), first branch since -5 <= -10/3
    assert cubic_bound_region(4.0, -5.0)
    # the a4 pair at q = 0.5: (26/3, 55/3), second branch
    assert cubic_bound_region(26.0 / 3.0, 55.0 / 3.0)
    assert not cubic_bound_region(3.0, 10.0)  # |mu| < 4 on the upper branch
    # a NaN is refused, not read as outside the region
    for mu, nu in (("a", 0.0), (math.nan, 0.0), (0.0, math.inf), (True, -5.0), (4.0, 1j)):
        with pytest.raises(OutOfRange):
            cubic_bound_region(mu, nu)


def test_theorem_pairs_inside_region():
    for q in (0.2, 0.5, 0.8):
        assert cubic_bound_region(2.0 / q, -(q + 2.0) / q)
        mu = (4 + 4 * q + 2 * q * q) / (q * (1 + q))
        nu = (4 + 4 * q + 3 * q * q + q**3) / (q * q * (1 + q))
        assert cubic_bound_region(mu, nu)


def test_cubic_functional_values():
    assert schwarz_cubic_functional(0, 0, 0, 3.0, -4.0) == 0.0
    # w(z) = z: b = (1, 0, 0) gives exactly |nu|
    assert schwarz_cubic_functional(1.0, 0.0, 0.0, 2.5, -7.0) == 7.0


def test_cubic_functional_fuzz():
    rng = np.random.default_rng(2024)
    n = 100000
    b1 = rng.uniform(0.0, 1.0, size=n)
    x = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
    y = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
    keep = (np.abs(x) <= 1) & (np.abs(y) <= 1)
    b1, x, y = b1[keep], x[keep], y[keep]
    one_m = 1.0 - b1 * b1
    b2 = x * one_m
    b3 = one_m * ((1.0 - np.abs(x) ** 2) * y - b1 * x * x)
    for q in (0.2, 0.5, 0.8):
        pairs = [
            (2.0 / q, -(q + 2.0) / q),
            (
                (4 + 4 * q + 2 * q * q) / (q * (1 + q)),
                (4 + 4 * q + 3 * q * q + q**3) / (q * q * (1 + q)),
            ),
        ]
        for mu, nu in pairs:
            vals = schwarz_cubic_functional(b1, b2, b3, mu, nu)
            assert vals.max() <= abs(nu) + 1e-12


# ----------------------------------------------------------------- disk max


def test_disk_quadratic_closed_examples():
    assert disk_quadratic_max_closed(0.0, 0.0, 0.0) == 1.0
    assert disk_quadratic_max_closed(1.0, 0.0, 0.0) == 2.0
    # the numerator-placement triple: first branch sum
    got = disk_quadratic_max_closed(-5.0 / 27.0, 4.0 / 9.0, -6.40625)
    assert got == pytest.approx(5.0 / 27.0 + 4.0 / 9.0 + 6.40625, rel=1e-14)
    assert got == pytest.approx(7.035880, abs=1e-6)
    with pytest.raises(PreconditionViolated):
        disk_quadratic_max_closed(1.0, 0.5, -0.5)


def test_cks_disk_maximum_brackets_the_grid_and_extends_the_closed_form():
    # the oracle's Choi-Kim-Sugawa form in every branch, a c < 0 included:
    # never below the grid's lower bound, above it by no more than the grid's
    # resolution, and the closed form itself wherever a c >= 0
    rng = np.random.default_rng(31)
    branches = set()
    for i in range(800):
        a, b, c = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-1.0, 1.0, 3)
        if i % 2:
            c = -math.copysign(c, a)  # a c < 0
        y, branch = disk_quadratic_max_cks(a, b, c)
        branches.add(branch)
        grid = disk_quadratic_max_grid(a, b, c)
        assert -1e-12 * max(1.0, y) <= y - grid <= 5e-3, (a, b, c, branch)
        if a * c >= 0.0:
            assert y == disk_quadratic_max_closed(a, b, c)
    assert branches == {"ac>=0 edge", "ac>=0 r1", "ac<0 r1", "ac<0 r2", "R1", "R2", "R3"}


@pytest.mark.parametrize(
    "abc", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf),
            (1e308, 1e308, 0.0), ("1", 0, 0), (True, 0, 0), (0, 0, np.True_),
            (1j, 0, 0), (0, np.complex128(1), 0)]
)
def test_disk_quadratic_rejects_nonfinite(abc):
    # non-finite or non-real input (a bool or a str is not a real number), or
    # a maximum beyond double range
    with pytest.raises(OutOfRange):
        disk_quadratic_max_closed(*abc)
    with np.errstate(over="ignore"), pytest.raises(OutOfRange):
        disk_quadratic_max_grid(*abc)


def test_disk_quadratic_grid_examples():
    assert disk_quadratic_max_grid(0.0, 0.0, 0.0) == pytest.approx(1.0)
    assert disk_quadratic_max_grid(1.0, 0.0, 0.0) == pytest.approx(2.0)
    with pytest.raises(OutOfRange):
        disk_quadratic_max_grid(1.0, 0.0, 0.0, radial=32)
    # the resolutions take the integer rule; a numpy integer is read as int
    for radial, angular in ((64.5, 720), (True, 720), (256, 720.0), (256, "720")):
        with pytest.raises(OutOfRange, match="is not an integer"):
            disk_quadratic_max_grid(1, 1, 1, radial, angular)
    assert disk_quadratic_max_grid(1.0, 0.5, 0.0, np.int64(64), np.uint16(90)) == (
        disk_quadratic_max_grid(1.0, 0.5, 0.0, 64, 90))


#: (radial, angular) of the oracle comparisons: the smallest grid, odd and
#: even angular counts, and the default grid
_DISK_GRIDS = [(64, 64), (64, 65), (80, 72), (64, 721), (256, 720)]


def _disk_grid_shape(i):
    # the default grid and 64 x 721 cost most in the oracle, so appear least
    return _DISK_GRIDS[4 if i % 50 == 0 else 3 if i % 10 == 5 else i % 3]


def test_disk_quadratic_grid_equals_the_full_grid():
    # only the angles that can hold each circle's maximum are evaluated; the
    # oracle evaluates every grid point, and the two agree bit for bit
    rng = np.random.default_rng(2026)
    abc = rng.uniform(-2.0, 2.0, (5200, 3))
    abc[0::4, 2] = -np.sign(abc[0::4, 0]) * np.abs(abc[0::4, 2])  # a c < 0
    abc[1::4, 2] *= rng.uniform(1.0, 10.0, len(abc[1::4])) / np.abs(abc[1::4, 2])  # |c| > 1
    abc[2::4] *= 10.0 ** rng.uniform(-3.0, 3.0, abc[2::4].shape)  # unequal scales
    abc[3::8, rng.integers(0, 3)] = 0.0  # one coefficient zero
    assert np.count_nonzero(abc[:, 0] * abc[:, 2] < 0) > 1300
    assert np.count_nonzero(np.abs(abc[:, 2]) > 1.0) > 1300
    mismatches = []
    for i, (a, b, c) in enumerate(abc):
        radial, angular = _disk_grid_shape(i)
        got = disk_quadratic_max_grid(a, b, c, radial, angular)
        if got != disk_quadratic_max_full_grid(a, b, c, radial, angular):
            mismatches.append((a, b, c, radial, angular))
    assert mismatches == []


@pytest.mark.parametrize("abc", [
    (0.0, 0.0, 1.0), (0.0, 0.0, -0.3), (0.0, 0.0, 7.5), (1.0, 0.0, 0.0),
    (-2.5, 0.0, 0.0), (1e-300, 1.0, 1e300), (1e-12, 1e-12, 1e12), (3e8, 1e-9, 0.0),
])
def test_disk_quadratic_grid_on_circles_of_constant_modulus(abc):
    # with |a + b z + c z^2| (nearly) constant on each circle, rounding alone
    # picks the maximizing angle; the value then differs by a few ulp at most
    for i in range(len(_DISK_GRIDS)):
        radial, angular = _DISK_GRIDS[i]
        got = disk_quadratic_max_grid(*abc, radial, angular)
        full = disk_quadratic_max_full_grid(*abc, radial, angular)
        assert abs(got - full) <= 4.0 * np.spacing(max(1.0, abs(full)))


@pytest.mark.parametrize("abc", [
    (1e308, 1e308, 0.0), (0.0, 1e308, 1e308), (1e308, 0.0, -1e308), (-1e308, 1e308, 1e308),
    (1.7e308, 1e305, 0.0), (0.0, 0.0, 1.7e308), (1e200, -1e200, 1e308),
])
def test_disk_quadratic_grid_overflow_matches_the_full_grid(abc):
    # the grid raises exactly when some full-grid value overflows; c z^2
    # dominates the finite ones, so |f| is nearly constant on each circle
    with np.errstate(over="ignore"):
        full = disk_quadratic_max_full_grid(*abc)
    if math.isfinite(full):
        assert abs(disk_quadratic_max_grid(*abc) - full) <= 4.0 * np.spacing(full)
    else:
        with pytest.raises(OutOfRange):
            disk_quadratic_max_grid(*abc)


@pytest.mark.parametrize("abc", [(1j, 0.0, 0.0), (0.0, 1.0 + 0j, 0.0),
                                 (0.0, 0.0, np.complex64(1.0)), (1.0, np.complex128(2.0), 3.0)])
def test_disk_quadratic_grid_rejects_complex_input(abc):
    with pytest.raises(OutOfRange):
        disk_quadratic_max_grid(*abc)


# ----------------------------------------------------------------- h2 triple


def test_h2_quadratic_triple_known_values():
    t = h2_quadratic_triple(0.5, 0.5)
    assert t.a == pytest.approx(-5.0 / 27.0, rel=1e-14)
    assert t.b == pytest.approx(4.0 / 9.0, rel=1e-14)
    assert t.c == pytest.approx(-5.0 / 3.0, rel=1e-14)
    assert t.y == pytest.approx(62.0 / 27.0, rel=1e-14)
    # grid maximum brackets the closed value
    grid = disk_quadratic_max_grid(t.a, t.b, t.c)
    assert 0.0 <= t.y - grid <= 5e-3
    assert t.y == pytest.approx(2.2963, abs=5e-4)


def test_h2_quadratic_triple_identities_on_grid():
    # |a|+|b|+|c| equals the collapsed closed expression; the first branch of
    # the disk maximum always applies (ac > 0 and |b| >= 2(1-|c|))
    for q in np.linspace(0.02, 0.98, 50):
        for b1 in np.linspace(0.02, 0.98, 50):
            t = h2_quadratic_triple(q, b1)
            closed = (1 - q) * b1 / ((1 + q) * (1 - b1 * b1)) + (1 + q + q * q) / (
                b1 * (1 - b1 * b1) * (1 + q) ** 2
            )
            assert abs(t.y - closed) <= 1e-12 * max(1.0, closed)
            assert t.a * t.c > 0
            assert abs(t.b) - 2.0 * (1.0 - abs(t.c)) > 0
            assert disk_quadratic_max_closed(t.a, t.b, t.c) == t.y


def test_h2_quadratic_triple_boundary_limit():
    t = h2_quadratic_triple(0.5, 1.0 - 1e-6)
    assert t.c == pytest.approx(-1.0, abs=1e-5)
    with pytest.raises(OutOfRange):
        h2_quadratic_triple(0.5, 1.0)
    with pytest.raises(OutOfRange):
        h2_quadratic_triple(1.0, 0.5)
    for q, b1 in (("x", 0.5), (0.5, "0.5"), (True, 0.5), (0.5, math.nan), (0.5j, 0.5)):
        with pytest.raises(OutOfRange):
            h2_quadratic_triple(q, b1)


def test_numerator_placement_breaks_the_identities():
    # moving (1+q)^2 into the numerator of c fails the closed-form identity
    q, b1 = 0.5, 0.5
    c_wrong = -b1 - (1 + q + q * q) * (1 - b1 * b1) * (1 + q) ** 2 / b1
    t = h2_quadratic_triple(q, b1)
    wrong_sum = abs(t.a) + abs(t.b) + abs(c_wrong)
    closed = (1 - q) * b1 / ((1 + q) * (1 - b1 * b1)) + (1 + q + q * q) / (
        b1 * (1 - b1 * b1) * (1 + q) ** 2
    )
    assert abs(wrong_sum - closed) > 1.0


# ----------------------------------------------------------------- hypothesis


def test_product_bound_applies():
    assert product_bound_applies(Q_HALF, 12)
    assert not product_bound_applies(ClassParams(-1.0), 2)
    # 0.9i at alpha = 0.25 fails at k = 3: Re(1 + 0.9i - 0.81) = 0.19 < 0.25
    assert not product_bound_applies(ClassParams(0.9j, 0.25), 4)
    assert product_bound_applies(ClassParams(0.9j, 0.0), 8)
    assert product_bound_applies(ClassParams(-0.5, 0.25), 8)
    assert product_bound_applies(ClassParams(0.6 * cmath.exp(1j * math.pi / 4), 0.25), 8)
