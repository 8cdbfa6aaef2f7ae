import cmath
import math

import numpy as np
import pytest

from qstar import (
    ClassParams,
    DegenerateDivisor,
    DenominatorVanished,
    InvalidSchwarz,
    OutOfRange,
    SchurParams,
    SchwarzSeries,
    StarlikeFunction,
    canonical_schwarz,
    coeffs_from_schwarz,
    extremal_by_formula,
    extremal_product,
    membership_margin,
    schur_expand,
)
from qstar import starlike
from qstar.series import q_numbers
from qstar.starlike import recursion_coeffs

from _oracles import initial_coeffs_closed

Q_HALF = ClassParams(0.5)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def random_schwarz(rng, order=12, depth=4, real_b1=False):
    g = []
    while len(g) < depth:
        u, v = rng.uniform(-1, 1, size=2)
        if u * u + v * v <= 1.0:
            g.append(complex(u, v))
    if real_b1:
        g[0] = complex(abs(g[0]), 0.0)
    return schur_expand(SchurParams(tuple(g)), order)


# ----------------------------------------------------------------- recursion


def test_zero_schwarz_gives_identity():
    omega = SchwarzSeries(np.zeros(13))
    f = coeffs_from_schwarz(omega, Q_HALF, 12)
    assert f.coeff(1) == 1
    assert all(f.coeff(n) == 0 for n in range(2, 13))


def test_identity_schwarz_known_coefficients():
    f = coeffs_from_schwarz(canonical_schwarz("identity", 8), Q_HALF, 8)
    assert abs(f.coeff(2) - 4.0) <= 1e-12
    assert abs(f.coeff(3) - 40.0 / 3.0) <= 1e-12
    assert abs(f.coeff(4) - 880.0 / 21.0) <= 1e-12


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_a2_is_two_b1_over_q(q):
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = random_schwarz(rng)
        f = coeffs_from_schwarz(w, ClassParams(q), 6)
        assert abs(f.coeff(2) - 2.0 * w.coeff(1) / q) <= 1e-12


def test_recursion_matches_closed_initial_coeffs():
    rng = np.random.default_rng(2)
    for q in (0.3, 0.5, 0.9):
        for _ in range(50):
            w = random_schwarz(rng)
            f = coeffs_from_schwarz(w, ClassParams(q), 6)
            a2, a3, a4 = initial_coeffs_closed(w.coeff(1), w.coeff(2), w.coeff(3), q)
            assert abs(f.coeff(2) - a2) <= 1e-12 * max(1, abs(a2))
            assert abs(f.coeff(3) - a3) <= 1e-12 * max(1, abs(a3))
            assert abs(f.coeff(4) - a4) <= 1e-12 * max(1, abs(a4))


def test_recursion_rejects_invalid_schwarz():
    bad = [0, 0.5, 0.9] + [0] * 6  # fails the Schur test
    with pytest.raises(InvalidSchwarz):
        coeffs_from_schwarz(SchwarzSeries(bad), Q_HALF, 8)


@pytest.mark.parametrize("b1", [1.0, 1.0 - 1e-13])
def test_recursion_rejects_a_tail_after_a_unit_parameter(b1):
    # |b1| = 1 makes w = b1 z (Schwarz's lemma), so b4 = b5 = 0.5 cannot
    # follow; accepted, this w gave |a5| = 129.57 over the bound 128.51
    omega = SchwarzSeries((0, b1, 0, 0, 0.5, 0.5, 0, 0, 0))
    with pytest.raises(InvalidSchwarz):
        coeffs_from_schwarz(omega, Q_HALF, 8)


def test_recursion_rejects_a_nan_schwarz_coefficient():
    omega = SchwarzSeries((0, 0.5, complex(math.nan, 0.0), 0.1))
    with pytest.raises(InvalidSchwarz):
        coeffs_from_schwarz(omega, Q_HALF, 4)


def test_degenerate_divisor_at_minus_one():
    omega = canonical_schwarz("identity", 12)
    with pytest.raises(DegenerateDivisor) as exc:
        coeffs_from_schwarz(omega, ClassParams(-1.0), 12)
    assert exc.value.n == 3
    # order 2 stops before the degeneracy and works
    f = coeffs_from_schwarz(canonical_schwarz("identity", 2), ClassParams(-1.0), 2)
    assert abs(f.coeff(2) - (-2.0)) <= 1e-12  # 2 b1 / ([2] - 1) = 2 / (-1)


def test_a2_bound_on_random_samples():
    rng = np.random.default_rng(3)
    for q in (0.3, 0.7):
        for _ in range(100):
            f = coeffs_from_schwarz(random_schwarz(rng), ClassParams(q), 4)
            assert abs(f.coeff(2)) <= 2.0 / q + 1e-9


# ----------------------------------------------------------------- extremal


def test_extremal_product_known_values():
    f = extremal_product(Q_HALF, 6)
    assert abs(f.coeff(2) - 4.0) <= 1e-12
    assert abs(f.coeff(3) - 40.0 / 3.0) <= 1e-11
    assert abs(f.coeff(4) - 880.0 / 21.0) <= 1e-11


def test_extremal_product_normalization_and_range():
    assert extremal_product(ClassParams(0.7), 10).coeff(1) == 1
    with pytest.raises(OutOfRange):
        extremal_product(ClassParams(0.0), 6)
    with pytest.raises(OutOfRange):
        extremal_product(ClassParams(1.0), 6)


def test_extremal_product_koebe_limit():
    f = extremal_product(ClassParams(1.0 - 1e-6), 6)
    for n in range(1, 7):
        assert abs(abs(f.coeff(n)) - n) <= 1e-4 * n


@pytest.mark.parametrize("radius", [0.3, 0.9, 0.995, 0.999, 0.9999])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi - 0.03, math.pi - 0.01, math.pi])
@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_extremal_product_matches_formula_near_minus_one(radius, theta, alpha):
    # arg zeta just short of pi at |zeta| near 1 is the hardest case for the
    # product at order 64; the scale is extremal --self-check's max(|a_n|, 1)
    params = ClassParams(cmath.rect(radius, theta), alpha)
    prod = extremal_product(params, 64)
    form = extremal_by_formula(params, 64)
    for n in range(1, 65):
        assert abs(prod.coeff(n) - form.coeff(n)) <= 1e-10 * max(abs(form.coeff(n)), 1.0), n


def test_extremal_product_route_is_independent(monkeypatch):
    # extremal --self-check compares three routes; the product must not
    # borrow the q-numbers, the class weights, the recursion or the formula
    params = ClassParams(0.3 + 0.6j, 0.25)
    expected = extremal_product(params, 16)

    def forbidden(*args, **kwargs):
        raise AssertionError("the product route called another route")

    for name in ("q_numbers", "class_weights", "recursion_coeffs",
                 "coeffs_from_schwarz", "extremal_by_formula"):
        monkeypatch.setattr(starlike, name, forbidden)
    assert extremal_product(params, 16) == expected


def test_extremal_formula_examples():
    assert abs(extremal_by_formula(ClassParams(0.3), 2).coeff(2) - 2.0 / 0.3) <= 1e-12
    assert abs(extremal_by_formula(Q_HALF, 4).coeff(4) - 880.0 / 21.0) <= 1e-12
    # telescoping at zeta -> 1: prod k/(k-1) = n
    val = extremal_by_formula(ClassParams(1.0 - 1e-8), 5).coeff(5)
    assert abs(val - 5.0) <= 1e-5
    with pytest.raises(DegenerateDivisor):
        extremal_by_formula(ClassParams(-1.0), 5)


@pytest.mark.parametrize(
    "zeta", [0.5, 0.999, -0.5, 0.9j, 0.6 * cmath.exp(1j * math.pi / 4)]
)
@pytest.mark.parametrize("alpha", [0.0, 0.25])
def test_formula_running_product_bitwise(zeta, alpha):
    params = ClassParams(zeta, alpha)
    form = extremal_by_formula(params, 64)
    # reference: the literal product, each a_n multiplied out from k = 2,
    # with the divisor [k] - 1 written as zeta [k-1] (no cancellation)
    qn = [0j] + q_numbers(zeta, 64)
    for n in range(2, 65):
        acc = 1.0 + 0j
        for k in range(2, n + 1):
            acc *= ((1.0 - 2.0 * alpha) + qn[k - 1]) / (complex(zeta) * qn[k - 1])
        assert form.coeff(n) == extremal_by_formula(params, n).coeff(n) == acc


def test_formula_route_is_independent(monkeypatch):
    # extremal --self-check compares three routes; the formula must not
    # borrow either of the other two
    def forbidden(*args, **kwargs):
        raise AssertionError("the formula route called another route")

    monkeypatch.setattr(starlike, "recursion_coeffs", forbidden)
    monkeypatch.setattr(starlike, "coeffs_from_schwarz", forbidden)
    monkeypatch.setattr(starlike, "extremal_product", forbidden)
    extremal_by_formula(ClassParams(0.3 + 0.6j, 0.25), 16)


def test_recursion_kernel_complex_and_clongdouble_agree():
    rng = np.random.default_rng(2024)
    params = ClassParams(0.6 * cmath.exp(1j * math.pi / 4), 0.25)
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, 5) ** 0.5 * np.exp(2j * np.pi * rng.uniform(size=5))
        b = schur_expand(SchurParams(tuple(complex(v) for v in u)), 8).coeffs
        lo = recursion_coeffs(b, params, 8, complex)
        hi = recursion_coeffs(b, params, 8, np.clongdouble)
        for x, y in zip(lo, hi):
            assert abs(complex(x) - complex(y)) <= 1e-12 * max(1.0, abs(complex(y)))


def test_recursion_kernel_rows_match_the_scalar_loop():
    # one numpy operation per term over all rows (the transposed rows are
    # b_0, b_1, ...); the reference is the scalar loop, one row at a time
    params = ClassParams(0.6 * cmath.exp(1j * math.pi / 4), 0.25)
    qn = q_numbers(params.zeta, 16)
    dv = [0j] + [params.zeta * qn[k - 1] for k in range(1, 16)]  # [k+1] - 1
    rng = np.random.default_rng(7)
    b = np.array([random_schwarz(rng, order=16).coeffs for _ in range(30)])
    for dtype, tol in ((complex, 1e-13), (np.clongdouble, 1e-16)):
        a = recursion_coeffs(b.T, params, 16, dtype)
        rows = np.stack(np.broadcast_arrays(*a), axis=1)
        assert rows.shape == (30, 17) and rows.dtype == dtype
        for row, bb in zip(rows, b):
            w = [dtype(1.0 - 2.0 * params.alpha) + dtype(v) for v in qn]
            a = [dtype(0), dtype(1)]
            for n in range(2, 17):
                acc = dtype(0)
                for k in range(1, n):
                    acc = acc + dtype(bb[n - k]) * w[k - 1] * a[k]
                a.append(acc / dtype(dv[n - 1]))
            for x, y in zip(row, a):
                assert abs(x - y) <= tol * max(1.0, abs(y))


def test_recursion_kernel_broadcasts_scalar_and_array_coefficients():
    # one member per grid point: a scalar b1 against arrays b2, b3
    params = ClassParams(0.5)
    b2 = np.linspace(-0.5, 0.5, 3)[:, None]
    b3 = b2 * np.array([0.1j, -0.2, 0.3])
    a = recursion_coeffs((0.0, 0.6, b2, b3), params, 4)
    # a_n has the shape of the b_k it reads, so a2 stays a scalar
    assert [np.shape(v) for v in a] == [(), (), (), (3, 1), (3, 3)]
    assert a[0] == 0 and a[1] == 1 and a[2] == 2.0 * 0.6 / 0.5
    a = np.broadcast_arrays(*a)
    for i in range(3):
        for j in range(3):
            one = recursion_coeffs((0.0, 0.6, b2[i, 0], b3[i, j]), params, 4)
            assert [complex(v[i, j]) for v in a] == [complex(v) for v in one]


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
def test_recursion_kernel_tuple_and_array_inputs_agree_bitwise(dtype):
    params = ClassParams(0.6 * cmath.exp(1j * math.pi / 4), 0.25)
    b = random_schwarz(np.random.default_rng(5), order=12).coeffs
    from_array = recursion_coeffs(b, params, 12, dtype)
    from_tuple = recursion_coeffs(tuple(complex(v) for v in b), params, 12, dtype)
    assert all(np.shape(v) == () for v in from_array)
    assert all(x == y for x, y in zip(from_array, from_tuple))
    assert np.array(from_array).dtype == dtype


def test_nonfinite_coefficients_rejected():
    with pytest.raises(OutOfRange):
        StarlikeFunction.from_coeffs([1.0, complex(math.nan, 0.0)], Q_HALF)
    # a_64 of the extremal at q = 1e-11 is ~ (2/q)^63, beyond double range
    with pytest.raises(OutOfRange):
        extremal_by_formula(ClassParams(1e-11), 64)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_three_way_agreement(q):
    params = ClassParams(q)
    rec = coeffs_from_schwarz(canonical_schwarz("identity", 12), params, 12)
    prod = extremal_product(params, 12)
    form = extremal_by_formula(params, 12)
    for n in range(2, 13):
        assert rel_close(rec.coeff(n), prod.coeff(n), 1e-9)
        assert rel_close(rec.coeff(n), form.coeff(n), 1e-9)
        assert rel_close(prod.coeff(n), form.coeff(n), 1e-9)


def test_extremal_product_complex_and_alpha():
    params = ClassParams(0.6 * cmath.exp(1j * math.pi / 4), 0.25)
    rec = coeffs_from_schwarz(canonical_schwarz("identity", 8), params, 8)
    prod = extremal_product(params, 8)
    form = extremal_by_formula(params, 8)
    for n in range(2, 9):
        assert rel_close(rec.coeff(n), prod.coeff(n), 1e-11)
        assert rel_close(rec.coeff(n), form.coeff(n), 1e-11)


# ----------------------------------------------------------------- rotation


def test_rotation_of_schwarz_rotates_coefficients():
    # if f comes from w(z), then e^{-it} f(e^{it} z) comes from w(e^{it} z)
    # (coefficients b_n e^{int}) and has coefficients a_n e^{i(n-1)t}
    rng = np.random.default_rng(7)
    theta = math.pi / 2
    ph = cmath.exp(1j * theta)
    for _ in range(100):
        w = random_schwarz(rng, order=8)
        rotated_w = SchwarzSeries(
            tuple(c * ph**k for k, c in enumerate(w.coeffs.tolist()))
        )
        f = coeffs_from_schwarz(w, Q_HALF, 8)
        g = coeffs_from_schwarz(rotated_w, Q_HALF, 8)
        for n in range(1, 9):
            fr = f.coeff(n) * ph ** (n - 1)
            assert abs(g.coeff(n) - fr) <= 1e-12 * max(1, abs(g.coeff(n)))


# ----------------------------------------------------------------- membership


def test_membership_identity_function():
    for alpha in (0.0, 0.25):
        f = StarlikeFunction.from_coeffs([1], ClassParams(0.5, alpha))
        margin = membership_margin(f)
        assert abs(margin - (1.0 - alpha)) <= 1e-12


def test_membership_extremal_q_half():
    # the series converges for |z| < 1/3 (pole at zeta/s), so sample inside
    # it, where the exact minimum of Re((1 + z)/(1 - z)) is (1 - r)/(1 + r)
    f = extremal_product(Q_HALF, 64)
    r_max = (0.5 / (2.0 - 0.5)) / 2.0
    margin = membership_margin(f, r_max=r_max)
    assert margin >= -1e-6
    assert abs(margin - (1.0 - r_max) / (1.0 + r_max)) <= 1e-9


def test_membership_flags_perturbed_function():
    f = StarlikeFunction.from_coeffs([1, 10.0], Q_HALF)
    assert membership_margin(f) < 0


def test_membership_denominator_vanished():
    # a_2 = 10 puts a zero of f at z = -0.1; steer the grid onto it
    f = StarlikeFunction.from_coeffs([1, 10.0], Q_HALF)
    with pytest.raises(DenominatorVanished):
        membership_margin(f, r_max=0.96, radial_steps=48, angular_steps=360)


def _polar_grid(r_max, radial=48, angular=360):
    # the points membership_margin samples
    radii = np.linspace(r_max / radial, r_max, radial)
    angles = 2.0 * np.pi * np.arange(angular) / angular
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _assert_horner_is_polyval(rows, z):
    got = starlike._horner(rows, z)
    assert got.shape == (len(rows), len(z))
    for row, values in zip(rows, got):
        want = np.polynomial.polynomial.polyval(z, row)
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64))


def test_horner_is_polyval_bitwise_on_random_rows():
    rng = np.random.default_rng(9)
    z = _polar_grid(0.95, 12, 90)
    for n in (1, 2, 3, 8, 33, 64):
        rows = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        _assert_horner_is_polyval(rows * 10.0 ** rng.uniform(-8, 8, (3, 1)), z)


def test_horner_is_polyval_bitwise_on_the_criterion_9_inputs():
    # the order-64 extremals at half their radius of convergence, and the
    # perturbed polynomial z + 10 z^2 at r_max = 0.95
    cases = [(extremal_product(ClassParams(q), 64), q / (2.0 - q) / 2.0) for q in (0.5, 0.8)]
    cases.append((StarlikeFunction.from_coeffs([1, 10.0], Q_HALF), 0.95))
    for f, r_max in cases:
        a = f.coeffs[1:]
        qn = np.asarray(q_numbers(f.params.zeta, f.order), dtype=complex)
        _assert_horner_is_polyval(np.stack([qn * a, a]), _polar_grid(r_max))


def test_membership_input_validation():
    f = StarlikeFunction.from_coeffs([1], Q_HALF)
    with pytest.raises(OutOfRange):
        membership_margin(f, r_max=1.5)


# ----------------------------------------------------------------- type


def test_starlike_function_invariants():
    with pytest.raises(OutOfRange):
        StarlikeFunction([0, 2.0, 0, 0], Q_HALF)
    with pytest.raises(OutOfRange):
        StarlikeFunction([1, 1.0, 0, 0], Q_HALF)
    f = StarlikeFunction.from_coeffs([1, 0.5j], Q_HALF)
    assert f.coeff(2) == 0.5j


@pytest.mark.parametrize("make", [
    lambda c: SchwarzSeries(c),
    lambda c: StarlikeFunction(c, Q_HALF),
])
def test_coefficient_classes_are_values(make):
    data = np.array([0, 1, 0.25 - 0.5j, 0.125])
    obj = make(data)
    # read-only, and a copy of the caller's array
    with pytest.raises(ValueError):
        obj.coeffs[2] = 0.0
    data[2] = 9.0
    assert obj.coeff(2) == 0.25 - 0.5j and type(obj.coeff(2)) is complex
    # == is value equality; list, tuple and array inputs build equal objects
    values = [0, 1, 0.25 - 0.5j, 0.125]
    assert obj == make(values) == make(tuple(values)) == make(np.array(values))
    assert obj != make(values + [0])
    assert obj != make([0, 1, 0.25 - 0.5j, 0.0])


def test_starlike_equality_compares_the_class():
    f = StarlikeFunction.from_coeffs([1, 0.5], Q_HALF)
    assert f == StarlikeFunction([0, 1, 0.5], Q_HALF)
    assert f != StarlikeFunction([0, 1, 0.5], ClassParams(0.5, 0.25))
    assert f != SchwarzSeries([0, 1, 0.5])
