from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chern.algebra import Element
from rank2chern.genfun import (
    BiPoly,
    BiRational,
    check_shift_symmetry,
    check_unimodality,
    chern_specialization_coefficients,
    closed_form_t_minus_one_matches,
    full_stack_telescoping_qt,
    intermediate_difference_matches,
    is_centered_unimodal,
    omega_closed_form,
    omega_closed_polynomial,
    omega_rank3,
    omega_stack,
    rank3_qt_series_nonnegative,
    rank3_t_minus_one_matches,
    stack_t_minus_one_matches,
    telescoping_identity,
    zagier_combinatorial_omega,
)


def test_bipoly_arithmetic_and_division():
    q = BiPoly.monomial(1, 0)
    t = BiPoly.monomial(0, 1)
    p = (1 + q * t) ** 2
    assert p.coeff(1, 1) == 2
    quotient = (1 - q**2).divide_exact(1 - q)
    assert quotient == 1 + q
    with pytest.raises(ValueError):
        (1 + q + t).divide_exact(1 - q)
    # substitution maps termwise: at t = 0 the t^0 terms stay (0^0 = 1) and
    # no zero coefficient is stored; terms that cancel leave no key; a
    # negative t-exponent has no value at 0
    p = 3 * q + 5 * q * t**2 + t - 2 * q**2
    assert p.subst_t(0).terms == {(1, 0): 3, (2, 0): -2}
    assert (q - q * t).subst_t(1).terms == {} and (q - t).subst_q_equals_t().terms == {}
    assert BiPoly({(1, -1): 2, (0, 1): 1}).subst_t(F(1, 2)).terms == {(1, 0): 4, (0, 0): F(1, 2)}
    with pytest.raises(ZeroDivisionError):
        BiPoly({(1, -1): 2, (0, 0): 1}).subst_t(0)


def test_birational_equality_cross_multiplication():
    q = BiPoly.monomial(1, 0)
    a = BiRational(1 - q**2, (1 - q) * (1 + q) ** 2)
    b = BiRational(BiPoly.one(), 1 + q)
    assert a == b
    c = BiRational(BiPoly.one(), 1 - q)
    assert not (a == c)


def test_closed_polynomial_g2():
    # 1 + q^2 (1 + 4t + t^2) + q^4 t^2
    poly = omega_closed_polynomial(2)
    assert poly.terms == {
        (0, 0): F(1),
        (2, 0): F(1),
        (2, 1): F(4),
        (2, 2): F(1),
        (4, 2): F(1),
    }
    # q = t gives the Poincare polynomial 1 + t^2 + 4t^3 + t^4 + t^6
    qt = poly.subst_q_equals_t()
    assert qt.terms == {(0, 0): F(1), (0, 2): F(1), (0, 3): F(4), (0, 4): F(1), (0, 6): F(1)}


def test_closed_form_division_is_exact_at_d0():
    for g in (2, 3, 4):
        f = omega_closed_form(g, 0)
        poly = f.num.divide_exact(f.den)
        assert (poly * f.den).terms == f.num.terms


def test_stack_formula_r2():
    f = omega_stack(2, 3)
    q = BiPoly.monomial(1, 0)
    t = BiPoly.monomial(0, 1)
    assert f.num == (1 + q**2 * t) ** 6
    assert f.den == (1 - q**2) * (1 - q**2 * t**2)


def test_shift_symmetry():
    for g in (2, 3, 5, 8):
        assert check_shift_symmetry(omega_stack(2, g), 2, g)
    for r in (3, 4, 5):
        assert check_shift_symmetry(omega_stack(r, 2), r, 2)
    for g in (2, 3, 8):
        assert check_shift_symmetry(omega_closed_form(g, 0), 2, g)
    for g in (2, 3, 5):
        assert check_shift_symmetry(omega_rank3(g), 3, g)


def test_shift_symmetry_fails_for_positive_d():
    assert not check_shift_symmetry(omega_closed_form(2, 1), 2, 2)
    assert not check_shift_symmetry(omega_closed_form(3, 2), 2, 3)


def test_t_minus_one_identities():
    for r in (2, 3, 4, 5):
        assert stack_t_minus_one_matches(r, 2)
    assert stack_t_minus_one_matches(2, 8)
    # r=2 specialization: (1-q^2)^(2g-2) for the stable closed form as well
    for g in (2, 3, 5):
        assert closed_form_t_minus_one_matches(g)
    for g in (2, 3):
        assert rank3_t_minus_one_matches(g)


def test_intermediate_t_minus_one_at_every_d():
    # the degree-d series differ, yet all specialize at t = -1 to (1-q^2)^(2g-2)
    for g in range(2, 6):
        for d in range(4):
            assert closed_form_t_minus_one_matches(g, d), (g, d)
        assert omega_closed_form(g, 1) != omega_closed_form(g, 0)


def test_rank3_stack_t_minus_one():
    # r=3 stack: (1-q^2)^(2g-2) (1+q^3)^(2g-2)
    g = 3
    f = omega_stack(3, g).subst_t(-1)
    q = BiPoly.monomial(1, 0)
    target = ((1 - q**2) * (1 + q**3)) ** (2 * g - 2)
    assert f.num.terms == (target * f.den).terms


def test_rank3_qt_series_nonnegative():
    assert rank3_qt_series_nonnegative(2)
    assert rank3_qt_series_nonnegative(3)


def test_zagier_sum():
    expected_g2 = {(0, 0): F(1), (2, 0): F(1), (2, 1): F(4), (2, 2): F(1), (4, 2): F(1)}
    assert zagier_combinatorial_omega(2).terms == expected_g2
    for g in (2, 3, 4, 6):
        assert zagier_combinatorial_omega(g).terms == omega_closed_polynomial(g).terms
    # q = t = 1 gives the total Betti number
    total = sum(zagier_combinatorial_omega(3).terms.values())
    from rank2chern.relations import omega_from_ideal

    assert total == sum(omega_from_ideal(3, 0).dims.values())


def test_unimodality():
    assert chern_specialization_coefficients(2) == [1, 6, 1]
    for g in (2, 3, 4, 8):
        assert check_unimodality(g)
    assert not is_centered_unimodal([1, 2, 1, 3, 1])
    assert is_centered_unimodal([1, 2, 2, 2, 1])


def test_telescoping_identities():
    for g in (2, 3, 5):
        assert telescoping_identity(g)
    for g in (2, 3):
        for d in (1, 2, 3):
            assert intermediate_difference_matches(g, d)
        for d in (0, 1, 2):
            assert full_stack_telescoping_qt(g, d)


def test_series_coefficients_match_polynomial_at_d0():
    g = 2
    f = omega_closed_form(g, 0)
    assert f.series_coefficients(10).terms == omega_closed_polynomial(g).terms


def test_series_coefficients_d1_low_order():
    # by hand: the d >= 1 series starts like the d = 0 polynomial and first
    # differs in q-degree 2g + 4d - 4
    g, d = 2, 1
    series = omega_closed_form(g, d).series_coefficients(6)
    poly = omega_closed_polynomial(g)
    for (i, j), v in poly.terms.items():
        if i + j <= 3:
            assert series.coeff(i, j) == v
    assert series.coeff(4, 0) == 1  # new stratum class at q^4


# ----------------------------------------------------------------------
# exact coefficients: int when integral, Fraction otherwise, never float

EXACT = settings(max_examples=80, deadline=None, derandomize=True, database=None)

SCALARS = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))
NONZERO = SCALARS.filter(bool)


def _bipolys(lo):
    keys = st.tuples(st.integers(lo, 3), st.integers(lo, 3))
    return st.dictionaries(keys, NONZERO, max_size=4).map(BiPoly)


def _exact(p: BiPoly) -> bool:
    return all(
        v.__class__ is int or (v.__class__ is F and v.denominator != 1) for v in p.terms.values()
    )


@EXACT
@given(x=_bipolys(-2), y=_bipolys(-2), c=SCALARS, v=NONZERO, n=st.integers(0, 4), i=st.integers(-2, 2))
def test_bipoly_results_hold_exact_coefficients(x, y, c, v, n, i):
    assert _exact(x) and _exact(y)
    results = [x + y, x - y, x * y, x**n, x.scale(c), c * x, x + c, x.reflect(3, i), x.shift(i, -i)]
    results.append(x.subst_t(v))
    if y:  # shifted to non-negative exponents: divide_exact is polynomial division
        x2, y2 = x.shift(2, 2), y.shift(2, 2)
        results.append((x2 * y2).divide_exact(y2))
        assert results[-1] == x2
    for r in results:
        assert _exact(r), r


@EXACT
@given(x=_bipolys(0), z=_bipolys(0), c0=NONZERO, top=st.integers(0, 6))
def test_bipoly_series_coefficients_hold_exact_coefficients(x, z, c0, top):
    den = BiPoly.const(c0) + z * BiPoly.monomial(1, 0)
    series = BiRational(x, den).series_coefficients(top)
    assert _exact(series)
    assert (series * den).truncate_total(top) == x.truncate_total(top)


def test_exact_division_and_ratios():
    q = BiPoly.monomial(1, 0)
    half = q.divide_exact(2 * q)
    assert half == F(1, 2) and half.terms == {(0, 0): F(1, 2)}
    assert (q + q).terms == {(1, 0): 2} and type((q * F(1, 2) + q * F(1, 2)).coeff(1, 0)) is int
    # 3q / ((3n+1) q^2) and q / (n q^2) differ, but the float ratios 1/3 and
    # n / (3n+1) of their numerators and denominators round to the same float
    n = 10**20
    a = BiRational(3 * q, (3 * n + 1) * q**2)
    b = BiRational(q, n * q**2)
    assert a != b and not (a == b)
    assert a == BiRational(6 * q, (6 * n + 2) * q**2)
    with pytest.raises(TypeError):
        BiPoly._raw(None, {(0, 0): 0.5})
    for bad in (lambda: (1 + q).subst_t(0.5), lambda: BiRational(q, 1 - q).subst_t(0.5)):
        with pytest.raises(TypeError, match="not an exact rational"):
            bad()
    assert BiRational((1 + q) * 2, 3 - 3 * q) == BiRational((1 + q) * 4, 6 - 6 * q)
    assert BiRational((1 + q) * 2, 3 - 3 * q) != BiRational((1 + q) * 4, 3 - 3 * q)


def test_birational_operands():
    # a BiRational combines with a BiRational or a BiPoly, and multiplies by
    # an int or Fraction; anything else is a TypeError
    q = BiPoly.monomial(1, 0)
    r = BiRational(q, 1 - q)
    assert r * 2 == 2 * r == r * BiPoly.const(2) == BiRational(2 * q, 1 - q)
    assert q * r == r * q == BiRational(q * q, 1 - q)
    assert r + q == BiRational(2 * q - q * q, 1 - q)
    assert r - r == BiRational(BiPoly.zero(), 1 - q) and r == BiRational(-q, q - 1)
    x = Element.alpha(2)
    for bad in (
        lambda: r * 0.5,
        lambda: 0.5 * r,
        lambda: r + 0.5,
        lambda: r - 0.5,
        lambda: r + 1,
        lambda: r * x,
        lambda: x * r,
        lambda: r + x,
    ):
        with pytest.raises(TypeError):
            bad()
    assert r != 0.5 and not (r == x)


def test_closed_forms_hold_int_coefficients():
    def ints(*polys):
        return all(type(v) is int for p in polys for v in p.terms.values())

    for g in range(2, 9):
        for r in range(2, 6):
            f = omega_stack(r, g)
            assert ints(f.num, f.den, f.subst_t(-1).num), (r, g)
        for d in range(4):
            f = omega_closed_form(g, d)
            assert ints(f.num, f.den, f.subst_t(-1).num, f.subst_q_equals_t().num), (g, d)
        assert ints(omega_closed_polynomial(g), zagier_combinatorial_omega(g)), g
        if g <= 5:
            f = omega_rank3(g)
            assert ints(f.num, f.den), g
