from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chern.algebra import Element, Sparse
from rank2chern.algebra import _accumulate as accumulate
from rank2chern.algebra import _exact as exact_rational
from rank2chern.genfun import (
    BiPoly,
    BiRational,
    check_shift_symmetry,
    check_unimodality,
    chern_specialization_coefficients,
    closed_form_t_minus_one_matches,
    full_stack_telescoping_qt,
    identities,
    intermediate_difference_matches,
    is_centered_unimodal,
    omega_closed_form,
    omega_closed_polynomial,
    omega_rank3,
    omega_stack,
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
        assert stack_t_minus_one_matches(omega_stack(r, 2), r, 2)
    assert stack_t_minus_one_matches(omega_stack(2, 8), 2, 8)
    # r=2 specialization: (1-q^2)^(2g-2) for the stable closed form as well
    for g in (2, 3, 5):
        assert closed_form_t_minus_one_matches(omega_closed_form(g), g)
    for g in (2, 3):
        assert rank3_t_minus_one_matches(omega_rank3(g), g)


def test_intermediate_t_minus_one_at_every_d():
    # the degree-d series differ, yet all specialize at t = -1 to (1-q^2)^(2g-2)
    for g in range(2, 6):
        for d in range(4):
            assert closed_form_t_minus_one_matches(omega_closed_form(g, d), g), (g, d)
        assert omega_closed_form(g, 1) != omega_closed_form(g, 0)


def test_rank3_stack_t_minus_one():
    # r=3 stack: (1-q^2)^(2g-2) (1+q^3)^(2g-2)
    g = 3
    f = omega_stack(3, g).subst_t(-1)
    q = BiPoly.monomial(1, 0)
    target = ((1 - q**2) * (1 + q**3)) ** (2 * g - 2)
    assert f.num.terms == (target * f.den).terms


def rank3_qt_series_nonnegative(g: int) -> bool:
    """q = t specialization of the rank-three formula expands with
    non-negative integer coefficients up to degree 16(g-1) (sanity
    property, not a theorem)."""
    series = omega_rank3(g).subst_q_equals_t().series_coefficients(16 * (g - 1))
    return all(v.denominator == 1 and v >= 0 for v in series.terms.values())


def test_rank3_qt_series_nonnegative():
    assert rank3_qt_series_nonnegative(2)
    assert rank3_qt_series_nonnegative(3)


# each closed form refuses, at entry, a bool, a float and the value just
# below its range: no float exponent and no bool read as 1
@pytest.mark.parametrize("bad, error", [(True, TypeError), (1.0, TypeError), (-1, ValueError)])
def test_omega_closed_form_refuses_a_d_that_is_no_degree(bad, error):
    with pytest.raises(error, match="d must be"):
        omega_closed_form(2, bad)


@pytest.mark.parametrize("bad, error", [(True, TypeError), (1.0, TypeError), (0, ValueError)])
def test_intermediate_difference_refuses_a_d_that_is_no_stratum(bad, error):
    with pytest.raises(error, match="d must be"):
        intermediate_difference_matches(2, bad)


@pytest.mark.parametrize("bad, error", [(True, TypeError), (2.5, TypeError), (1, ValueError)])
def test_omega_stack_refuses_a_rank_that_is_no_rank(bad, error):
    with pytest.raises(error, match="rank must be"):
        omega_stack(bad, 2)


# each genfun entry refuses, at entry, a genus that is no int or lies
# below its range; a bool genus is not read as 1
@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: check_unimodality(omega_closed_polynomial(2), -1), ValueError, id="unimodal-at--1"),
        pytest.param(lambda: check_unimodality(omega_closed_polynomial(2), 0), ValueError, id="unimodal-at-0"),
        pytest.param(lambda: identities("n21", True)["unimodal"](), TypeError, id="n21-at-True"),
        pytest.param(lambda: check_shift_symmetry(omega_stack(2, 2), 2, 2.0), TypeError, id="symmetry-at-2.0"),
        pytest.param(lambda: zagier_combinatorial_omega(-1), ValueError, id="zagier-at--1"),
        pytest.param(lambda: omega_stack(2, True), TypeError, id="stack-at-True"),
        pytest.param(lambda: omega_closed_form(1.0), TypeError, id="closed-at-1.0"),
        pytest.param(lambda: omega_rank3(-1), ValueError, id="rank3-at--1"),
    ],
)
def test_the_closed_forms_and_checks_refuse_a_genus_that_is_no_genus(call, error):
    with pytest.raises(error, match="genus must be"):
        call()


def test_shift_symmetry_refuses_a_rank_that_is_no_int():
    with pytest.raises(TypeError, match="rank must be"):
        check_shift_symmetry(omega_stack(2, 2), 2.0, 2)


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
    assert chern_specialization_coefficients(omega_closed_polynomial(2), 2) == [1, 6, 1]
    for g in (2, 3, 4, 8):
        assert check_unimodality(omega_closed_polynomial(g), g)
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


def _bipolys(lo, min_size=0, max_size=4):
    keys = st.tuples(st.integers(lo, 3), st.integers(lo, 3))
    return st.dictionaries(keys, NONZERO, min_size=min_size, max_size=max_size).map(BiPoly)


# the generic loops that the BiPoly kernels replaced, kept as oracles


def _subst_t_oracle(p: BiPoly, value) -> BiPoly:
    """t = value through the termwise map, one power per term."""
    value = exact_rational(value)

    def image(i, j):
        c = value**j if j >= 0 else F(1, value**-j)
        return {(i, 0): c} if c else {}

    return p._map(image)


def _pow_oracle(p: BiPoly, n: int) -> BiPoly:
    """Square-and-multiply, whatever the number of terms."""
    return Sparse.__pow__(p, n)


def _divide_oracle(num: BiPoly, den: BiPoly) -> BiPoly:
    """Laurent division that looks up the leading key with max every step;
    a quotient key below the operands' lowest degrees' difference means a
    remainder."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = dict(num.terms)
    lt_key = max(den.terms)
    lt_val = den.terms[lt_key]
    lo = [min((k[a] for k in rem), default=0) - min(k[a] for k in den.terms) for a in (0, 1)]
    quo = {}
    while rem:
        k = max(rem)
        qk = (k[0] - lt_key[0], k[1] - lt_key[1])
        if qk[0] < lo[0] or qk[1] < lo[1]:
            raise ValueError("division is not exact")
        c = quo[qk] = exact_rational(F(rem[k], lt_val))
        accumulate((((qk[0] + i, qk[1] + j), -c * v) for (i, j), v in den.terms.items()), rem)
    return BiPoly._raw(None, quo)


def _outcome(f, *args):
    """f(*args) as ("value", terms) or ("raises", the exception's type)."""
    try:
        return "value", f(*args).terms
    except (ValueError, ZeroDivisionError) as e:
        return "raises", type(e)


def _exact(p: BiPoly) -> bool:
    return all(
        v.__class__ is int or (v.__class__ is F and v.denominator != 1) for v in p.terms.values()
    )


@EXACT
@given(
    x=_bipolys(-2),
    y=_bipolys(-2),
    b=_bipolys(-2, 2, 2),
    c=SCALARS,
    v=NONZERO,
    n=st.integers(0, 6),
    i=st.integers(-2, 2),
)
def test_bipoly_results_hold_exact_coefficients(x, y, b, c, v, n, i):
    # b is a two-term base, which ** raises by the binomial theorem
    assert _exact(x) and _exact(y) and len(b.terms) == 2
    results = [x + y, x - y, x * y, x**n, b**n, x.scale(c), c * x, x + c, x.reflect(3, i), x.shift(i, -i)]
    results.append(x.subst_t(v))
    for p in (x, b, x * b):
        assert (p**n).terms == _pow_oracle(p, n).terms
        for t in (v, c):  # c may be 0, which a negative t-exponent refuses on both sides
            assert _outcome(p.subst_t, t) == _outcome(_subst_t_oracle, p, t)
    for num, den in ((x, y), (x * b, b), (b, x), (x * y + b, y)):  # exact, inexact and Laurent
        outcome = _outcome(num.divide_exact, den)
        assert outcome == _outcome(_divide_oracle, num, den)
        if outcome[0] == "value":
            assert BiPoly(outcome[1]) * den == num
    if x:  # every exact Laurent quotient comes back
        assert (x * b).divide_exact(b) == x and (x * b).divide_exact(x) == b
    if y:  # shifted to non-negative exponents: divide_exact is polynomial division
        x2, y2 = x.shift(2, 2), y.shift(2, 2)
        results.append((x2 * y2).divide_exact(y2))
        assert results[-1] == x2 and results[-1].terms == _divide_oracle(x2 * y2, y2).terms
        num, den = x2 * y2 + BiPoly.monomial(0, 0), y2 * BiPoly.monomial(1, 1)
        assert _outcome(num.divide_exact, den) == _outcome(_divide_oracle, num, den)
        if len(y.terms) > 1:  # den is no monomial, so no Laurent unit: a remainder
            with pytest.raises(ValueError, match="not exact"):
                num.divide_exact(den)
    for r in results:
        assert _exact(r), r


def test_only_a_commuting_two_term_base_takes_the_binomial_theorem():
    # psi's anticommute: (psi_1 + psi_2)^2 = 0, where the binomial theorem
    # would give 2 psi_1 psi_2
    assert (Element.psi(2, 1) + Element.psi(2, 2)) ** 2 == Element.zero(2)
    q, t = BiPoly.monomial(1, 0), BiPoly.monomial(0, 1)
    assert (q + t) ** 2 == q * q + 2 * q * t + t * t
    for bad, error in ((True, TypeError), (2.0, TypeError), (-1, ValueError)):
        for base in (q + t, q + t + 1, q):
            with pytest.raises(error, match="exponent must be"):
                base**bad


def test_the_genfun_battery_makes_a_bounded_number_of_products(monkeypatch):
    # a work count, not a time: square-and-multiply for the battery's
    # two-term powers made 2,183 products, the binomial theorem 668, and the
    # t = -1 checks by int evaluation leave 542, all outside those checks;
    # every battery form's shift is zero, so none is reflected
    import rank2chern.genfun as gf
    from rank2chern.suites import suite_genfun

    calls, in_checks, reflected = [], [], []
    honest_mul, honest_reflect = BiPoly.__mul__, BiPoly.reflect

    def counted(self, other):
        calls.append(1)
        return honest_mul(self, other)

    def reflect(self, *args):
        reflected.append(1)
        return honest_reflect(self, *args)

    for name in ("stack_t_minus_one_matches", "closed_form_t_minus_one_matches", "rank3_t_minus_one_matches"):

        def check(*args, honest=getattr(gf, name)):
            before = len(calls)
            try:
                return honest(*args)
            finally:
                in_checks.append(len(calls) - before)

        monkeypatch.setattr(gf, name, check)
    monkeypatch.setattr(BiPoly, "__mul__", counted)
    monkeypatch.setattr(BiPoly, "reflect", reflect)
    rep = suite_genfun()
    assert rep["cases"] == 123 and rep["pass"]
    assert 0 < len(calls) <= 560
    assert len(in_checks) == 39 and not any(in_checks)
    assert not reflected


@EXACT
@given(x=_bipolys(0), z=_bipolys(0), c0=NONZERO, top=st.integers(0, 6))
def test_bipoly_series_coefficients_hold_exact_coefficients(x, z, c0, top):
    den = BiPoly.const(c0) + z * BiPoly.monomial(1, 0)
    series = BiRational(x, den).series_coefficients(top)
    assert _exact(series)
    assert (series * den).truncate_total(top) == x.truncate_total(top)


def test_exact_division_and_ratios():
    q = BiPoly.monomial(1, 0)
    # an exact Laurent quotient, with a negative exponent on either side
    inv_q = BiPoly.monomial(-1, 0)
    assert inv_q.divide_exact(BiPoly.one()) == inv_q and (1 + inv_q).divide_exact(1 + q) == inv_q
    assert BiPoly.one().divide_exact(BiPoly.monomial(0, -1)) == BiPoly.monomial(0, 1)
    with pytest.raises(ValueError, match="not exact"):
        (1 + inv_q).divide_exact(1 - q)
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


def test_birational_sums_and_equality_in_both_orders():
    # a BiPoly on the left reaches the reflected BiRational operator
    q = BiPoly.monomial(1, 0)
    r = BiRational(q, 1 - q)
    assert q + r == r + q == BiRational(2 * q - q * q, 1 - q)
    assert q - r == -(r - q) == BiRational(-q * q, 1 - q)
    assert isinstance(q + r, BiRational) and isinstance(q - r, BiRational)
    assert BiPoly.one() == BiRational(BiPoly.one()) and BiRational(BiPoly.one()) == BiPoly.one()
    assert BiPoly.one() != BiRational(q) and BiRational(q) != BiPoly.one()
    assert not (q == BiRational(BiPoly.one(), 1 - q)) and not (BiRational(BiPoly.one(), 1 - q) == q)


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


@pytest.mark.parametrize("formula", ["stack", "n21", "intermediate", "rank3"])
def test_reading_the_catalogue_names_expands_no_closed_form(monkeypatch, formula):
    # the CLI reads only the names, before any check runs
    import rank2chern.genfun as gf

    def refuse(*args):
        raise AssertionError("closed form expanded")

    for name in ("omega_stack", "omega_closed_form", "omega_rank3"):
        monkeypatch.setattr(gf, name, refuse)
    for d in (0, 1):
        assert list(gf.identities(formula, 3, None, d))


def test_a_stack_catalogue_expands_its_series_once(monkeypatch):
    # so does the catalogue of every other closed form
    import rank2chern.genfun as gf

    built = []
    for name in ("omega_stack", "omega_closed_form", "omega_rank3"):
        honest = getattr(gf, name)

        def counted(*args, name=name, honest=honest):
            built.append((name, *args))
            return honest(*args)

        monkeypatch.setattr(gf, name, counted)
    catalogues = (
        ("stack", 3, {"symmetry", "tminus1"}, ("omega_stack", 3, 3)),
        ("n21", 2, {"symmetry", "tminus1", "unimodal", "zagier"}, ("omega_closed_form", 3, 0)),
        ("rank3", 3, {"symmetry", "tminus1"}, ("omega_rank3", 3)),
    )
    for formula, rank, names, form in catalogues:
        built.clear()
        checks = gf.identities(formula, 3, rank)
        assert not built
        assert all(check() for check in checks.values()), formula
        assert set(checks) == names and built == [form], formula


def test_stack_t_minus_one_refuses_a_perturbed_series():
    f = omega_stack(3, 2)
    assert stack_t_minus_one_matches(f, 3, 2)
    key = max(f.num.terms)
    bad = BiRational(f.num + BiPoly.monomial(*key), f.den)
    assert not stack_t_minus_one_matches(bad, 3, 2)


# ----------------------------------------------------------------------
# the t = -1 checks by one int evaluation and the mirrored symmetry pass,
# against the expanded checks they replaced, kept as oracles


def _stack_t_minus_one_oracle(f, r, g):
    f = f.subst_t(-1)
    target = BiPoly.one()
    for k in range(2, r + 1):
        target = target * (BiPoly.one() - BiPoly.monomial(k, 0, (-1) ** k)) ** (2 * g - 2)
    return f.num.terms == (target * f.den).terms


def _closed_form_t_minus_one_oracle(f, g):
    f = f.subst_t(-1)
    target = (BiPoly.one() - BiPoly.monomial(2, 0)) ** (2 * g - 2)
    return f.num.terms == (target * f.den).terms


def _rank3_t_minus_one_oracle(f, g):
    one_plus_t = BiPoly.one() + BiPoly.monomial(0, 1)
    lhs_num = f.num.divide_exact(one_plus_t).subst_t(-1)
    lhs_den = f.den.divide_exact(one_plus_t).subst_t(-1)
    if lhs_den.is_zero():
        return False
    target = ((BiPoly.one() - BiPoly.monomial(2, 0)) * (BiPoly.one() + BiPoly.monomial(3, 0))) ** (2 * g - 2)
    return lhs_num.terms == (target * lhs_den).terms


def _shift_symmetry_oracle(f, r, g):
    """Reflect, shift, and compare by BiRational equality."""
    A = (r + 2) * (r - 1) * (g - 1)
    B = r * (r - 1) * (g - 1)
    N, D = f.num, f.den
    if N.is_zero():
        return True
    dqn, dtn = N.max_q_degree(), N.max_t_degree()
    dqd, dtd = D.max_q_degree(), D.max_t_degree()
    sq = A - dqn + dqd
    st = B - dtn + dtd
    rev_n = N.reflect(dqn, dtn).shift(max(sq, 0), max(st, 0))
    rev_d = D.reflect(dqd, dtd).shift(max(-sq, 0), max(-st, 0))
    return f == BiRational(rev_n, rev_d)


def _verdict(check, *args):
    """check(*args) as ("value", verdict) or ("raises", the exception's type)."""
    try:
        return "value", check(*args)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        return "raises", type(e)


def _agree(f, formula, r, g):
    """Assert both routes give one verdict on f, and return it: (t = -1, symmetry)."""
    new, oracle = {
        "stack": (stack_t_minus_one_matches, _stack_t_minus_one_oracle),
        "closed": (closed_form_t_minus_one_matches, _closed_form_t_minus_one_oracle),
        "rank3": (rank3_t_minus_one_matches, _rank3_t_minus_one_oracle),
    }[formula]
    args = (f, r, g) if formula == "stack" else (f, g)
    tm1 = _verdict(new, *args)
    assert tm1 == _verdict(oracle, *args), (formula, r, g, f)
    sym = _verdict(check_shift_symmetry, f, r, g)
    assert sym == _verdict(_shift_symmetry_oracle, f, r, g), (formula, r, g, f)
    return tm1, sym


def _battery(max_r=5, max_g=8, ds=range(4)):
    """(form, formula, r, g, d) over the battery's closed forms."""
    out = [(omega_stack(r, g), "stack", r, g, 0) for r in range(2, max_r + 1) for g in range(2, max_g + 1)]
    out += [(omega_closed_form(g, d), "closed", 2, g, d) for g in range(2, max_g + 1) for d in ds]
    return out + [(omega_rank3(g), "rank3", 3, g, 0) for g in range(2, min(max_g, 5) + 1)]


def test_the_battery_forms_take_one_verdict_on_both_routes():
    for f, formula, r, g, d in _battery():
        # the degree-d series (d >= 1) is not symmetric
        assert _agree(f, formula, r, g) == (("value", True), ("value", not d)), (formula, r, g, d)


def test_perturbed_forms_take_one_verdict_on_both_routes():
    t = BiPoly.monomial(0, 1)
    tm1, sym = set(), set()
    for f, formula, r, g, _ in _battery(3, 3, (0,)):
        N, D = f.num, f.den
        top = (N.max_q_degree(), N.max_t_degree())
        forms = [BiRational(N, 2 * D)]
        for i, j in N.terms:
            unit = BiPoly.monomial(i, j)
            mirrored = BiPoly.monomial(top[0] - i, top[1] - j)
            forms += [BiRational(N + unit, D), BiRational(N - unit, D)]
            forms += [BiRational(N + 3 * unit * (1 + t), D), BiRational(N + unit + mirrored, D)]
        for i, j in D.terms:
            unit = BiPoly.monomial(i, j)
            forms += [BiRational(N, D + unit), BiRational(N, D - unit)]
        for h in forms:
            a, b = _agree(h, formula, r, g)
            tm1.add(a)
            sym.add(b)
    # both verdicts on both checks, and the raise of a rank-3 numerator
    # that 1 + t does not divide
    assert {("value", True), ("value", False), ("raises", ValueError)} <= tm1
    assert {("value", True), ("value", False)} <= sym


@EXACT
@given(
    y=_bipolys(-2, 1),
    z=_bipolys(-2),
    w=_bipolys(-2),
    pal=_bipolys(0, 1),
    sign=st.sampled_from([1, -1]),
    c=NONZERO,
    r=st.integers(2, 3),
    g=st.integers(0, 3),
    laurent=st.booleans(),
)
def test_fraction_and_laurent_forms_take_one_verdict_on_both_routes(y, z, w, pal, sign, c, r, g, laurent):
    one_plus_t = BiPoly.one() + BiPoly.monomial(0, 1)
    # t = -1: N = P D + (1 + t) z + w matches exactly when w(q, -1) = 0
    targets = {
        "stack": (r, [(1 - BiPoly.monomial(k, 0, (-1) ** k)) for k in range(2, r + 1)]),
        "closed": (2, [1 - BiPoly.monomial(2, 0)]),
        "rank3": (3, [1 - BiPoly.monomial(2, 0), 1 + BiPoly.monomial(3, 0)]),
    }
    for formula, (rank, bases) in targets.items():
        target = BiPoly.one()
        for base in bases:
            target = target * base ** max(2 * g - 2, 0)
        num, den = target * y + one_plus_t * z + w, y
        if formula == "rank3":
            num, den = num * one_plus_t, den * one_plus_t
        _agree(BiRational(num, den), formula, rank, g)
    # symmetry: a symmetric stack form times a common palindrome, scaled,
    # moved to negative exponents or perturbed
    f = omega_stack(r, max(g, 1))
    pal = pal + sign * pal.reflect(pal.max_q_degree(), pal.max_t_degree())
    pal = pal or BiPoly.one()
    shift = BiPoly.monomial(-1, -2) if laurent else BiPoly.one()
    _agree(BiRational(f.num * pal * shift * c + w, f.den * pal * shift), "stack", r, max(g, 1))


def test_a_carry_cannot_fake_a_t_minus_one_match():
    # N = 2^k and P D = q agree at q = 2^k: the evaluation point must lie
    # beyond every coefficient of N - P D
    q = BiPoly.monomial(1, 0)
    for k in range(1, 70):
        for f in (BiRational(BiPoly.const(2**k), q), BiRational(BiPoly.const(F(-(2**k), 3)), q * F(-1, 3))):
            assert not closed_form_t_minus_one_matches(f, 1) and not stack_t_minus_one_matches(f, 1, 1)
            assert not _closed_form_t_minus_one_oracle(f, 1)


def test_the_t_minus_one_checks_refuse_what_they_refused():
    q, t = BiPoly.monomial(1, 0), BiPoly.monomial(0, 1)
    with pytest.raises(ValueError, match="exponent must be"):  # 2g - 2 = -2
        closed_form_t_minus_one_matches(omega_closed_form(2), 0)
    with pytest.raises(ValueError, match="exponent must be"):
        stack_t_minus_one_matches(omega_stack(2, 2), 2, 0)
    with pytest.raises(ValueError, match="exponent must be"):
        rank3_t_minus_one_matches(omega_rank3(2), 0)
    with pytest.raises(TypeError, match="genus must be an int"):
        closed_form_t_minus_one_matches(omega_closed_form(2), 1.5)
    # a denominator that vanishes at t = -1
    for f in (BiRational(q, 1 + t), BiRational(q + q * t, (1 + t) * (1 - q))):
        with pytest.raises(ZeroDivisionError):
            closed_form_t_minus_one_matches(f, 2)
        with pytest.raises(ZeroDivisionError):
            stack_t_minus_one_matches(f, 2, 2)
    assert rank3_t_minus_one_matches(BiRational((1 + t) * q, (1 + t) ** 2), 2) is False
    assert rank3_t_minus_one_matches(BiRational((1 + t) * q, (1 + t) ** 2), 0) is False


def test_proportional_forms_are_equal_by_cross_multiplication():
    # (cN)/(cD) = N/D for every nonzero c, and (cN)/D = N/D only for c = 1
    q, t = BiPoly.monomial(1, 0), BiPoly.monomial(0, 1)
    for f in (omega_stack(2, 2), omega_rank3(2), BiRational(1 + q * t, 1 - q)):
        for c in (2, -1, F(1, 3), 3 - q * t):
            assert BiRational(c * f.num, c * f.den) == f and f == BiRational(f.num * c, f.den * c)
            assert BiRational(c * f.num, f.den) != f and f != BiRational(f.num * c, f.den)


def test_shift_symmetry_cross_multiplies_shifted_and_common_factor_forms():
    # the general path against the oracle: m f is symmetric two genera up
    # and f / m two genera down (shifts of either sign), and a common
    # factor p that is no palindrome defeats the mirrored pass
    q, t = BiPoly.monomial(1, 0), BiPoly.monomial(0, 1)
    p = 1 + 2 * q + 3 * t
    for r, g in ((2, 2), (3, 2), (2, 4)):
        m = BiPoly.monomial((r + 2) * (r - 1), r * (r - 1))
        f, h = omega_stack(r, g), omega_stack(r, g + 2)
        cases = [
            (BiRational(f.num * m, f.den), g + 2, True),
            (BiRational(h.num, h.den * m), g, True),
            (BiRational(f.num * m, f.den), g + 1, False),
            (BiRational(f.num * p, f.den * p), g, True),
            (BiRational(f.num * p * 2, f.den * p * 3), g, True),
            (BiRational(f.num * p + q, f.den * p), g, False),
            (BiRational(f.num * p, f.den * p), g + 1, False),
        ]
        for form, genus, want in cases:
            assert check_shift_symmetry(form, r, genus) is want, (r, g, genus)
            assert _shift_symmetry_oracle(form, r, genus) is want, (r, g, genus)
