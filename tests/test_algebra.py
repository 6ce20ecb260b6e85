import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank2chern.algebra import (
    Bidegree,
    Element,
    ElementParseError,
    chern_filter_basis,
    d_alpha,
    d_beta,
    d_psi,
    format_element,
    gamma,
    gamma_power,
    indices_of,
    mask_of,
    monomial_basis,
    monomial_bidegree,
    parse_element,
    theta,
    theta_power,
)
from rank2chern.genfun import BiPoly
from rank2chern.series import InvariantPoly

LAWS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COEFFS = st.fractions(-4, 4, max_denominator=3).filter(bool)


def _keys(*ranges):
    return st.tuples(*(st.integers(lo, hi) for lo, hi in ranges))


def _values(keys, build):
    return st.dictionaries(keys, COEFFS, max_size=4).map(build)


# small random values of each sparse class; gamma^3 keys are truncated away
# at genus 2, and BiPoly keys may be negative (Laurent)
VALUES = {
    "Element": _values(_keys((0, 2), (0, 2), (0, 15)), lambda t: Element(2, t)),
    "InvariantPoly": _values(_keys((0, 2), (0, 2), (0, 3)), lambda t: InvariantPoly(2, t)),
    "BiPoly": _values(_keys((-2, 3), (-2, 3)), BiPoly),
}
ONE = {"Element": Element.one(2), "InvariantPoly": InvariantPoly.one(2), "BiPoly": BiPoly.one()}
MONOMIAL_KEYS = _keys((0, 2), (0, 1), (0, 15))
MONOMIALS = st.builds(lambda k, c: Element.monomial(2, *k, c), MONOMIAL_KEYS, COEFFS)


def A(g):
    return Element.alpha(g)


def B(g):
    return Element.beta(g)


def P(g, i):
    return Element.psi(g, i)


# ----------------------------------------------------------------------
# multiplication


def test_psi_anticommute():
    g = 2
    assert P(g, 2) * P(g, 1) == -(P(g, 1) * P(g, 2))


def test_psi_squares_to_zero():
    g = 2
    assert (P(g, 1) * P(g, 1)).is_zero()


def test_gamma_square_g2():
    # gamma = -2(psi1 psi3 + psi2 psi4); expanding with Koszul signs gives
    # gamma^2 = -8 psi1 psi2 psi3 psi4  (both cross terms sort with sign -1)
    g = 2
    gm = gamma(g)
    assert gm == -2 * (P(g, 1) * P(g, 3)) - 2 * (P(g, 2) * P(g, 4))
    expected = Element.monomial(g, 0, 0, mask_of([1, 2, 3, 4]), -8)
    assert gm * gm == expected


def test_genus_mismatch_raises():
    with pytest.raises(ValueError):
        A(2) * A(3)


def test_gamma_definition_and_nilpotency():
    assert gamma(2) == parse_element("-2 psi1 psi3 - 2 psi2 psi4", 2)
    assert gamma(2).bidegree() == Bidegree(6, 4)
    assert (gamma(2) ** 3).is_zero()
    g3 = gamma(3)
    assert len(g3.terms) == 3
    assert all(c == F(-2) for c in g3.terms.values())
    for g in (2, 3, 4):
        assert gamma_power(g, g + 1).is_zero()
        assert not gamma_power(g, g).is_zero()


# ----------------------------------------------------------------------
# gradings


def test_bidegree_examples():
    g = 2
    assert (A(g) ** 2 * B(g)).bidegree() == Bidegree(8, 6)
    assert (A(g) * B(g)).bidegree() == Bidegree(6, 4)
    assert (A(g) + B(g)).bidegree() is None


def test_degree_cone_over_all_monomials():
    # chern <= coh <= 2 chern; left equality only for alpha powers, right
    # equality only for beta powers
    g = 3
    for coh in range(0, 13):
        for mono in chern_filter_basis(g, coh, 2 * coh):
            a, b, mask = mono
            bd = Element.monomial(g, *mono).bidegree()
            assert bd.chern <= bd.coh <= 2 * bd.chern or bd == (0, 0)
            if bd.coh == bd.chern and bd.coh > 0:
                assert b == 0 and mask == 0
            if bd.coh == 2 * bd.chern and bd.coh > 0:
                assert a == 0 and mask == 0


@LAWS
@given(mx=MONOMIALS, my=MONOMIALS)
def test_bidegree_additivity_and_algebra_laws(mx, my):
    prod = mx * my
    if not prod.is_zero():
        bx, by = mx.bidegree(), my.bidegree()
        assert prod.bidegree() == Bidegree(bx.coh + by.coh, bx.chern + by.chern)
    # super-commutativity: monomials commute up to the Koszul sign
    sign = -1 if mx.bidegree().coh % 2 and my.bidegree().coh % 2 else 1
    assert mx * my == (my * mx) * sign


@pytest.mark.parametrize("kind", VALUES)
@LAWS
@given(data=st.data())
def test_ring_laws(kind, data):
    x, y, z = (data.draw(VALUES[kind]) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert (x - x).is_zero() and not (x - x)
    assert x + (-x) == x - x
    assert 2 * x == x * 2 == x + x == x.scale(2)
    assert (0 * x).is_zero()


@pytest.mark.parametrize("kind", VALUES)
@LAWS
@given(data=st.data(), n=st.integers(0, 6))
def test_power_is_repeated_product(kind, data, n):
    x = data.draw(VALUES[kind])
    expected = ONE[kind]
    for _ in range(n):
        expected = expected * x
    assert x**n == expected


def _exact_form(v) -> bool:
    """The one coefficient rule: an int when integral, a Fraction otherwise."""
    return v.__class__ is int or (v.__class__ is F and v.denominator != 1)


@pytest.mark.parametrize("kind", ["Element", "InvariantPoly"])
@LAWS
@given(data=st.data(), c=st.one_of(st.integers(-3, 3), COEFFS), n=st.integers(0, 3))
def test_algebra_coefficients_hold_the_exact_form(kind, data, c, n):
    # the rule BiPoly keeps too (tests/test_genfun.py)
    x, y = (data.draw(VALUES[kind]) for _ in range(2))
    for r in (x, x + y, x - y, x * y, x**n, x.scale(c), c * x, ONE[kind]):
        assert all(_exact_form(v) for v in r.terms.values()), r


def test_floats_are_refused_where_coefficients_are_built():
    x = Element.alpha(2)
    builders = (
        lambda: Element(2, {(0, 0, 0): 0.5}),
        lambda: Element.monomial(2, 0, 0, 0, 0.1),
        lambda: InvariantPoly(2, {(0, 0, 0): 0.5}),
        lambda: InvariantPoly.monomial(2, 0, 0, 0, 0.1),
        lambda: BiPoly({(0, 0): 0.1}),
        lambda: BiPoly.const(0.5),
        lambda: BiPoly.monomial(1, 0, 0.5),
        lambda: x.scale(0.5),
        lambda: Element._raw(2, {(0, 0, 0): 0.5}),
    )
    for build in builders:
        with pytest.raises(TypeError, match="not an exact rational"):
            build()
    p, q = InvariantPoly.monomial(2, 1, 0, 0), BiPoly.monomial(1, 0)
    for bad in (lambda: x * 0.5, lambda: 0.5 * x, lambda: p * 0.5, lambda: q * 0.5, lambda: 0.5 * q):
        with pytest.raises(TypeError):
            bad()


@LAWS
@given(s=st.integers(0, 63), t=st.integers(0, 63))
def test_koszul_sign_of_psi_products(s, t):
    prod = Element.monomial(3, 0, 0, s) * Element.monomial(3, 0, 0, t)
    if s & t:
        assert prod.is_zero()
        return
    seq = indices_of(s) + indices_of(t)
    inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1 :])
    assert prod == Element.monomial(3, 0, 0, s | t, (-1) ** inversions)


def test_operand_types():
    x = Element.alpha(2)
    for bad in (lambda: x + 3, lambda: 3 - x, lambda: x + InvariantPoly.one(2)):
        with pytest.raises(TypeError):
            bad()
    assert x != 1 and x != InvariantPoly.monomial(2, 1, 0, 0)
    q = BiPoly.monomial(1, 0)
    assert 1 + q == q + 1 == BiPoly({(0, 0): 1, (1, 0): 1})
    assert 1 - q == -(q - 1)
    assert BiPoly.const(3) == 3


def test_equality_with_an_uncoercible_operand_is_false_in_both_orders():
    # __eq__ leaves such an operand to the reflected side, and both sides decline
    x, p, b = Element.alpha(2), InvariantPoly.monomial(2, 1, 0, 0), BiPoly.const(1)
    for u, v in ((x, p), (b, 1.0), (x, b), (p, b), (x, "alpha")):
        assert not (u == v) and not (v == u) and u != v and v != u
    assert InvariantPoly.one(2) != Element.one(2) and BiPoly.one() == 1 == BiPoly.one()


def test_products_and_sums_across_sparse_classes_are_refused():
    # each class multiplies only its own class and int or Fraction scalars:
    # alpha * psi1 at g = 3 must not come back as alpha * gamma
    x, p, q = Element.psi(3, 1), InvariantPoly.monomial(3, 1, 0, 0), BiPoly.monomial(1, 0)
    for u, v in ((p, x), (x, p), (q, x), (x, q), (p, q), (q, p)):
        for bad in (lambda: u * v, lambda: u + v, lambda: u - v):
            with pytest.raises(TypeError):
                bad()
    assert p * F(1, 2) == F(1, 2) * p == InvariantPoly.monomial(3, 1, 0, 0, F(1, 2))
    assert x * 2 == 2 * x == Element.monomial(3, 0, 0, 1, 2)


def test_repr_names_every_exponent():
    assert repr(InvariantPoly(3, {(1, 0, 2): F(1, 2), (0, 1, 0): -3})) == (
        "InvariantPoly(-3*a^0b^1g^0 + 1/2*a^1b^0g^2)"
    )
    assert repr(BiPoly({(1, 2): 3, (0, -1): F(2, 3)})) == "BiPoly(2/3*q^0t^-1 + 3*q^1t^2)"
    assert repr(InvariantPoly.zero(2)) == "InvariantPoly(0)" and repr(BiPoly()) == "BiPoly(0)"
    assert repr(Element.alpha(2) - 1 * Element.beta(2)) == "Element(g=2, alpha - beta)"


def test_constructors_reject_invalid_keys():
    for key in ((-1, 0, 0), (0, -1, 0), (0, 0, 1 << 4), (0, 0, 1 << 10), (0, 0, -1)):
        with pytest.raises(ValueError):
            Element.monomial(2, *key)
        with pytest.raises(ValueError):
            Element(2, {key: 1})
    assert Element.monomial(2, 0, 0, 1 << 3) == P(2, 4)
    assert Element.monomial(3, 0, 0, 1 << 5) == P(3, 6)


def test_nilpotent_power_exits_early():
    start = time.perf_counter()
    assert parse_element("psi1^3000000", 2).is_zero()
    assert (gamma(3) ** 10**9).is_zero()
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError):
        A(2) ** -1
    # a bool is no exponent (no ** True read as ** 1), nor is a float
    for bad in (True, False, 2.0):
        with pytest.raises(TypeError, match="exponent must be an int"):
            A(2) ** bad


# ----------------------------------------------------------------------
# derivations


def test_derive_examples():
    g = 2
    assert d_psi(P(g, 1) * P(g, 2), 1) == P(g, 2)
    assert d_psi(P(g, 1) * P(g, 2), 2) == -P(g, 1)
    assert d_alpha(A(g) ** 2 * B(g)) == 2 * (A(g) * B(g))
    assert d_beta(A(g) ** 2 * B(g)) == A(g) ** 2
    with pytest.raises(ValueError):
        d_psi(A(g), 9)


def test_a_psi_index_or_power_that_is_no_int_is_refused_at_entry():
    # a bool is not read as 1 and a float not as its int, even when the
    # int's value is memoised
    assert gamma_power(2, 1) == gamma(2) and theta_power(2, 2) == theta(2) ** 2
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="gamma power must be an int"):
            gamma_power(2, bad)
    with pytest.raises(TypeError, match="theta power must be an int"):
        theta_power(2, 2.0)
    with pytest.raises(ValueError, match="gamma power must be >= 0"):
        gamma_power(2, -1)
    x = P(2, 1) * P(2, 2)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=r"psi index must be in \[1, 4\]"):
            Element.psi(2, bad)
        with pytest.raises(ValueError, match=r"psi index must be in \[1, 4\]"):
            d_psi(x, bad)


def test_d_psi_refuses_an_index_outside_1_to_2g():
    for g in (2, 3):
        x = P(g, 1) * P(g, 2) + A(g)
        for i in (-1, 0, 2 * g + 1):
            with pytest.raises(ValueError, match="psi index"):
                d_psi(x, i)
        assert d_psi(x, 2 * g).is_zero() and d_psi(x, 1) == P(g, 2)


@LAWS
@given(key=MONOMIAL_KEYS, y=MONOMIALS, i=st.integers(1, 4))
def test_super_leibniz(key, y, i):
    hx = Element.monomial(2, *key)
    sign = -1 if hx.bidegree().coh % 2 else 1
    lhs = d_psi(hx * y, i)
    rhs = d_psi(hx, i) * y + sign * (hx * d_psi(y, i))
    assert lhs == rhs


# ----------------------------------------------------------------------
# slice enumeration


def test_monomial_basis_examples():
    assert monomial_basis(2, (4, 4)) == [(2, 0, 0)]
    assert monomial_basis(2, (3, 2)) == [(0, 0, 1), (0, 0, 2), (0, 0, 4), (0, 0, 8)]
    assert monomial_basis(2, (1, 1)) == []
    assert monomial_basis(2, (-1, 2)) == []


def test_chern_filter_basis_examples():
    assert chern_filter_basis(2, 4, 2) == [(0, 1, 0)]
    assert sorted(chern_filter_basis(2, 4, 4)) == [(0, 1, 0), (2, 0, 0)]
    assert chern_filter_basis(2, 0, 0) == [(0, 0, 0)]


def test_chern_filter_matches_brute_force():
    # every (a, b, psi mask) with 2a + 4b + 3s = coh, kept when 2(a + b + s) <= ell
    for g in (2, 3):
        for coh in range(-1, 13):
            for ell in range(-1, 2 * coh + 2):
                want = []
                for mask in range(1 << (2 * g)):
                    s = mask.bit_count()
                    for b in range(max(coh, 0) // 4 + 1):
                        rest = coh - 4 * b - 3 * s
                        if rest >= 0 and rest % 2 == 0 and 2 * (rest // 2 + b + s) <= ell:
                            want.append((rest // 2, b, mask))
                assert chern_filter_basis(g, coh, ell) == sorted(want), (g, coh, ell)


# ----------------------------------------------------------------------
# Picard exterior algebra: the psi-only part of the descendent algebra


def test_theta_and_sigma():
    g = 2
    th = theta(g)
    assert th == Element(g, {(0, 0, mask_of([1, 3])): 2, (0, 0, mask_of([2, 4])): 2})
    assert th == -gamma(g)
    # expanding with signs: both cross terms sort negatively
    assert th * th == Element.monomial(g, 0, 0, mask_of([1, 2, 3, 4]), -8)
    assert (th ** (g + 1)).is_zero()
    assert (theta(3) ** 4).is_zero()
    for c in range(5):
        assert theta_power(3, c) == theta(3) ** c


# ----------------------------------------------------------------------
# text grammar


def test_parse_examples():
    g = 2
    assert parse_element("1/2 alpha^2 + 1/2 beta", g) == F(1, 2) * A(g) ** 2 + F(1, 2) * B(g)
    assert parse_element("-2 psi1 psi3 - 2 psi2 psi4", g) == gamma(g)
    assert parse_element("gamma", g) == gamma(g)
    assert parse_element("3alpha", g) == 3 * A(g)
    # the unicode minus sign is accepted too
    assert parse_element("−2 psi1 psi3 − 2 psi2 psi4", g) == gamma(g)
    assert parse_element("0", g).is_zero()
    assert parse_element("alpha - alpha", g).is_zero()


@LAWS
@given(x=_values(_keys((0, 2), (0, 2), (0, 63)), lambda t: Element(3, t)))
def test_format_parse_roundtrip(x):
    assert parse_element(format_element(x), 3) == x


def _reference_sorted_terms(x):
    """Element.sorted_terms as it was on Fractions: by the Bidegree NamedTuple, then key."""
    return sorted(x.terms.items(), key=lambda kv: (monomial_bidegree(kv[0]), kv[0]))


def _reference_format_element(x):
    """format_element as it was, with abs, < 0 and != 1 on each coefficient."""
    if not x.terms:
        return "0"
    parts = []
    for (a, b, mask), c in _reference_sorted_terms(x):
        factors = []
        if a:
            factors.append("alpha" + (f"^{a}" if a > 1 else ""))
        if b:
            factors.append("beta" + (f"^{b}" if b > 1 else ""))
        for i in indices_of(mask):
            factors.append(f"psi{i}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = " ".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


# int and Fraction coefficients, +-1 and +-1/q among them
RENDER_COEFFS = st.one_of(
    st.sampled_from([1, -1, F(1, 2), F(-1, 3)]),
    st.integers(-30, 30),
    st.fractions(-9, 9, max_denominator=12),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(terms=st.dictionaries(_keys((0, 3), (0, 3), (0, 63)), RENDER_COEFFS, max_size=6))
@example(terms={})  # the zero element
@example(terms={(0, 0, 0): 1})
@example(terms={(0, 0, 0): -1})
@example(terms={(0, 0, 0): F(-3, 2)})  # a constant term alone
@example(terms={(0, 0, 0): -1, (1, 0, 0): -1, (0, 1, 0): F(1, 2)})  # negative leading term
@example(terms={(2, 0, 0): 1, (0, 1, 0): F(1, 1), (0, 0, 0b100001): -2, (1, 0, 0b11): F(-7, 3)})
def test_format_element_matches_the_fraction_renderer(terms):
    x = Element(3, terms)
    assert x.sorted_terms() == _reference_sorted_terms(x)
    assert format_element(x) == _reference_format_element(x)


def test_parse_errors():
    for bad in ("", "alpha +", "2 2 alpha", "alpha 2", "eps1", "psi9 +", "@", "1/0"):
        with pytest.raises(ElementParseError):
            parse_element(bad, 2)
