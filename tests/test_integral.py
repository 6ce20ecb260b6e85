import itertools
import math
import random
from fractions import Fraction as F

import pytest

from rank2chern.algebra import MAX_GENUS, Element, bidegree_cone, gamma, gamma_power, koszul_sign, mask_of
from rank2chern.algebra import monomial_basis
from rank2chern.integral import (
    _numerator,
    _pair_monomials,
    _value,
    _virasoro_line,
    graded_integral,
    graded_pairing,
    pairing_matrix,
    top_bidegree,
)
from rank2chern.linalg import row_reduce
from rank2chern.operators import check_adjointness, make_sl2, operator_adjointness_failures
from rank2chern.relations import omega_from_pairing, pairing_kernel_matches_ideal
from rank2chern.series import InvariantPoly
from test_linalg import transpose


def gamma_power_integral_two_routes(g: int, p: int, B=1):
    """Integral of alpha^(g-1-p) beta^(g-1-p) gamma^p by two routes.

    Route one expands gamma^p monomially in the full algebra and sums the
    pairwise reductions; route two scales the Virasoro value directly.  The
    two must agree exactly for every p <= g - 1.
    """
    if not 0 <= p <= g - 1:
        raise ValueError("p must satisfy 0 <= p <= g-1")
    n = g - 1 - p
    elem = Element.monomial(g, n, n, 0) * gamma_power(g, p)
    route_expand = graded_integral(elem, B)
    den, rows = _virasoro_line(g)  # rows[0][p] is den times I_p
    route_recursion = F(rows[0][p], den) * B
    return route_expand, route_recursion


def test_normalization_and_oracle_values():
    g = 2
    assert graded_integral(Element.alpha(g) * Element.beta(g)) == 1
    assert graded_integral(gamma(g)) == -1
    assert graded_integral(Element.psi(g, 1) * Element.psi(g, 3)) == F(1, 4)
    assert graded_integral(Element.psi(g, 2) * Element.psi(g, 4)) == F(1, 4)


def test_monodromy_vanishing():
    # psi factors must pair i with i+g
    g = 2
    assert graded_integral(Element.psi(g, 1) * Element.psi(g, 2)) == 0
    x = Element.monomial(g, 0, 0, mask_of([1, 2]))
    for a, b in [(0, 0), (1, 1), (2, 0)]:
        assert graded_integral(Element.monomial(g, a, b, 0) * x) == 0


def test_nonvanishing_witness_class():
    # (alpha/2)^(g-1) beta^(g-1) integrates to B / 2^(g-1)
    for g in (2, 3, 4):
        for B in (F(1), F(7, 3)):
            w = (F(1, 2) * Element.alpha(g)) ** (g - 1) * Element.beta(g) ** (g - 1)
            assert graded_integral(w, B) == B / 2 ** (g - 1) != 0


def test_off_top_bidegree_vanishes():
    g = 2
    for bd in bidegree_cone(g, 6 * g - 6):
        if tuple(bd) == top_bidegree(g):
            continue
        for mono in monomial_basis(g, bd):
            assert graded_integral(Element.monomial(g, *mono)) == 0


def _f1_witnesses(B):
    # the d = 1 alpha f fails the d = 0 pairing; its witnesses sit at
    # pairs that do not depend on B
    _, _, f1 = make_sl2("alpha", 1, 2)
    cases, failures = operator_adjointness_failures(f1, 1, B)
    return cases, [w["where"] for w in failures]


# every public entry that takes B, and what of its result B must not change
NORMALIZED = {
    "graded_integral": lambda B: graded_integral(gamma(2), B) / B,
    "graded_pairing": lambda B: graded_pairing(Element.alpha(2), Element.beta(2), B) / B,
    "pairing_matrix": lambda B: row_reduce(pairing_matrix(2, (3, 2), B))[0],
    "omega_from_pairing": lambda B: omega_from_pairing(2, B).dims,
    "pairing_kernel_matches_ideal": lambda B: pairing_kernel_matches_ideal(3, (4, 4), B),
    "check_adjointness": lambda B: check_adjointness(2, B),
    "operator_adjointness_failures": _f1_witnesses,
}


@pytest.mark.parametrize("entry", NORMALIZED)
def test_one_normalization_rule(entry):
    call = NORMALIZED[entry]
    with pytest.raises(ValueError, match="normalization B must be nonzero"):
        call(0)
    with pytest.raises(TypeError, match="not an exact rational"):
        call(0.5)
    got = call(1)
    assert got and call(F(7, 3)) == got


def test_the_pairing_routes_refuse_a_genus_out_of_range():
    with pytest.raises(ValueError, match="genus"):
        omega_from_pairing(9)
    with pytest.raises(ValueError, match="genus"):
        pairing_kernel_matches_ideal(9, (4, 4))


def test_pairing_examples():
    g = 2
    assert graded_pairing(Element.alpha(g), Element.beta(g)) == 1
    rel = 2 * (Element.alpha(g) * Element.beta(g)) + 2 * gamma(g)
    assert graded_pairing(Element.one(g), rel) == 0
    assert graded_pairing(Element.alpha(g), Element.alpha(g)) == 0


def test_the_pairing_refuses_anything_but_an_element():
    # an InvariantPoly's gamma exponent would be read as a psi mask
    g = 2
    assert graded_integral(gamma(g)) == -1
    poly = InvariantPoly.monomial(g, 0, 0, 1)
    for call in (
        lambda: graded_integral(poly),
        lambda: graded_pairing(poly, poly),
        lambda: graded_pairing(Element.one(g), poly),
        lambda: graded_pairing(poly, Element.one(g)),
        lambda: graded_pairing(gamma(g), 1),
    ):
        with pytest.raises(TypeError, match="reads (an Element|two Elements), not"):
            call()


def test_pairing_symmetry_on_monomials():
    g = 2
    monos = [Element.monomial(g, a, b, m) for a in range(2) for b in range(2) for m in range(16)]
    rnd = random.Random(3)
    for _ in range(60):
        x, y = rnd.choice(monos), rnd.choice(monos)
        vx = graded_pairing(x, y)
        vy = graded_pairing(y, x)
        if vx or vy:
            # nonzero values force even total degree, so both orders agree
            assert vx == vy


def test_pairing_matrix_examples():
    g = 2
    m = pairing_matrix(g, (0, 0))
    basis = monomial_basis(g, (6, 4))
    assert (m.rows, m.cols) == (1, len(basis))
    # entries: <1, alpha beta> = 1, <1, psi_i psi_{i+g}> = 1/4, rest 0
    expected = {(1, 1, 0): F(1), (0, 0, mask_of([1, 3])): F(1, 4), (0, 0, mask_of([2, 4])): F(1, 4)}
    assert m.data == [{j: expected[mono] for j, mono in enumerate(basis) if mono in expected}]

    mt = pairing_matrix(g, (6, 4))
    assert (mt.rows, mt.cols) == (len(basis), 1)
    assert transpose(mt) == m

    mm = pairing_matrix(g, (3, 2))
    assert (mm.rows, mm.cols) == (4, 4)
    # entries +-1/4 exactly on the symplectic pairs
    basis = monomial_basis(g, (3, 2))
    idx = {mono: i for i, mono in enumerate(basis)}
    for (i, mi), (j, mj) in itertools.product(enumerate(basis), repeat=2):
        val = mm.data[i].get(j, 0)
        pi = mi[2].bit_length()  # psi index of row monomial
        pj = mj[2].bit_length()
        if {pi, pj} in ({1, 3}, {2, 4}):
            assert abs(val) == F(1, 4)
            assert mm.data[j].get(i, 0) == -val or pi == pj
        else:
            assert val == 0


def _brute_pairing_matrix(g, bd, B):
    """Oracle: every (row, column) pair of monomials, paired as Elements."""
    comp = (6 * g - 6 - bd[0], 4 * g - 4 - bd[1])
    cols = [Element.monomial(g, *mono) for mono in monomial_basis(g, comp)]
    data = []
    for mono in monomial_basis(g, bd):
        x = Element.monomial(g, *mono)
        pairs = ((j, graded_pairing(x, y, B)) for j, y in enumerate(cols))
        data.append({j: v for j, v in pairs if v})
    return data, len(cols)


@pytest.mark.parametrize("g", [2, 3])
def test_pairing_matrix_matches_element_pairing(g):
    # same columns, same entries and the same column order in every row
    B = F(-7, 3)
    for bd in bidegree_cone(g, 6 * g - 6):
        m = pairing_matrix(g, bd, B)
        data, ncols = _brute_pairing_matrix(g, bd, B)
        assert m.cols == ncols and m.data == data, bd
        assert [list(row) for row in m.data] == [list(row) for row in data], bd


def _summand_integral(g, l, a, b, c):
    """B = 1 integral of alpha^a beta^b gamma^c sigma sigma*, sigma =
    psi_1..psi_l, from the int line."""
    return _value(g, _numerator(g, l, a, b, c))


def _monomial_integral(g, a, b, mask):
    """B = 1 integral of alpha^a beta^b psi_mask; an Element needs g >= 2,
    so below that the key is paired with 1 directly."""
    if g < 2:
        return _value(g, _pair_monomials(g, (a, b, mask), Element._unit))
    return graded_integral(Element.monomial(g, a, b, mask))


def test_summand_integral_matches_the_built_integrand():
    # the closed form against alpha^a beta^b psi_sigma psi_sigma* gamma^c
    # built and integrated in the full algebra
    cases = 0
    for g in range(2, 9):
        for l in range(g + 1):
            sigma = (1 << l) - 1
            for c in range(g - l + 1):
                for a, b in itertools.product(range(g), repeat=2):
                    x = Element.monomial(g, a, b, sigma) * Element.monomial(g, 0, 0, sigma << g)
                    expected = graded_integral(x * gamma_power(g, c))
                    assert _summand_integral(g, l, a, b, c) == expected, (g, l, a, b, c)
                    cases += 1
    assert cases == 6531


def test_pairing_matrix_outside_cone_is_empty():
    m = pairing_matrix(2, (7, 6))  # complement has negative Chern degree
    assert m.cols == 0


def test_scale_covariance_in_B():
    g = 2
    x = gamma(g) + Element.alpha(g) * Element.beta(g) * 3
    v1 = graded_integral(x)
    v7 = graded_integral(x, F(7, 3))
    assert v7 == F(7, 3) * v1


def test_pair_sorting_sign_matches_direct_multiplication():
    # integrating a product of pairs psi_i psi_{i+g} built by honest Element
    # multiplication gives I_p / ((-2)^p g(g-1)...(g-p+1)) for every choice
    # of p pairs; this pins the psi-to-pair sorting sign against the
    # multiplication engine
    for g in (2, 3, 4):
        for p in range(1, g):
            _, I_p = gamma_power_integral_two_routes(g, p)
            falling = 1
            for t in range(p):
                falling *= g - t
            expected = I_p / (F((-2) ** p) * falling)
            for combo in itertools.combinations(range(1, g + 1), p):
                prod = Element.monomial(g, g - 1 - p, g - 1 - p, 0)
                for i in combo:
                    prod = prod * (Element.psi(g, i) * Element.psi(g, i + g))
                assert graded_integral(prod) == expected


@pytest.mark.parametrize("g", [2, 3, 4])
def test_two_route_gamma_power_integrals(g):
    for p in range(g):
        expand, recursion = gamma_power_integral_two_routes(g, p)
        assert expand == recursion


# ----------------------------------------------------------------------
# the integer pairing: den(g) times every B = 1 value, against the Fraction
# recursion the values were read from before they were held as ints


def _fraction_line(g):
    """I_0 .. I_{g-1} by (g-p) I_p = -2(g-1-p) I_{p+1}, I_0 = 1, in Fractions."""
    vals = [F(1)]
    for p in range(g - 1):
        vals.append(F(-(g - p), 2 * (g - 1 - p)) * vals[-1])
    return vals


def _fraction_summand_integral(g, l, a, b, c):
    if a != b or a + l + c != g - 1 or a < 0 or c < 0:
        return F(0)
    value = _fraction_line(g)[l + c] / (F((-2) ** l) * math.perm(g, l))
    return -value if (l * (l - 1) // 2) & 1 else value


def _fraction_monomial_integral(g, a, b, mask):
    lower = mask & ((1 << g) - 1)
    if lower != mask >> g:
        return F(0)
    return _fraction_summand_integral(g, lower.bit_count(), a, b, 0)


def _fraction_pairing(g, m1, m2):
    (a1, b1, k1), (a2, b2, k2) = m1, m2
    return koszul_sign(k1, k2) * _fraction_monomial_integral(g, a1 + a2, b1 + b2, k1 | k2)


def _complementary_pairs(g):
    """Every pair of monomial keys of complementary bidegrees with disjoint
    psi masks."""
    for bd in bidegree_cone(g, 6 * g - 6):
        for m2 in monomial_basis(g, (6 * g - 6 - bd.coh, 4 * g - 4 - bd.chern)):
            for m1 in monomial_basis(g, bd):
                if not m1[2] & m2[2]:
                    yield m1, m2


@pytest.mark.parametrize("g", [2, 3, 4])
def test_monomial_pairings_are_ints(g):
    values = [_pair_monomials(g, m1, m2) for m1, m2 in _complementary_pairs(g)]
    assert values and all(type(v) is int for v in values) and any(values)


@pytest.mark.parametrize("g", [2, 3])
def test_monomial_pairings_are_den_times_the_element_pairing(g):
    den = _virasoro_line(g)[0]
    for m1, m2 in _complementary_pairs(g):
        want = den * graded_pairing(Element.monomial(g, *m1), Element.monomial(g, *m2))
        assert _pair_monomials(g, m1, m2) == want, (m1, m2)


def test_the_line_is_held_over_its_least_denominator():
    for g in range(MAX_GENUS + 1):
        den, rows = _virasoro_line(g)
        assert type(den) is int and den > 0 and [len(row) for row in rows] == list(range(g, 0, -1))
        assert all(type(n) is int and n for row in rows for n in row)
        assert math.gcd(den, *(n for row in rows for n in row)) == 1, g


@pytest.mark.parametrize("g", range(MAX_GENUS + 1))
def test_the_integrals_match_the_fraction_recursion(g):
    rng = random.Random(g)
    for l, c, a, b in itertools.product(range(g + 1), range(-1, g + 1), range(-1, g + 1), range(g + 1)):
        got = _summand_integral(g, l, a, b, c)
        assert type(got) is F and got == _fraction_summand_integral(g, l, a, b, c), (l, a, b, c)
    # every product of whole pairs, and as many masks drawn at random
    paired = [sum(1 << i | 1 << (i + g) for i in s) for n in range(g + 1) for s in itertools.combinations(range(g), n)]
    masks = paired + [rng.randrange(1 << (2 * g)) for _ in paired]
    for mask, a, b in itertools.product(masks, range(g), range(g)):
        got = _monomial_integral(g, a, b, mask)
        assert type(got) is F and got == _fraction_monomial_integral(g, a, b, mask), (a, b, mask)
    if g < 2:  # an Element needs g >= 2
        return
    B = F(-7, 3)
    top = monomial_basis(g, top_bidegree(g))
    for _ in range(20):
        # top-bidegree terms, two of them alpha^n beta^n times whole pairs,
        # and alpha, which integrates to 0
        terms = {k: F(rng.randint(-9, 9), rng.randint(1, 9)) for k in rng.sample(top, min(4, len(top)))}
        x = Element(g, {**terms, (g - 1, g - 1, 0): 3, (g - 2, g - 2, 1 | 1 << g): F(-5, 2), (1, 0, 0): 5})
        want = B * sum(c * _fraction_monomial_integral(g, *k) for k, c in x.terms.items())
        got = graded_integral(x, B)
        assert type(got) is F and got == want
    for bd in ((0, 0), (2, 2), (3, 2), (4, 2), (6, 4)):
        rows = monomial_basis(g, bd)
        cols = monomial_basis(g, (6 * g - 6 - bd[0], 4 * g - 4 - bd[1]))
        if len(rows) * len(cols) > 150_000:  # (6, 4) from g = 7 on, (3, 2) at g = 8
            continue
        want = [
            {j: B * v for j, m2 in enumerate(cols) if not m1[2] & m2[2] and (v := _fraction_pairing(g, m1, m2))}
            for m1 in rows
        ]
        m = pairing_matrix(g, bd, B)
        assert m.cols == len(cols) and m.data == want, bd
        assert [list(row) for row in m.data] == [list(row) for row in want], bd
