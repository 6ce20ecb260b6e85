import cProfile
import fractions
import hashlib
import json
import math
import os
import pstats
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank2chern.genfun as gf
import rank2chern.relations as rel
from rank2chern.algebra import (
    Element,
    _accumulate,
    bidegree_cone,
    check_genus,
    format_element,
    gamma,
    monomial_basis,
    monomial_bidegree,
    theta_power,
)
from rank2chern.genfun import BiPoly, omega_closed_form
from rank2chern.integral import _numerator, _value, _virasoro_line, pairing_matrix
from rank2chern.linalg import QMatrix, RowSpan, row_reduce
from rank2chern.relations import (
    OmegaTable,
    VerificationError,
    default_max_coh,
    dims_mismatches,
    ideal_slice,
    ideal_slice_keys,
    merged_report,
    modified_mumford,
    modified_mumford_closed,
    modified_mumford_sum,
    mumford_relation,
    omega_from_ideal,
    omega_from_pairing,
    pairing_kernel_matches_ideal,
    prim_basis,
    prim_dim,
    rel_generator,
    invariant_basis,
    verify_vanishing_corollary,
)
from rank2chern.series import InvariantPoly, _phi_numerators, phi_series
from rank2chern.suites import suite_pairing
from test_linalg import transpose


def slice_vector(x: Element, basis_index: dict) -> dict:
    """Sparse coordinates {index: coeff} of a homogeneous element over an
    indexed monomial basis."""
    return {basis_index[mono]: c for mono, c in x.terms.items()}


def ideal_multiplicative_closure_holds(g: int, d: int, max_coh: int = None) -> bool:
    """Guard on the ideal property: multiplying any slice generator by a
    ring generator stays inside the slice of the target bidegree."""
    check_genus(g)
    if max_coh is None:
        max_coh = default_max_coh(g, d)
    gens = [Element.alpha(g), Element.beta(g)] + [Element.psi(g, i) for i in range(1, 2 * g + 1)]
    for bd in bidegree_cone(max_coh):
        elements = ideal_slice(g, d, bd)
        if not elements:
            continue
        coh, chern = bd
        for gen in gens:
            dc, dch = gen.bidegree()
            target = (coh + dc, chern + dch)
            if target[0] > max_coh:
                continue
            basis = monomial_basis(g, target)
            index = {mono: i for i, mono in enumerate(basis)}
            span = RowSpan(len(basis))
            for y in ideal_slice(g, d, target):
                span.add(slice_vector(y, index))
            for x in elements:
                prod = gen * x
                if prod.is_zero():
                    continue
                if not span.contains(slice_vector(prod, index)):
                    return False
    return True


# ----------------------------------------------------------------------
# primitive classes


def test_prim_basis_small_sizes():
    assert len(prim_basis(2, 0)) == 1
    assert len(prim_basis(2, 1)) == 4
    assert len(prim_basis(2, 2)) == 5  # the 4 pair-free monomials do not suffice


def test_prim_basis_dimension_formula():
    # C(2g, l) - C(2g, l-2); exhaustive at desk scale, spot checks above
    cases = [(g, l) for g in (2, 3, 4) for l in range(g + 1)]
    cases += [(5, l) for l in range(6)]
    cases += [(6, l) for l in range(5)] + [(7, 0), (7, 1), (7, 2), (7, 3), (8, 2), (8, 3)]
    for g, l in cases:
        expected = math.comb(2 * g, l) - (math.comb(2 * g, l - 2) if l >= 2 else 0)
        assert len(prim_basis(g, l)) == expected, (g, l)


def test_prim_basis_annihilated_by_theta_power():
    for g in (2, 3):
        for l in range(g + 1):
            killer = theta_power(g, g - l + 1)
            for cls in prim_basis(g, l):
                assert (cls * killer).is_zero()
                assert cls.bidegree() == (3 * l, 2 * l)


def test_prim_basis_rejects_large_degree():
    with pytest.raises(ValueError):
        prim_basis(2, 3)


# ----------------------------------------------------------------------
# Mumford relations


def test_mumford_m0_specialization():
    # MR^d_{k, sigma_l} = (-1)^l 2^(2g-k) c_{d, k-g-l} sigma_l
    g = 2
    for d in (0, 1, 2):
        coeffs = phi_series(d, g, 6)
        for l in (0, 1):
            for sig in prim_basis(g, l):
                for k in range(g + l, g + l + 4):
                    got = mumford_relation(d, k, 0, l, g).embed() * sig
                    scalar = F((-1) ** l) * (F(2) ** (2 * g - k) if 2 * g >= k else F(1, 2 ** (k - 2 * g)))
                    want = coeffs[k - g - l].embed() * sig * scalar
                    assert got == want


def test_mumford_negative_index_is_zero():
    g = 2
    one = Element.one(g)
    assert (mumford_relation(1, 1, 0, 0, g).embed() * one).is_zero()  # k + m < g + l
    sig = prim_basis(g, 1)[0]
    assert (mumford_relation(0, 2, 0, 1, g).embed() * sig).is_zero()


def test_mumford_explicit_value():
    # g=2, d=1, k=4, m=0: 2^0 c_{1,2} = alpha^2/2 + beta/2
    g = 2
    got = mumford_relation(1, 4, 0, 0, g).embed() * Element.one(g)
    want = F(1, 2) * Element.alpha(g) ** 2 + F(1, 2) * Element.beta(g)
    assert got == want


def test_modified_mumford_m0_equals_plain():
    g = 2
    one = Element.one(g)
    for d in (0, 1):
        for k in (3, 4, 5, 6):
            assert modified_mumford(d, k, 0, one, g) == mumford_relation(d, k, 0, 0, g).embed() * one


def test_modified_mumford_two_routes_small():
    for g in (2, 3):
        for d in (0, 1, 2):
            for l in range(g + 1):
                basis = prim_basis(g, l)
                for m in range(g - l + 1):
                    for k in range(2 * g + 2 * d + 1):
                        for sig in basis[:2]:
                            a = modified_mumford_sum(d, k, m, l, g)
                            b = modified_mumford_closed(d, k, m, l, g)
                            assert a == b, (g, d, k, m, l)
                            assert a.embed() * sig == b.embed() * sig, (g, d, k, m, l)


def test_modified_mumford_chern_bound():
    # every computed instance sits in Chern degree <= 2k - 2g
    g = 2
    for d in (0, 1):
        for l in range(g + 1):
            for m in range(g - l + 1):
                for k in range(2 * g, 2 * g + 5):
                    for sig in prim_basis(g, l)[:2]:
                        rel = modified_mumford(d, k, m, sig, g)
                        for mono in rel.terms:
                            assert Element.monomial(g, *mono).bidegree().chern <= 2 * k - 2 * g


# ----------------------------------------------------------------------
# the Fraction builders of the three relation routes as they were before
# the integer expansion over one denominator, kept verbatim as oracles


def _mumford_relation_fraction(d, k, m, l, g):
    rel._check_degrees(g, l, m)
    n = k + m - g - l
    coeff = InvariantPoly.zero(g)
    if n < 0:
        return coeff
    phi = phi_series(d, g, n)
    for j in range(min(m, n // 3) + 1):
        weight = math.comb(m, j) * math.perm(g - l - j, m - j) * (-2) ** j
        for s in range(min(m - j, (n - 3 * j) // 2) + 1):
            w = weight * math.comb(m - j, s) * (-1) ** s
            coeff = coeff + phi[n - 3 * j - 2 * s] * InvariantPoly.monomial(g, 0, s, j, w)
    return coeff.scale(F(2) ** (2 * g - m - k) * (-1) ** l)


def _modified_mumford_sum_fraction(d, k, m, l, g):
    rel._check_degrees(g, l, m)
    out = InvariantPoly.zero(g)
    for s in range(m + 1):
        weight = (-1) ** s * math.comb(m, s) * math.perm(g - l - s, m - s)
        if weight:
            out = out + _mumford_relation_fraction(d, k + m - s, s, l, g).scale(weight)
    return out


def _modified_mumford_closed_fraction(d, k, m, l, g):
    rel._check_degrees(g, l, m)
    poly = InvariantPoly.zero(g)
    for c in range(m + 1):
        b = m - c
        a = k - g - l - b - 2 * c
        if a >= 0:
            w = F(math.factorial(g - l - c) * 2**c, math.factorial(b) * math.factorial(c))
            poly = poly + phi_series(d, g, a)[a] * InvariantPoly.monomial(g, 0, b, c, w)
    scalar = F(2) ** (2 * g - m - k) * F(math.factorial(m), math.factorial(g - l - m)) * (-1) ** l
    return poly.scale(scalar)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_relation_builders_match_their_fraction_oracles(g):
    builders = (
        (mumford_relation, _mumford_relation_fraction),
        (modified_mumford_sum, _modified_mumford_sum_fraction),
        (modified_mumford_closed, _modified_mumford_closed_fraction),
    )
    cases = 0
    for d in (0, 1, 2):
        for l in range(g + 1):
            for m in range(g - l + 1):
                for k in range(2 * g + 2 * d + 5):
                    for build, oracle in builders:
                        assert build(d, k, m, l, g) == oracle(d, k, m, l, g), (build.__name__, d, k, m, l)
                        cases += 1
    assert cases == 3 * 3 * sum(g - l + 1 for l in range(g + 1)) * (2 * g + 7)


def test_relation_builders_refuse_a_negative_d():
    g = 2
    with pytest.raises(ValueError, match="d >= 0, got l=0, m=0, d=-1"):
        modified_mumford(-1, 4, 0, Element.one(g), g)
    for build in (mumford_relation, modified_mumford_sum, modified_mumford_closed):
        with pytest.raises(ValueError, match="d >= 0, got l=0, m=0, d=-1"):
            build(-1, 4, 0, 0, g)
    assert phi_series(-1, g, 2)[2] == InvariantPoly(g, {(2, 0, 0): F(1, 2), (0, 1, 0): F(5, 2)})


G, ONE = 2, Element.one(2)

# (build from one degree argument, the ints it admits), per argument
DEGREE_ARGUMENTS = {
    "prim_basis l": (lambda v: prim_basis(G, v), lambda v: 0 <= v <= G),
    "rel_generator m": (lambda v: rel_generator(6, v, ONE, G), lambda v: v <= G),  # m < 0: the empty sum
    "rel_generator k": (lambda v: rel_generator(v, 0, ONE, G), lambda v: True),  # k < g + l: the empty sum
    "rel_generator_poly k": (lambda v: rel.rel_generator_poly(G, v, 0, 0), lambda v: True),
    "modified_mumford k": (lambda v: modified_mumford(0, v, 0, ONE, G), lambda v: True),
    "modified_mumford m": (lambda v: modified_mumford(0, 6, v, ONE, G), lambda v: 0 <= v <= G),
    "modified_mumford d": (lambda v: modified_mumford(v, 6, 0, ONE, G), lambda v: v >= 0),
    "ideal_slice d": (lambda v: ideal_slice(G, v, (8, 6)), lambda v: v >= 0),
    "phi_series d": (lambda v: phi_series(v, G, 2), lambda v: True),  # a series at every int d
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(DEGREE_ARGUMENTS)),
    v=st.one_of(st.integers(-3, 5), st.booleans(), st.floats(-3, 5), st.fractions(-3, 5)),
)
def test_degree_arguments_are_ints_in_range(name, v):
    # a bool, float or Fraction raises TypeError, also when the memo holds
    # the int of the same value; an int out of range raises ValueError
    build, admits = DEGREE_ARGUMENTS[name]
    if type(v) is not int:
        if v == int(v) and admits(int(v)):
            build(int(v))
        with pytest.raises(TypeError, match="must be an int"):
            build(v)
    elif admits(v):
        build(v)
    else:
        with pytest.raises(ValueError):
            build(v)


def test_the_mumford_builders_refuse_a_negative_m():
    g = 2
    rel._checked_coefficient.cache_clear()
    with pytest.raises(ValueError, match="0 <= m <= g - l .*got l=0, m=-1, d=0"):
        modified_mumford(0, 5, -1, Element.one(g), g)
    assert rel._checked_coefficient.cache_info().currsize == 0  # a refusal is never memoised
    for build in (mumford_relation, modified_mumford_sum, modified_mumford_closed):
        with pytest.raises(ValueError, match="0 <= m <= g - l .*got l=0, m=-1, d=0"):
            build(0, 5, -1, 0, g)
    # R_{k,m,l} at m < 0 is the documented empty sum, which the descent check reads
    assert rel.rel_generator_poly(g, 5, -1, 0).is_zero()
    assert rel_generator(5, -1, Element.one(g), g).is_zero()


def test_a_perturbed_numerator_makes_the_routes_disagree(monkeypatch):
    g = 2
    one = Element.one(g)
    honest = rel._phi_numerators

    def perturbed(d, g, order):
        out = [dict(p) for p in honest(d, g, order)]
        if order >= 3:
            out[3][(3, 0, 0)] += 1  # N_3 = 3! c_{d,3}: alpha^3 + ...
        return tuple(out)

    assert modified_mumford(0, 5, 0, one, g)  # n = 3 reads N_3
    rel._checked_coefficient.cache_clear()
    monkeypatch.setattr(rel, "_phi_numerators", perturbed)
    with pytest.raises(VerificationError, match="routes disagree"):
        modified_mumford(0, 5, 0, one, g)


def _checked_coefficient_fraction(d, k, m, l, g):
    # the two-route check as it was before the integer routes: the public
    # builders compared as InvariantPolys, then scaled by the lcm of the
    # closed form's denominators
    by_closed = modified_mumford_closed(d, k, m, l, g)
    if modified_mumford_sum(d, k, m, l, g) != by_closed:
        raise VerificationError(f"modified relation routes disagree at d={d}, k={k}, m={m}, g={g}")
    den = math.lcm(*(v.denominator for v in by_closed.terms.values()))
    return by_closed.scale(den), den


def _relation_keys(g, d):
    """(d, k, m, l, g) of every modified relation of the series workload's
    batch (g, d): m <= g - l and k <= 2g + 2d + 4."""
    return [
        (d, k, m, l, g) for l in range(g + 1) for m in range(g - l + 1) for k in range(2 * g + 2 * d + 5)
    ]


@pytest.mark.parametrize("g,d", [(g, d) for g in (2, 3, 4) for d in (0, 1, 2)] + [(5, 0)])
def test_checked_coefficient_matches_its_fraction_oracle(g, d):
    # same int terms, the same coefficient types and the same least denominator
    for key in _relation_keys(g, d):
        got, den = rel._checked_coefficient(*key)
        want, want_den = _checked_coefficient_fraction(*key)
        assert den == want_den and got == want.terms, key
        assert {x: type(v) for x, v in got.items()} == {x: int for x in want.terms}, key
        assert {x: type(v) for x, v in want.terms.items()} == {x: int for x in want.terms}, key


def test_an_off_by_one_closed_weight_makes_the_routes_disagree(monkeypatch):
    # the closed route reads each int W of _generator_terms as it is; the
    # first W moves by exactly one
    d, k, m, l, g = 0, 7, 1, 1, 3
    honest = rel._generator_terms

    def perturbed(*args):
        terms = list(honest(*args))
        a, b, c, W = terms[0]
        return [(a, b, c, W + 1)] + terms[1:]

    rel._checked_coefficient.cache_clear()
    assert rel._checked_coefficient(d, k, m, l, g)[0]
    rel._checked_coefficient.cache_clear()
    monkeypatch.setattr(rel, "_generator_terms", perturbed)
    with pytest.raises(VerificationError, match="routes disagree at d=0, k=7, m=1, l=1, g=3$"):
        rel._checked_coefficient(d, k, m, l, g)
    assert rel._checked_coefficient.cache_info().currsize == 0


_FRACTION_ARITHMETIC = {"_add", "_sub", "_mul", "_div", "forward", "reverse", "__eq__"}


def test_the_two_route_check_makes_no_fraction_arithmetic():
    # both routes are int terms over one denominator, compared by
    # cross-multiplication: with phi_series warm, the checks of the series
    # workload's keys only read phi_series' Fraction coefficients
    keys = [key for g, d in ((3, 0), (3, 1), (3, 2), (4, 0)) for key in _relation_keys(g, d)]
    assert len(keys) == 585
    for key in keys:
        rel._checked_coefficient(*key)  # warms phi_series and the numerators
    rel._checked_coefficient.cache_clear()
    profile = cProfile.Profile()
    profile.runcall(lambda: [rel._checked_coefficient(*key) for key in keys])
    calls = [key for key in pstats.Stats(profile).stats if key[0] == fractions.__file__]
    assert calls and not [key for key in calls if key[2] in _FRACTION_ARITHMETIC], calls


def test_the_table_routes_make_no_fraction_arithmetic():
    # relation rows are the int W's of _generator_terms, and pairing entries
    # int numerators; linalg keeps int rows in ints
    calls = (
        lambda: omega_from_ideal(6, 1),
        lambda: omega_from_pairing(6),
        lambda: all(pairing_kernel_matches_ideal(4, bd) for bd in bidegree_cone(18)),
    )
    arithmetic = _FRACTION_ARITHMETIC - {"__eq__"}
    for i, call in enumerate(calls):
        profile = cProfile.Profile()
        result = profile.runcall(call)
        assert result is True or _matches_closed_form(result), i
        found = [key for key in pstats.Stats(profile).stats if key[0] == fractions.__file__]
        assert not [key for key in found if key[2] in arithmetic], (i, found)


def test_relation_rows_and_pairing_entries_are_ints():
    for g in (3, 5):
        for bd in bidegree_cone(default_max_coh(g, 1)):
            for _, gl, sbd in rel._summands(g, bd):
                rows = list(rel._invariant_relations(gl, 0, sbd) + rel._invariant_relations(gl, 1, sbd))
                rows += rel._invariant_pairing(gl, sbd).data
                assert all(type(v) is int for row in rows for v in row.values()), (g, bd, gl)


def test_the_memoised_pairing_is_the_transpose():
    # the slice memo builds M^T as the pairing at the complementary bidegree
    for g in (2, 3, 4, 5):
        for bd in bidegree_cone(6 * g - 6):
            mt, rank = rel._pairing_slice(g, bd)
            matrix = rel._invariant_pairing(g, bd)
            assert mt == transpose(matrix) and rank == row_reduce(matrix)[0], (g, bd)


MODIFIED_DIGESTS = {
    (2, 0): "9878a792e021e49a19a396d346daeeddc5053cb433d2b614cc640a54e49f3721",
    (2, 1): "300872df47960ae10b88faa858d00a06c6352776284143ef96579548d4f8c285",
    (2, 2): "6a366bb8e9b894310983643af294e2917544fc51ab7db2aefd40d50885c5d6ee",
    (3, 0): "e358111a91415829ccf3f30666c7694fc714ab5855f1cfb83e74b7ce96a43414",
    (3, 1): "ce7bee1bbc602c45289b7f647ecbb21446aafca3fcd59bfeb9993b9800b84f16",
    (3, 2): "708c5295fbd87ec8930e74f92616f2c5d6ebe6ca3cd02d5672480a880b297161",
    (4, 0): "9856ba08fdddc7f1e2d7d496ecbb1c10c5a7b01faa1bfaac3d0ce6617955e88d",
    (4, 1): "024848a089d3092cf7ede6982e8816c4ea495da7d910ed4f151969b0d4532414",
}


@pytest.mark.parametrize("g,d", sorted(MODIFIED_DIGESTS))
def test_modified_mumford_golden_digest(g, d):
    # every primitive class, every m <= g - l and k <= 2g + 2d + 4, in the
    # key order of the benchmark's series workload (same g = 3 digests)
    lines = [
        format_element(modified_mumford(d, k, m, sig, g))
        for l in range(g + 1)
        for m in range(g - l + 1)
        for k in range(2 * g + 2 * d + 5)
        for sig in prim_basis(g, l)
    ]
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == MODIFIED_DIGESTS[g, d]


# ----------------------------------------------------------------------
# the relation kernels against the loops they replaced


def _times_chain_oracle(coefficient, chain):
    """x * sigma summed product by product through _accumulate."""
    out = {}
    for (a, b, c), v in coefficient.items():
        if c < len(chain):
            _accumulate((((a + x, b + y, mask), v * w) for (x, y, mask), w in chain[c]), out)
    return out


def _plain_relations_oracle(d, k, m, l, g, weights):
    """The weighted plain relations, reading N_r's terms once per (p, j, s)."""
    n = k + m - g - l
    if n < 0:
        return {}, 1
    numerators = _phi_numerators(d, g, n)
    out = {}
    for weight, p in weights:
        for j in range(min(p, n // 3) + 1):
            wj = weight * math.comb(p, j) * math.perm(g - l - j, p - j) * (-2) ** j
            for s in range(min(p - j, (n - 3 * j) // 2) + 1):
                r = n - 3 * j - 2 * s
                w = wj * math.comb(p - j, s) * (-1) ** s * math.perm(n, n - r)
                terms = numerators[r].items()
                _accumulate((((a, b + s, c + j), w * v) for (a, b, c), v in terms if c + j <= g), out)
    return rel._over(out, l, 2 * g - m - k, 1, math.factorial(n))


def _mumford_check_keys(g, d):
    """(k, m, l) of the modified-relation cross-validation at (g, d): every
    m <= g - l and k <= 2g + 2d + 4, as in the series workload."""
    return [(k, m, l) for l in range(g + 1) for m in range(g - l + 1) for k in range(2 * g + 2 * d + 5)]


@pytest.mark.parametrize("g", [2, 3])
def test_times_chain_matches_its_accumulate_oracle(g):
    # every primitive class times every generator and checked coefficient
    # it meets at d <= 2, term for term and in the same order
    for l in range(g + 1):
        coefficients = [
            rel._generator(g, k, m, l)[0] for k in range(2 * g + 9) for m in range(g - l + 1)
        ]
        coefficients += [
            rel._checked_coefficient(d, k, m, l, g)[0]
            for d in range(3)
            for k, m, l2 in _mumford_check_keys(g, d)
            if l2 == l
        ]
        for sig in prim_basis(g, l):
            chain = rel._sigma_chain(sig, g)[1]
            for terms in coefficients:
                got = rel._times_chain(terms, chain)
                assert list(got.items()) == list(_times_chain_oracle(terms, chain).items())


@pytest.mark.parametrize("g", [2, 3])
def test_plain_relations_match_their_per_p_oracle(g):
    # both weightings: one plain relation, and the sum route's alternating
    # combination, whose scalars are summed per (j, s) before N_r is read
    for d in range(3):
        for k, m, l in _mumford_check_keys(g, d):
            sum_weights = [((-1) ** s * math.comb(m, s) * math.perm(g - l - s, m - s), s) for s in range(m + 1)]
            for weights in ([(1, m)], sum_weights):
                got = rel._plain_relations(d, k, m, l, g, iter(weights))
                assert got == _plain_relations_oracle(d, k, m, l, g, weights), (d, k, m, l)


def _exact_form(x):
    return all(type(v) is int or (type(v) is F and v.denominator != 1) for v in x.terms.values())


@pytest.mark.parametrize("g", [2, 3, 4])
def test_sigma_products_in_integers_match_the_fraction_products(g):
    # oracle: the Fraction product of the embedded coefficient and sigma,
    # over every key of the series workload at d = 0..2
    for l in range(g + 1):
        for sig in prim_basis(g, l):
            for m in range(g - l + 1):
                for k in range(2 * g + 9):
                    want = rel.rel_generator_poly(g, k, m, l).embed() * sig
                    got = rel_generator(k, m, sig, g)
                    assert got.terms == want.terms and _exact_form(got), (g, k, m, l)
                    for d in range(3):
                        if k > 2 * g + 2 * d + 4:
                            continue
                        want = modified_mumford_closed(d, k, m, l, g).embed() * sig
                        got = modified_mumford(d, k, m, sig, g)
                        assert got.terms == want.terms and _exact_form(got), (g, d, k, m, l)


def test_the_series_batches_prove_each_sigma_primitive_once():
    # the keys of the series workload's four batches: 5,824 relations over
    # the 35 + 126 primitive classes of g = 3, 4
    rel._gamma_chain.cache_clear()
    calls = 0
    for g, d in ((3, 0), (3, 1), (3, 2), (4, 0)):
        for l in range(g + 1):
            for m in range(g - l + 1):
                for k in range(2 * g + 2 * d + 5):
                    for sig in prim_basis(g, l):
                        modified_mumford(d, k, m, sig, g)
                        calls += 1
    info = rel._gamma_chain.cache_info()
    assert calls == 5824 and info.misses == info.currsize == 161 and info.hits == calls - 161


def test_sigma_products_keep_a_rational_sigma_exact():
    # a sigma with a Fraction coefficient leaves int arithmetic but not exactness
    g = 3
    sig = prim_basis(g, 2)[0]
    half = F(1, 2) * sig
    for d, k, m in ((0, 7, 1), (1, 9, 0), (2, 12, 1)):
        got = modified_mumford(d, k, m, half, g)
        assert got == F(1, 2) * modified_mumford(d, k, m, sig, g) and _exact_form(got) and got
    got = rel_generator(8, 1, half, g)
    assert got == F(1, 2) * rel_generator(8, 1, sig, g) and _exact_form(got) and got


def test_modified_mumford_validates_l_plus_m():
    g = 2
    sig = prim_basis(g, 1)[0]
    with pytest.raises(ValueError):
        modified_mumford(1, 6, 2, sig, g)
    for build in (mumford_relation, modified_mumford_sum, modified_mumford_closed):
        with pytest.raises(ValueError):
            build(1, 6, 2, 1, g)
    with pytest.raises(ValueError):  # theta sigma_2 = 0 at g = 2
        mumford_relation(0, 6, 1, 2, g)
    for l in (-1, g + 1):  # the primitive degree lies in 0..g
        for build in (mumford_relation, modified_mumford_sum, modified_mumford_closed):
            with pytest.raises(ValueError):
                build(1, 6, 0, l, g)


def test_relations_reject_a_sigma_that_is_not_primitive():
    g = 2
    psi13 = Element.psi(g, 1) * Element.psi(g, 3)  # theta * psi1 psi3 != 0
    psi123 = psi13 * Element.psi(g, 2)  # degree 3 > g
    for sig in (psi13, psi123):
        with pytest.raises(ValueError, match="not primitive"):
            modified_mumford(0, 5, 0, sig, g)
        with pytest.raises(ValueError, match="not primitive"):
            rel_generator(4, 0, sig, g)
    for g in (2, 3):
        for l in range(g + 1):
            assert all(rel._sigma_chain(sig, g)[0] == l for sig in prim_basis(g, l)), (g, l)


@pytest.mark.parametrize(
    "build",
    [lambda sig, g: modified_mumford(0, 6, 0, sig, g), lambda sig, g: rel_generator(6, 0, sig, g)],
    ids=["modified_mumford", "rel_generator"],
)
def test_relations_refuse_a_sigma_that_is_no_primitive_class_of_the_genus(build):
    g = 2
    psi1, psi3 = Element.psi(g, 1), Element.psi(g, 3)
    assert build(prim_basis(g, 1)[0], g)  # psi1 at g = 2 is primitive
    with pytest.raises(ValueError, match="genus mismatch"):  # psi1 at g = 3
        build(prim_basis(3, 1)[0], g)
    refused = (Element.zero(g), Element.alpha(g) * psi1, psi1 + psi1 * psi3)
    for sig in refused:
        with pytest.raises(ValueError, match="homogeneous nonzero psi-only"):
            build(sig, g)
    for _ in range(2):  # a refusal is never remembered as an answer
        with pytest.raises(ValueError, match="not primitive"):
            build(psi1 * psi3, g)


# ----------------------------------------------------------------------
# relation generators


def test_rel_generator_examples():
    g = 2
    one = Element.one(g)
    assert rel_generator(4, 0, one, g) == Element.alpha(g) ** 2
    assert rel_generator(4, 1, one, g) == 2 * (Element.alpha(g) * Element.beta(g)) + 2 * gamma(g)
    # below the threshold the defining sum is empty
    assert rel_generator(1, 0, one, g).is_zero()


def test_rel_generator_bidegree():
    g = 3
    for l in range(g + 1):
        sig = prim_basis(g, l)[0]
        for m in range(g - l + 1):
            for k in range(g + l, g + l + 4):
                rel = rel_generator(k, m, sig, g)
                if rel.is_zero():
                    continue
                assert rel.bidegree() == (2 * k - 2 * g + 2 * m + l, 2 * k - 2 * g)


def _chern_component(x, chern):
    """The terms of x of Chern degree chern."""
    return Element(x.g, {m: c for m, c in x.terms.items() if monomial_bidegree(m).chern == chern})


def test_rel_generator_is_top_chern_part_of_modified():
    # the Chern-(2k-2g) part of the modified relation at d+1 equals the
    # generator up to its scalar prefactor
    for g in (2, 3):
        for d in (0, 1):
            for l in range(g + 1):
                sig = prim_basis(g, l)[0]
                for m in range(g - l + 1):
                    for k in range(2 * g, 2 * g + 4):
                        rel = modified_mumford_closed(d + 1, k, m, l, g).embed() * sig
                        top = _chern_component(rel, 2 * k - 2 * g)
                        scalar = (
                            F((-1) ** l)
                            * (F(2) ** (2 * g - m - k) if 2 * g >= m + k else F(1, 2 ** (m + k - 2 * g)))
                            * F(math.factorial(m), math.factorial(g - l - m))
                        )
                        want = rel_generator(k, m, sig, g) * scalar
                        assert top == want, (g, d, k, m, l)
                        # everything else lies strictly below
                        rest = rel - top
                        for mono in rest.terms:
                            assert Element.monomial(g, *mono).bidegree().chern < 2 * k - 2 * g


def test_rel_generator_pairs_to_zero():
    from rank2chern.integral import graded_pairing

    g = 2
    one = Element.one(g)
    for m in (0, 1):
        rel = rel_generator(4, m, one, g)
        bd = rel.bidegree()
        comp = (6 * g - 6 - bd.coh, 4 * g - 4 - bd.chern)
        for mono in monomial_basis(g, comp):
            assert graded_pairing(rel, Element.monomial(g, *mono)) == 0


# ----------------------------------------------------------------------
# ideal slices


def test_ideal_slice_examples():
    g = 2
    s44 = ideal_slice(g, 0, (4, 4))
    assert len(s44) == 1 and s44[0] == Element.alpha(g) ** 2

    s64 = ideal_slice(g, 0, (6, 4))
    basis = monomial_basis(g, (6, 4))
    index = {mono: i for i, mono in enumerate(basis)}
    from rank2chern.linalg import RowSpan

    span = RowSpan(len(basis))
    for x in s64:
        span.add(slice_vector(x, index))
    rel = 2 * (Element.alpha(g) * Element.beta(g)) + 2 * gamma(g)
    assert span.contains(slice_vector(rel, index))
    assert len(basis) - span.rank == 1  # gr-dimension drops to 1

    assert ideal_slice(g, 1, (4, 4)) == []


def test_ideal_slice_keys_are_sorted_lex():
    keys = ideal_slice_keys(3, 0, (10, 8))
    assert keys == sorted(keys)
    assert all(k >= 2 * 3 for (_, k, _, _, _) in keys)


def test_ideal_slice_keys_refuse_a_genus_out_of_range():
    # below 2 and above MAX_GENUS, as ideal_slice does
    for g, bd in ((1, (6, 4)), (9, (40, 36))):
        with pytest.raises(ValueError, match="genus must be an integer"):
            ideal_slice_keys(g, 0, bd)
        with pytest.raises(ValueError, match="genus must be an integer"):
            ideal_slice(g, 0, bd)


def _full_monomial_slice(g, d, bd):
    """The rows beta**ell * rel_generator(k, m, sigma, g) of the keys of bd,
    their freeness checked by elimination over every psi monomial of the
    slice; a dependent family raises the VerificationError of that check."""
    beta = Element.beta(g)
    keys = ideal_slice_keys(g, d, bd)
    rows = [beta**ell * rel_generator(k, m, rel.prim_basis(g, l)[idx], g) for ell, k, m, l, idx in keys]
    basis = monomial_basis(g, bd)
    index = {mono: i for i, mono in enumerate(basis)}
    if rows and row_reduce(QMatrix(len(basis), [slice_vector(x, index) for x in rows]))[0] != len(rows):
        raise VerificationError(f"relation family dependent at g={g}, d={d}, bd={bd}")
    return rows


@pytest.mark.parametrize("g", [2, 3, 4])
def test_ideal_slice_is_the_free_full_monomial_family(g):
    cases = 0
    for d in (0, 1, 2):
        for bd in bidegree_cone(default_max_coh(g, d)):
            rows = _full_monomial_slice(g, d, bd)
            assert ideal_slice(g, d, bd) == rows, (d, bd)
            cases += len(rows)
    assert cases > 0


def test_the_full_monomial_oracle_sees_a_repeated_primitive_class(monkeypatch):
    # a primitive basis whose last class repeats its first: every invariant
    # ring stays free, so only the elimination over psi monomials sees it
    original = rel.prim_basis
    monkeypatch.setattr(rel, "prim_basis", lambda g, l: original(g, l)[:-1] + original(g, l)[:1])
    assert len(ideal_slice(2, 0, (5, 4))) == 4
    with pytest.raises(VerificationError, match=r"relation family dependent at g=2, d=0, bd=\(5, 4\)$"):
        _full_monomial_slice(2, 0, (5, 4))


# ----------------------------------------------------------------------
# tables


def test_omega_tables_g2():
    expected = {(0, 0): 1, (2, 2): 1, (3, 2): 4, (4, 2): 1, (6, 4): 1}
    by_ideal = omega_from_ideal(2, 0)
    by_pairing = omega_from_pairing(2)
    assert by_ideal.dims == expected
    assert by_pairing.dims == expected
    # q = t specialization: known Betti numbers 1 + t^2 + 4t^3 + t^4 + t^6
    assert by_ideal.poincare_coefficients() == {0: 1, 2: 1, 3: 4, 4: 1, 6: 1}


def test_omega_table_vanishes_above_top_coh_at_d0():
    # computing past the top degree must give empty slices
    table = omega_from_ideal(2, 0, max_coh=8)
    assert all(coh <= 6 for (coh, _) in table.dims)


def test_omega_ideal_matches_closed_series_d1():
    g, d = 2, 1
    table = omega_from_ideal(g, d)
    expansion = omega_closed_form(g, d).series_coefficients(table.max_coh)
    assert OmegaTable.from_expansion(g, d, table.max_coh, expansion) == table


def test_from_expansion_reads_q_as_the_chern_degree():
    table = OmegaTable.from_expansion(2, 0, 6, BiPoly({(0, 0): 1, (2, 1): 4}))
    assert table.dims == {(0, 0): 1, (3, 2): 4}


@pytest.mark.parametrize("coeff", [F(1, 2), -1])
def test_from_expansion_refuses_a_coefficient_that_is_no_dimension(coeff):
    with pytest.raises(VerificationError, match=r"q\^1 t\^2"):
        OmegaTable.from_expansion(2, 0, 6, BiPoly({(0, 0): 1, (1, 2): coeff}))


def test_merged_report_prefixes_each_witness_with_its_label():
    witness = {"where": "bd=(0, 0)", "expected": "1", "got": "0"}
    rep = merged_report("check", "adjoint", 2, 0, [("e_alpha", 3, [witness]), ("h_beta", 4, [])])
    assert rep["cases"] == 7 and rep["pass"] is False
    assert rep["failures"] == [{**witness, "where": "e_alpha: bd=(0, 0)"}]
    assert witness["where"] == "bd=(0, 0)"


def test_dims_mismatches_reads_an_absent_bidegree_as_zero():
    cases, witnesses = dims_mismatches({(0, 0): 1, (2, 2): 1}, {(2, 2): 1, (3, 2): 4}, "x, ")
    assert cases == 3
    assert witnesses == [
        {"where": "x, bd=(0, 0)", "expected": "0", "got": "1"},
        {"where": "x, bd=(3, 2)", "expected": "4", "got": "0"},
    ]


# Oracles: the tables over every psi monomial of a bidegree.


def _omega_from_ideal_full(g, d):
    max_coh = rel.default_max_coh(g, d)
    dims = {}
    for bd in bidegree_cone(max_coh):
        n = len(monomial_basis(g, bd)) - len(ideal_slice(g, d, bd))
        if n:
            dims[tuple(bd)] = n
    return OmegaTable(g, d, max_coh, dims)


def _omega_from_pairing_full(g, B):
    dims = {}
    for bd in bidegree_cone(6 * g - 6):
        rk, _ = row_reduce(pairing_matrix(g, bd, B))
        if rk:
            dims[tuple(bd)] = rk
    return OmegaTable(g, 0, 6 * g - 6, dims)


def _pairing_kernel_matches_ideal_full(g, bd, B):
    basis = monomial_basis(g, bd)
    if not basis:
        return True
    index = {mono: i for i, mono in enumerate(basis)}
    matrix = pairing_matrix(g, bd, B)
    rk, _ = row_reduce(matrix)
    elements = ideal_slice(g, 0, bd)
    if len(elements) != len(basis) - rk:
        return False
    mt = transpose(matrix)
    return not any(mt.mul_vector(slice_vector(x, index)) for x in elements)


# Oracles: the per-(g, l) summand builders, each summand l of genus g built
# in its own right rather than as the invariant ring of genus g - l.


def _summand_basis(g, l, bd):
    coh, chern = bd[0] - 3 * l, bd[1] - 2 * l
    if coh < 0 or chern < 0 or chern % 2 or (coh - chern) % 2:
        return []
    out = []
    for c in range(g - l + 1):
        b = (coh - chern) // 2 - c
        a = chern // 2 - b - 2 * c
        if b < 0:
            break
        if a >= 0:
            out.append((a, b, c))
    return out


def _slice_families(g, d, bd):
    coh, chern = bd
    if chern % 2:
        return
    for k in range(2 * g + 2 * d, g + chern // 2 + 1):
        ell2 = chern + 2 * g - 2 * k
        if ell2 < 0 or ell2 % 2:
            continue
        ell = ell2 // 2
        rest = coh - 4 * ell - 2 * k + 2 * g  # equals 2m + l
        if rest < 0:
            continue
        for l in range(rest % 2, min(g, rest) + 1, 2):
            m = (rest - l) // 2
            if m >= 0 and l + m <= g:
                yield ell, k, m, l


def _summand_relations(g, d, l, bd):
    index = {mono: i for i, mono in enumerate(_summand_basis(g, l, bd))}
    return [
        {index[(a, b + ell, c)]: v for (a, b, c), v in rel.rel_generator_poly(g, k, m, l).terms.items()}
        for ell, k, m, ll in _slice_families(g, d, bd)
        if ll == l
    ]


def _summand_pairing(g, l, bd, B):
    cols = _summand_basis(g, l, (6 * g - 6 - bd[0], 4 * g - 4 - bd[1]))
    rows = []
    for p in _summand_basis(g, l, bd):
        entries = ((j, _value(g, _numerator(g, l, *(x + y for x, y in zip(p, q))))) for j, q in enumerate(cols))
        rows.append({j: v * B for j, v in entries if v})
    return rel.QMatrix(len(cols), rows)


def _primitive(row):
    """A row of exact values as its primitive int row, a positive multiple
    of it: two rows that agree up to a positive factor agree here."""
    lcm = math.lcm(*(F(v).denominator for v in row.values()))
    ints = {j: int(v * lcm) for j, v in row.items()}
    content = math.gcd(*ints.values())
    return {j: v // content for j, v in ints.items()}


def _decomposition_mismatches(g, d, shift):
    """(cases, mismatches) of the invariant-ring core at genus g - l, read at
    bd - shift(l), against the per-(g, l) oracles on every bidegree and l;
    relation rows are compared up to a positive factor."""
    cases, bad = 0, []
    for bd in bidegree_cone(rel.default_max_coh(g, d)):
        for l in range(g + 1):
            gl, sbd = g - l, (bd[0] - shift(l)[0], bd[1] - shift(l)[1])
            rows = rel._invariant_relations(gl, d, sbd)
            got = (invariant_basis(gl, sbd), [_primitive(r) for r in rows])
            want = (_summand_basis(g, l, bd), [_primitive(r) for r in _summand_relations(g, d, l, bd)])
            if d == 0:
                got += (row_reduce(rel._invariant_pairing(gl, sbd))[0],)
                want += (row_reduce(_summand_pairing(g, l, bd, F(-5, 2)))[0],)
            cases += 1
            if got != want:
                bad.append((bd, l))
    return cases, bad


def _matches_closed_form(table):
    expansion = omega_closed_form(table.g, table.d).series_coefficients(table.max_coh)
    return OmegaTable.from_expansion(table.g, table.d, table.max_coh, expansion) == table


@pytest.mark.parametrize("g", [2, 3, 4])
def test_summand_routes_match_full_monomial_oracles(g):
    for d in (0, 1, 2):
        assert omega_from_ideal(g, d).dims == _omega_from_ideal_full(g, d).dims, d
    # the route takes no B; the oracle ranks B-scaled pairing matrices
    assert omega_from_pairing(g).dims == _omega_from_pairing_full(g, F(-5, 2)).dims


@pytest.mark.parametrize("g", [5, 6, 7, 8])
def test_summand_routes_reproduce_closed_form(g):
    for d in (0, 1, 2):
        assert _matches_closed_form(omega_from_ideal(g, d)), d
    assert _matches_closed_form(omega_from_pairing(g))


@pytest.mark.parametrize("g", range(2, 9))
def test_summand_l_is_the_invariant_ring_of_genus_g_minus_l(g):
    # same bases, relation rows and pairing ranks at every bidegree and every
    # l, l = g - 1 and l = g (invariant genus 1 and 0) included
    for d in (0, 1, 2):
        cases, bad = _decomposition_mismatches(g, d, lambda l: (3 * l, 2 * l))
        assert cases > 0 and bad == [], (d, bad[:5])


def test_a_wrong_summand_shift_disagrees():
    for g in (3, 4):
        for d in (0, 1):
            assert _decomposition_mismatches(g, d, lambda l: (3 * l, l))[1], (g, d)


def test_invariant_pairings_are_proportional_to_the_summand_pairings():
    # M_l(bd) of genus g is kappa(g, l) times the genus g - l pairing at bd - (3l, 2l)
    for g in (3, 4, 5):
        for l in range(g + 1):
            ratios = set()
            for bd in bidegree_cone(6 * g - 6):
                sbd = (bd[0] - 3 * l, bd[1] - 2 * l)
                want = _summand_pairing(g, l, bd, 1).data
                got = rel._invariant_pairing(g - l, sbd).data
                assert [set(r) for r in got] == [set(r) for r in want], (g, l, bd)
                ratios |= {F(w[j], r[j]) for r, w in zip(got, want) for j in r}
            assert len(ratios) <= 1 and 0 not in ratios, (g, l, ratios)


def test_the_invariant_core_has_its_own_genus_bound():
    assert invariant_basis(0, (0, 0)) == [(0, 0, 0)] and _virasoro_line(0) == (1, ())
    assert invariant_basis(1, (6, 4)) == [(1, 1, 0), (0, 0, 1)] and _virasoro_line(1) == (1, ((1,),))
    for g in (-1, 9):
        with pytest.raises(ValueError, match="genus"):
            invariant_basis(g, (0, 0))
        with pytest.raises(ValueError, match="genus"):
            _virasoro_line(g)
    with pytest.raises(ValueError, match="genus"):
        check_genus(1)


def test_the_invariant_core_refuses_a_genus_that_is_no_int():
    # one genus check: a bool is not read as 1, even with genus 1 memoised
    assert _virasoro_line(1) == (1, ((1,),))
    for g in (True, 1.0):
        with pytest.raises(ValueError, match=r"genus must be an integer in \[0, 8\]"):
            _virasoro_line(g)
        with pytest.raises(ValueError, match=r"genus must be an integer in \[0, 8\]"):
            invariant_basis(g, (6, 4))
    with pytest.raises(ValueError, match=r"genus must be an integer in \[0, 8\], got 9"):
        invariant_basis(9, (40, 36))


def test_a_negative_d_is_refused_where_the_relation_family_is_built():
    bd = (8, 8)
    for build in (omega_from_ideal, lambda g, d: ideal_slice_keys(g, d, bd), lambda g, d: ideal_slice(g, d, bd)):
        with pytest.raises(ValueError, match="d must be >= 0"):
            build(3, -1)
        for d in (True, 1.5):
            with pytest.raises(TypeError, match="d must be an int"):
                build(3, d)
    # the check runs at entry, also where no summand has a relation family
    with pytest.raises(TypeError, match="d must be an int"):
        ideal_slice_keys(3, True, (1, 0))


@pytest.fixture
def clear_slices():
    """Empties the invariant-ring slice memos when called, right after a
    patch, and again at teardown, so no slice built under a patch reaches a
    later test."""

    def clear():
        rel._invariant_relations.cache_clear()
        rel._pairing_slice.cache_clear()

    yield clear
    clear()


def test_the_table_routes_read_only_invariant_rings(monkeypatch, clear_slices):
    # no psi monomial, primitive class or exterior basis, and no integral at l > 0
    def refused(*args):
        raise AssertionError("a summand route read the full algebra")

    numerator = rel._numerator
    read = []

    def invariant_only(g, l, a, b, c):
        if l:
            raise AssertionError("a summand route read an integral at l > 0")
        read.append(g)
        return numerator(g, l, a, b, c)

    for name in ("prim_basis", "exterior_basis"):
        monkeypatch.setattr(rel, name, refused)
    monkeypatch.setattr(rel, "_numerator", invariant_only)
    clear_slices()  # else a memoised slice skips the patched integral
    for d in (0, 1, 2):
        assert _matches_closed_form(omega_from_ideal(6, d)), d
    assert _matches_closed_form(omega_from_pairing(6))
    assert read, "the pairing route no longer reads the patched integral"
    assert all(pairing_kernel_matches_ideal(4, bd) for bd in bidegree_cone(18))


def test_summands_count_every_monomial():
    # sum over l of dim Prim_l * #invariant monomials of genus g - l is the size of the slice
    for g in (2, 3, 4):
        for bd in bidegree_cone(rel.default_max_coh(g, 2)):
            count = sum(prim_dim(g, l) * len(invariant_basis(g - l, (bd[0] - 3 * l, bd[1] - 2 * l))) for l in range(g + 1))
            assert count == len(monomial_basis(g, bd)), (g, bd)
        assert all(prim_dim(g, l) == len(prim_basis(g, l)) for l in range(g + 1))


def test_pairing_read_from_the_wrong_summand_disagrees(monkeypatch, clear_slices):
    g = 3
    assert _matches_closed_form(omega_from_pairing(g))
    numerator = rel._numerator

    def misplaced(g, l, a, b, c):  # genus g - l reads the value of genus g - l + 1
        return numerator(g + 1, l, a, b, c)

    monkeypatch.setattr(rel, "_numerator", misplaced)
    clear_slices()
    assert not _matches_closed_form(omega_from_pairing(g))
    assert not all(pairing_kernel_matches_ideal(g, bd) for bd in bidegree_cone(6 * g - 6))


def test_kernel_match_catches_what_the_table_cannot(monkeypatch, clear_slices):
    g = 3
    numerator = rel._numerator

    def scaled(g, l, a, b, c):  # every gamma-term three times too large
        return numerator(g, l, a, b, c) * (3 if c else 1)

    monkeypatch.setattr(rel, "_numerator", scaled)
    clear_slices()
    assert _matches_closed_form(omega_from_pairing(g))
    assert not all(pairing_kernel_matches_ideal(g, bd) for bd in bidegree_cone(6 * g - 6))


def test_duplicated_summand_relation_is_dependent(monkeypatch, clear_slices):
    families = rel._invariant_families
    assert _matches_closed_form(omega_from_ideal(2, 0))

    def repeat_first(g, d, bd):  # the first relation of each invariant slice, twice
        found = list(families(g, d, bd))
        return found + found[:1]

    monkeypatch.setattr(rel, "_invariant_families", repeat_first)
    clear_slices()
    with pytest.raises(VerificationError, match="relation family dependent at .* summand l=0"):
        omega_from_ideal(2, 0)


def test_omega_pairing_normalization_invariance():
    # the route takes no B: the full-monomial oracle's ranks at every B
    # are its table
    for g in (2, 3):
        table = omega_from_pairing(g)
        for B in (F(1), F(7, 3), F(-5, 2)):
            assert _omega_from_pairing_full(g, B).dims == table.dims, (g, B)


def test_omega_pairing_symmetric_table():
    table = omega_from_pairing(3)
    for (coh, chern), n in table.dims.items():
        assert table.dim(12 - coh, 8 - chern) == n


def test_computed_table_t_minus_one():
    # the t = -1 specialization of the computed tables is (1-q^2)^(2g-2)
    from rank2chern.genfun import BiPoly

    for g in (2, 3):
        table = omega_from_pairing(g)
        specialized = {}
        for (coh, chern), n in table.dims.items():
            sign = -1 if (coh - chern) % 2 else 1
            specialized[chern] = specialized.get(chern, 0) + sign * n
        q = BiPoly.monomial(1, 0)
        target = (1 - q**2) ** (2 * g - 2)
        assert {(i, 0): F(v) for i, v in specialized.items() if v} == target.terms


def test_vanishing_corollary():
    assert verify_vanishing_corollary(omega_from_pairing(2))
    assert verify_vanishing_corollary(omega_from_ideal(3, 0))
    bad = OmegaTable(2, 0, 6, {(6, 2): 1})
    assert not verify_vanishing_corollary(bad)


def test_kernel_coincidence_g2():
    for bd in bidegree_cone(6):
        assert pairing_kernel_matches_ideal(2, bd)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_summand_kernel_match_equals_full_monomial_oracle(g):
    for bd in bidegree_cone(6 * g - 6):
        got = pairing_kernel_matches_ideal(g, bd)
        assert got == _pairing_kernel_matches_ideal_full(g, bd, F(-5, 2)), bd
        assert got, bd


def test_kernel_match_without_a_relation_family_fails(monkeypatch, clear_slices):
    g = 3
    families = rel._invariant_families

    def drop_first(g, d, bd):  # every invariant slice loses its first relation family
        return list(families(g, d, bd))[1:]

    monkeypatch.setattr(rel, "_invariant_families", drop_first)
    clear_slices()
    bds = list(bidegree_cone(6 * g - 6))
    got = [pairing_kernel_matches_ideal(g, bd) for bd in bds]
    assert not all(got)
    # the full-monomial oracle loses the same family on the same bidegrees
    assert got == [_pairing_kernel_matches_ideal_full(g, bd, 1) for bd in bds]


def test_kernel_match_with_a_perturbed_relation_fails(monkeypatch, clear_slices):
    # same count of free relations, but some of them leave the kernel
    g = 3
    original = rel._generator_terms

    def perturbed(g, k, m, l):  # the first term of each relation, doubled
        terms = list(original(g, k, m, l))
        return [(a, b, c, 2 * w if i == 0 else w) for i, (a, b, c, w) in enumerate(terms)]

    monkeypatch.setattr(rel, "_generator_terms", perturbed)
    clear_slices()
    assert not all(pairing_kernel_matches_ideal(g, bd) for bd in bidegree_cone(6 * g - 6))


def test_each_invariant_slice_is_built_once_per_process(monkeypatch, clear_slices):
    # the rings do not depend on g: both routes at g = 5 and the g = 4
    # pairing suite share their slices, and each is built and reduced once
    families, pairing = rel._invariant_families, rel._invariant_pairing
    built = {"relations": [], "pairing": []}
    reduced = []

    def counted_families(g, d, bd):
        built["relations"].append((g, d, bd))
        return families(g, d, bd)

    def counted_pairing(g, bd):
        built["pairing"].append((g, bd))
        return pairing(g, bd)

    def counted_reduce(matrix):
        reduced.append(matrix)
        return row_reduce(matrix)

    monkeypatch.setattr(rel, "_invariant_families", counted_families)
    monkeypatch.setattr(rel, "_invariant_pairing", counted_pairing)
    monkeypatch.setattr(rel, "row_reduce", counted_reduce)
    clear_slices()
    assert _matches_closed_form(omega_from_ideal(5, 0))
    assert _matches_closed_form(omega_from_pairing(5))
    assert suite_pairing(4)["pass"]
    for kind, keys in built.items():
        assert keys and len(keys) == len(set(keys)), kind
    nonempty = [key for key in built["relations"] if rel._invariant_relations(*key)]
    assert len(reduced) == len(nonempty) + len(built["pairing"])


@pytest.mark.parametrize("bad", [True, False, 1.5, F(1)])
def test_the_ideal_route_refuses_a_bound_that_is_not_an_int(bad, clear_slices):
    # a bool d was reported as the table's d and filed under d = 1 or 0
    clear_slices()
    with pytest.raises(TypeError, match="d must be an int"):
        omega_from_ideal(3, bad)
    with pytest.raises(TypeError, match="max_coh must be an int"):
        omega_from_ideal(3, 0, bad)
    assert rel._invariant_relations.cache_info().currsize == 0


def test_the_ideal_route_refuses_a_negative_max_coh(clear_slices):
    # a negative bound gave an empty table
    clear_slices()
    with pytest.raises(ValueError, match="max_coh must be >= 0, got -4"):
        omega_from_ideal(3, 0, -4)
    assert rel._invariant_relations.cache_info().currsize == 0
    assert omega_from_ideal(3, 0, 0).dims == {(0, 0): 1}


def _memo_sizes(warm: str) -> dict:
    """{module.name: cache size} of every lru_cache defined in a package
    module, read in a fresh interpreter that imports the package and its CLI
    and then runs ``warm``."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys, rank2chern, rank2chern.cli\n"
        f"{warm}\n"
        "for mod in [m for name, m in sys.modules.items() if name.startswith('rank2chern')]:\n"
        "    for name, fn in vars(mod).items():\n"
        "        if hasattr(fn, 'cache_info') and fn.__module__ == mod.__name__:\n"
        "            print(f'{mod.__name__}.{name}', fn.cache_info().currsize)\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return {name: int(n) for name, n in map(str.split, proc.stdout.splitlines())}


def test_import_leaves_every_memo_empty():
    # found by introspection, so a memo the benchmark's cold-run guard does not list is checked too
    sizes = _memo_sizes("")
    assert len(sizes) == 12
    assert {name for name, n in sizes.items() if n} == set()


def test_the_memo_scan_names_a_warm_memo():
    sizes = _memo_sizes("import rank2chern.algebra as a; a.gamma_power(2, 1)")
    assert {name for name, n in sizes.items() if n} == {"rank2chern.algebra.gamma_power"}


def test_ideal_multiplicative_closure_g2():
    assert ideal_multiplicative_closure_holds(2, 0)
    assert ideal_multiplicative_closure_holds(2, 1)


def test_omega_table_json_roundtrip():
    table = omega_from_ideal(2, 1)
    data = json.loads(table.to_json())
    dims = {(row["coh"], row["chern"]): row["dim"] for row in data["table"]}
    again = OmegaTable(data["genus"], data["d"], data["maxCoh"], dims)
    assert again == table
    csv = table.to_csv()
    assert csv.splitlines()[0] == "coh,chern,dim"


def test_report_policy():
    # a check or suite passes only with cases and no failures; ten witnesses kept
    failures = [{"where": str(i), "expected": "0", "got": "1"} for i in range(12)]
    assert rel.report("check", "descent", 2, 1, 0, [])["pass"] is False
    assert rel.report("suite", "main", 2, 0, 3, []) == {
        "suite": "main", "genus": 2, "d": 0, "cases": 3, "pass": True, "failures": []
    }
    rep = rel.report("check", "relations", 3, 0, 12, failures)
    assert rep["pass"] is False and rep["failures"] == failures[:10]


def test_route_disagreements_raise_verification_error(monkeypatch):
    g = 2
    assert len(ideal_slice(g, 0, (4, 4))) == 1  # warms the prim_basis cache
    rel._checked_coefficient.cache_clear()  # else a memoised key skips the comparison
    monkeypatch.setattr(rel, "_sum_route", lambda *args: ({(0, 0, 0): 1}, 1))  # the int pair of 1
    with pytest.raises(VerificationError, match="routes disagree at d=0, k=5, m=0, l=0, g=2$"):
        modified_mumford(0, 5, 0, Element.one(g), g)
    rel._invariant_relations.cache_clear()  # else a memoised slice skips the freeness check
    monkeypatch.setattr(rel, "row_reduce", lambda matrix: (0, []))
    with pytest.raises(VerificationError, match="dependent"):
        ideal_slice(g, 0, (4, 4))
    with pytest.raises(VerificationError, match="size mismatch"):
        prim_basis.__wrapped__(g, 1)


def test_route_disagreement_is_checked_per_call_and_never_memoised(monkeypatch):
    g, l = 2, 1
    first, second = prim_basis(g, l)[:2]
    assert modified_mumford(0, 7, 1, first, g)  # the honest routes agree and fill the memo
    rel._checked_coefficient.cache_clear()
    monkeypatch.setattr(rel, "_closed_route", lambda *args: ({(0, 0, 0): 1}, 1))  # the int pair of 1
    for sig in (first, second):
        with pytest.raises(VerificationError, match="routes disagree at d=0, k=7, m=1, l=1, g=2$"):
            modified_mumford(0, 7, 1, sig, g)
    info = rel._checked_coefficient.cache_info()
    assert info.misses == 2 and info.currsize == 0


def test_a_summand_is_kept_exactly_when_its_invariant_basis_is_nonempty():
    # _summands' ring-cone test against the bases it no longer builds, for
    # every genus g - l <= 8 of a summand and a box around the cone
    for g in range(2, 9):
        for coh in range(-6, 60):
            for chern in range(-6, 60):
                shifted = [(l, g - l, (coh - 3 * l, chern - 2 * l)) for l in range(g + 1)]
                want = [s for s in shifted if invariant_basis(s[1], s[2])]
                assert rel._summands(g, (coh, chern)) == want, (g, coh, chern)


# one row per argument that a builder once took and read as something else,
# or crashed on inside; each is now refused at entry
ENTRY_CONTRACT = {
    "float key of an Element": (lambda: Element(2, {(0.5, 0, 0): 1}), TypeError),
    "bool key of an Element": (lambda: Element(2, {(True, 0, 0): 1}), TypeError),
    "float exponent of Element.monomial": (lambda: Element.monomial(2, 2.0, 0, 0), TypeError),
    "float key of an InvariantPoly": (lambda: InvariantPoly(2, {(0, 0, 1.0): 1}), TypeError),
    "float exponent of BiPoly.monomial": (lambda: BiPoly.monomial(0.5, 0), TypeError),
    "modified relation without a sigma": (lambda: modified_mumford(0, 4, 0, 1, 2), TypeError),
    "generator without a sigma": (lambda: rel_generator(4, 0, None, 2), TypeError),
    "slice at a one-entry bidegree": (lambda: ideal_slice(2, 0, (4,)), ValueError),
    "identities at a bool genus": (lambda: gf.identities("n21", True), TypeError),
    "identities at a float d": (lambda: gf.identities("intermediate", 2, d=1.5), TypeError),
    "stack t = -1 at a bool rank": (lambda: gf.stack_t_minus_one_matches(gf.omega_stack(2, 2), True, 2), TypeError),
    "stack t = -1 at a bool genus": (lambda: gf.stack_t_minus_one_matches(gf.omega_stack(2, 2), 2, True), TypeError),
    "closed t = -1 at a bool genus": (
        lambda: gf.closed_form_t_minus_one_matches(gf.omega_closed_form(2), True),
        TypeError,
    ),
    "rank3 t = -1 at a bool genus": (lambda: gf.rank3_t_minus_one_matches(gf.omega_rank3(2), True), TypeError),
    "series to a float degree": (lambda: gf.omega_closed_form(2).series_coefficients(2.5), TypeError),
    "series to a bool degree": (lambda: gf.omega_closed_form(2).series_coefficients(True), TypeError),
    "series to a negative degree": (lambda: gf.omega_closed_form(2).series_coefficients(-1), ValueError),
}


@pytest.mark.parametrize("row", ENTRY_CONTRACT)
def test_the_builders_refuse_what_they_misread_at_entry(row):
    call, error = ENTRY_CONTRACT[row]
    with pytest.raises(error):
        call()
