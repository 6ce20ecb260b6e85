import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chern.algebra import Element, gamma_power
from rank2chern.relations import mumford_relation, prim_basis
from rank2chern.series import InvariantPoly, phi_series


def xi(r: int, g: int) -> InvariantPoly:
    """xi_r, the t^r coefficient of the d = 1 series; degree 2r."""
    if r < 0:
        raise ValueError("negative index")
    return phi_series(1, g, r)[r]


def xi_rs(r: int, s: int, g: int) -> InvariantPoly:
    """xi_{r,s} = sum_{l} C(r+s-l, r) beta^(s-l) (2 gamma)^l / l! * xi_{r-l}.

    Cohomological degree 2r + 4s; Chern degree of the embedded element is
    at most 2r + 2s.
    """
    if r < 0 or s < 0:
        raise ValueError("negative index")
    beta = InvariantPoly.monomial(g, 0, 1, 0)
    gam = InvariantPoly.monomial(g, 0, 0, 1)
    out = InvariantPoly.zero(g)
    for l in range(min(r, s) + 1):
        c = F(math.comb(r + s - l, r), math.factorial(l))
        out = out + (beta ** (s - l) * (gam.scale(2)) ** l * xi(r - l, g)).scale(c)
    return out


def coh_degree(p: InvariantPoly):
    """Common cohomological degree 2a + 4b + 6c of the terms of p, or None."""
    degs = {2 * a + 4 * b + 6 * c for a, b, c in p.terms}
    if len(degs) != 1:
        return None
    return degs.pop()


def alpha_part(p: InvariantPoly) -> InvariantPoly:
    """Terms of p free of beta and gamma (the top-Chern-degree part of a
    coefficient of cohomological degree 2n)."""
    return InvariantPoly(p.g, {k: v for k, v in p.terms.items() if k[1] == 0 and k[2] == 0})


def test_phi_constant_and_linear_coefficients():
    for d in (-1, 0, 1, 2, 5):
        c = phi_series(d, 2, 2)
        assert c[0] == InvariantPoly.one(2)
        assert c[1] == InvariantPoly.monomial(2, 1, 0, 0)


def test_phi_quadratic_coefficient():
    # hand expansion: c_{d,2} = alpha^2/2 + (3-2d)/2 beta
    for d in (0, 1, 2):
        c = phi_series(d, 2, 2)[2]
        expected = InvariantPoly(2, {(2, 0, 0): F(1, 2), (0, 1, 0): F(3 - 2 * d, 2)})
        assert c == expected


def test_xi_small_values():
    g = 2
    assert xi(0, g) == InvariantPoly.one(g)
    assert xi(1, g) == InvariantPoly.monomial(g, 1, 0, 0)
    assert xi(2, g) == InvariantPoly(g, {(2, 0, 0): F(1, 2), (0, 1, 0): F(1, 2)})


def test_xi_rs_small_values():
    g = 2
    assert xi_rs(0, 0, g) == InvariantPoly.one(g)
    assert xi_rs(0, 1, g) == InvariantPoly.monomial(g, 0, 1, 0)
    assert xi_rs(1, 1, g) == InvariantPoly(g, {(1, 1, 0): F(2), (0, 0, 1): F(2)})


def test_xi_rs_chern_bound():
    # xi_{r,s} lives in Chern degree <= 2r + 2s once embedded
    for g in (2, 3):
        for r in range(4):
            for s in range(4):
                elem = xi_rs(r, s, g).embed()
                for mono in elem.terms:
                    bd = Element.monomial(g, *mono).bidegree()
                    assert bd.coh == 2 * r + 4 * s
                    assert bd.chern <= 2 * r + 2 * s


def test_coefficient_degrees_and_alpha_part():
    for d in (0, 1, 2):
        for g in (2, 3):
            coeffs = phi_series(d, g, 8)
            fact = 1
            for n, c in enumerate(coeffs):
                if n:
                    fact *= n
                assert coh_degree(c) == 2 * n
                assert alpha_part(c) == InvariantPoly.monomial(g, n, 0, 0, F(1, fact))
                # embedded Chern degree <= 2n, short exactly of the beta/gamma terms
                for mono in c.embed().terms:
                    bd = Element.monomial(g, *mono).bidegree()
                    assert bd.chern <= 2 * n


def test_phi_series_prefixes_agree():
    for d in (0, 1, 2):
        full = phi_series(d, 3, 10)
        assert len(full) == 11
        for order in range(10):
            assert phi_series(d, 3, order) == full[: order + 1]
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        phi_series(0, 2, -1)
    # refused also when the cache holds the order they equal
    phi_series(0, 2, 1)
    for bad in (True, 1.0, 1.5):
        with pytest.raises(TypeError, match="truncation order must be an int"):
            phi_series(0, 2, bad)


# ----------------------------------------------------------------------
# the Fraction recurrence n c_n = sum_k (k X_k) c_{n-k} that phi_series ran
# before it was built on the integer numerators N_n = n! c_n, kept verbatim
# as an oracle (the recursive call reads the oracle itself)


def _phi_series_fraction(d: int, g: int, order: int) -> tuple:
    if order == 0:
        return (InvariantPoly.one(g),)
    head = _phi_series_fraction(d, g, order - 1)
    c = InvariantPoly.zero(g)
    for k in range(1, order + 1):  # k X_k, from the module docstring
        i = k // 2
        if k % 2 == 0:
            kx = InvariantPoly.monomial(g, 0, i, 0, 3 - 2 * d)
        else:
            kx = InvariantPoly(g, {(1, i, 0): 1, (0, i - 1, 1): 2} if i else {(1, 0, 0): 1})
        c = c + kx * head[order - k]
    return head + (c.scale(F(1, order)),)


def _embed_by_sums(p: InvariantPoly) -> Element:
    """InvariantPoly.embed as it was, one Element sum per term."""
    g = p.g
    out = Element.zero(g)
    for (a, b, c), v in p.terms.items():
        out = out + Element._raw(g, {(a, b, 0): v}) * gamma_power(g, c)
    return out


@pytest.mark.parametrize("g", [2, 3, 4])
def test_phi_series_matches_the_fraction_recurrence(g):
    for d in (-1, 0, 1, 2):
        assert phi_series(d, g, 12) == _phi_series_fraction(d, g, 12), (d, g)


def test_embed_matches_the_sum_of_embedded_terms():
    for g in (2, 3, 4):
        for d in (0, 1, 2):
            for c in phi_series(d, g, 10):
                assert c.embed() == _embed_by_sums(c)


_POLY_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4)),
    st.fractions(-4, 4, max_denominator=3).filter(bool),
    max_size=5,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(g=st.integers(2, 4), x=_POLY_TERMS, y=_POLY_TERMS)
def test_embed_and_products_match_their_hand_loops(g, x, y):
    # embed through the shared linear map and the product through the
    # shared accumulation, against a sum of products and a nested loop
    x, y = InvariantPoly(g, x), InvariantPoly(g, y)
    assert x.embed() == _embed_by_sums(x)
    assert x * y == InvariantPoly(g, _oracle_mul(x.terms, y.terms, g))
    assert all(type(v) is int or v.denominator > 1 for v in (x * y).terms.values())


def test_factorial_times_a_coefficient_is_integral():
    # N_n = n! c_{d,n} is integral: the relation builders rely on it; all
    # 364 triples (g, d, n), not a random draw of them
    for g in range(2, 9):
        for d in range(4):
            for n in range(13):
                scaled = phi_series(d, g, n)[n].scale(math.factorial(n))
                assert all(isinstance(v, int) for v in scaled.terms.values()), (g, d, n)
                assert scaled.terms[(n, 0, 0)] == 1, (g, d, n)  # alpha^n / n!


def test_invariant_poly_rejects_negative_exponents():
    for key in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            InvariantPoly(2, {key: 1})
        with pytest.raises(ValueError):
            InvariantPoly.monomial(2, *key)
    # gamma^(g+1) = 0 is the ring's truncation, not an invalid key
    assert InvariantPoly.monomial(2, 0, 0, 3).is_zero()


# ----------------------------------------------------------------------
# one-off oracle: the three-factor closed form over a formal square root
# of beta (Laurent exponents allowed) must reproduce the pole-free route.
# Keys are (alpha exp, half-beta exp, gamma exp); gamma^(g+1) = 0.


def _oracle_mul(p1, p2, g):
    out = {}
    for (a1, h1, c1), v1 in p1.items():
        for (a2, h2, c2), v2 in p2.items():
            c = c1 + c2
            if c > g:
                continue
            k = (a1 + a2, h1 + h2, c)
            s = out.get(k, F(0)) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _ser_mul(s1, s2, order, g):
    out = [{} for _ in range(order + 1)]
    for i, p1 in enumerate(s1):
        if not p1:
            continue
        for j in range(order + 1 - i):
            p2 = s2[j]
            if not p2:
                continue
            prod = _oracle_mul(p1, p2, g)
            tgt = out[i + j]
            for k, v in prod.items():
                s = tgt.get(k, F(0)) + v
                if s:
                    tgt[k] = s
                else:
                    del tgt[k]
    return out


def _ser_exp(s, order, g):
    assert not s[0]
    out = [{} for _ in range(order + 1)]
    out[0] = {(0, 0, 0): F(1)}
    power = list(out)
    fact = 1
    for k in range(1, order + 1):
        power = _ser_mul(power, s, order, g)
        fact *= k
        for n, p in enumerate(power):
            for key, v in p.items():
                c = v / fact
                cur = out[n].get(key, F(0)) + c
                if cur:
                    out[n][key] = cur
                else:
                    del out[n][key]
    return out


def _gen_binomial(x: F, j: int) -> F:
    out = F(1)
    for t in range(j):
        out *= (x - t) / (t + 1)
    return out


def _three_factor_oracle(d, g, order):
    # factor 1: (1 - beta t^2)^(d - 3/2) by the generalized binomial series
    f1 = [{} for _ in range(order + 1)]
    for j in range(order // 2 + 1):
        coeff = _gen_binomial(F(2 * d - 3, 2), j) * (-1) ** j
        if coeff:
            f1[2 * j] = {(0, 2 * j, 0): coeff}
    # factor 2: exp(-2 gamma t / beta)
    f2_arg = [{} for _ in range(order + 1)]
    if order >= 1:
        f2_arg[1] = {(0, -2, 1): F(-2)}
    f2 = _ser_exp(f2_arg, order, g)
    # factor 3: exp((alpha/(2 sqrt b) + gamma/(b sqrt b)) * 2 artanh(t sqrt b))
    w = [{} for _ in range(order + 1)]
    for k in range((order - 1) // 2 + 1):
        n = 2 * k + 1
        w[n] = {(0, n, 0): F(2, n)}
    x = {(1, -1, 0): F(1, 2), (0, -3, 1): F(1)}
    xw = [_oracle_mul(x, p, g) if p else {} for p in w]
    f3 = _ser_exp(xw, order, g)
    return _ser_mul(_ser_mul(f1, f2, order, g), f3, order, g)


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("g", [2, 3])
def test_pole_free_rearrangement_matches_three_factor_oracle(d, g):
    order = 8
    oracle = _three_factor_oracle(d, g, order)
    production = phi_series(d, g, order)
    for n in range(order + 1):
        expected = {(a, 2 * b, c): v for (a, b, c), v in production[n].terms.items()}
        assert oracle[n] == expected, f"mismatch at d={d}, g={g}, t^{n}"


# ----------------------------------------------------------------------
# second route for the plain Mumford relations at every m: build
# F(t) = sum_j C(m,j) (g-l-j)_(m-j) (1 - beta t^2)^(m-j) (-2 gamma t^3)^j by
# its defining product of truncated series, multiply by the phi_series
# coefficients and read off [t^n], n = k + m - g - l.  Keys are plain
# (alpha, beta, gamma) exponents here.


def _mumford_factor(g, l, m, order):
    one = [{(0, 0, 0): F(1)}] + [{} for _ in range(order)]
    one_minus_beta_t2 = [dict(p) for p in one]
    cube = [{} for _ in range(order + 1)]
    if order >= 2:
        one_minus_beta_t2[2] = {(0, 1, 0): F(-1)}
    if order >= 3:
        cube[3] = {(0, 0, 1): F(-2)}
    out = [{} for _ in range(order + 1)]
    for j in range(m + 1):
        term = one
        for _ in range(m - j):
            term = _ser_mul(term, one_minus_beta_t2, order, g)
        for _ in range(j):
            term = _ser_mul(term, cube, order, g)
        weight = math.comb(m, j) * math.perm(g - l - j, m - j)
        for n, p in enumerate(term):
            for key, v in p.items():
                cur = out[n].get(key, F(0)) + weight * v
                if cur:
                    out[n][key] = cur
                else:
                    out[n].pop(key, None)
    return out


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("g", [2, 3])
def test_mumford_relation_matches_series_product(d, g):
    cases = 0
    for l in range(g + 1):
        basis = prim_basis(g, l)
        for m in range(g - l + 1):
            for k in range(2 * g + 2 * d + 5):
                n = k + m - g - l
                if n < 0:
                    want = InvariantPoly.zero(g)
                else:
                    phi = [dict(c.terms) for c in phi_series(d, g, n)]
                    product = _ser_mul(phi, _mumford_factor(g, l, m, n), n, g)
                    want = InvariantPoly(g, product[n])
                scalar = (-1) ** l * F(2) ** (2 * g - m - k)
                embedded = want.embed()
                for sig in basis:
                    got = mumford_relation(d, k, m, l, g).embed() * sig
                    assert got == embedded * sig * scalar, f"d={d}, g={g}, k={k}, m={m}, l={l}"
                    cases += 1
    assert cases
