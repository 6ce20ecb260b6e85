import random
from fractions import Fraction as F

import pytest

from rank2chern import operators
from rank2chern.algebra import (
    Element,
    bidegree_cone,
    d_alpha,
    d_beta,
    d_psi,
    gamma,
    gamma_power,
    monomial_basis,
)
from rank2chern.integral import IntegralConfig
from rank2chern.operators import (
    Operator,
    check_adjointness,
    check_closure,
    check_descent,
    check_sl2_relations,
    make_sl2,
    operator_adjointness_failures,
    sl2_closure,
)
from rank2chern.relations import ideal_slice, prim_basis, rel_generator_poly, slice_vector


# ----------------------------------------------------------------------
# the defining formulas, composed from derivations and products: the
# reference that the monomial maps of make_sl2 are checked against


def psi_number(x):
    """N = sum_i psi_i d/d psi_i: scales each term by its psi count."""
    return Element._raw(x.g, {k: c * k[2].bit_count() for k, c in x.terms.items() if k[2]})


def pair_laplacian(x):
    """L = sum_{i=1..g} d/d psi_i d/d psi_{i+g} (d/d psi_{i+g} acts first)."""
    out = Element.zero(x.g)
    for i in range(1, x.g + 1):
        out = out + d_psi(d_psi(x, i + x.g), i)
    return out


def reference_triple(family, d, g, const_shift=0, laplacian=True):
    """e = v, h = 2 v d_v + N - c, f = -v d_v^2 + c d_v - d_v N - (w/4) L as
    maps of elements; f takes the constant c + const_shift, and drops its
    L term unless ``laplacian``."""
    if family == "alpha":
        var, other, d_var = Element.alpha(g), Element.beta(g), d_alpha
    else:
        var, other, d_var = Element.beta(g), Element.alpha(g), d_beta
    c = g + 2 * d - 1

    def e(x):
        return var * x

    def h(x):
        return (var * d_var(x)).scale(2) + psi_number(x) - x.scale(c)

    def f(x):
        dx = d_var(x)
        out = dx.scale(c + const_shift) - var * d_var(dx) - d_var(psi_number(x))
        if laplacian:
            out = out - F(1, 4) * (other * pair_laplacian(x))
        return out

    return e, h, f


def reference_sl2(family, d, g):
    if family != "diagonal":
        return reference_triple(family, d, g)
    pairs = zip(reference_triple("alpha", d, g), reference_triple("beta", d, g))
    return tuple(lambda x, a=a, b=b: a(x) + b(x) for a, b in pairs)


def _rand_element(rnd, g, nterms=3):
    x = Element.zero(g)
    for _ in range(nterms):
        x = x + Element.monomial(
            g, rnd.randrange(3), rnd.randrange(2), rnd.randrange(1 << (2 * g)), F(rnd.randrange(-5, 6) or 1)
        )
    return x


def test_operator_values():
    g = 2
    e, h, f = make_sl2("alpha", 0, g)
    assert f(Element.one(g)).is_zero()
    assert f(Element.alpha(g)) == (g - 1) * Element.one(g)
    assert h(Element.alpha(g)) == (3 - g) * Element.alpha(g)
    assert f(gamma(g)) == -F(g, 2) * Element.beta(g)
    assert e(Element.beta(g)) == Element.alpha(g) * Element.beta(g)
    for d in (1, 2):
        _, _, fd = make_sl2("alpha", d, g)
        assert fd(Element.alpha(g)) == (g + 2 * d - 1) * Element.one(g)


def _pair_laplacian_closed(g, a, b, mask):
    # L(alpha^a beta^b psi_S) = sum over pairs {i, i+g} in S of
    # (-1)^(p_i + p_{i+g}) alpha^a beta^b psi_{S - {i, i+g}}, p_k = #{j in S: j < k}
    out = Element.zero(g)
    for i in range(1, g + 1):
        lo, hi = 1 << (i - 1), 1 << (i + g - 1)
        if mask & lo and mask & hi:
            p = (mask & (lo - 1)).bit_count() + (mask & (hi - 1)).bit_count()
            out = out + Element.monomial(g, a, b, mask ^ lo ^ hi, (-1) ** p)
    return out


def test_triples_match_monomial_closed_forms():
    # on m = v^n w^k psi_S with s = |S| and c = g + 2d - 1:
    # h(m) = (2n + s - c) m and f(m) = n (c - n + 1 - s) m / v - (w/4) L(m)
    for g in (2, 3):
        for d in (0, 1, 2):
            c = g + 2 * d - 1
            for family in ("alpha", "beta"):
                e, h, f = make_sl2(family, d, g)
                for bd in bidegree_cone(g, 12):
                    for a, b, mask in monomial_basis(g, bd):
                        m = Element.monomial(g, a, b, mask)
                        s = mask.bit_count()
                        if family == "alpha":
                            v, w, n, m_over_v = Element.alpha(g), Element.beta(g), a, (a - 1, b, mask)
                        else:
                            v, w, n, m_over_v = Element.beta(g), Element.alpha(g), b, (a, b - 1, mask)
                        lowered = Element.zero(g)
                        if n:
                            lowered = Element.monomial(g, *m_over_v, n * (c - n + 1 - s))
                        laplacian = _pair_laplacian_closed(g, a, b, mask)
                        assert e(m) == v * m
                        assert h(m) == m.scale(2 * n + s - c)
                        assert f(m) == lowered - F(1, 4) * (w * laplacian)
    rnd = random.Random(5)
    for g in (2, 3):
        for _ in range(20):
            x = _rand_element(rnd, g)
            old = Element.zero(g)
            for i in range(1, 2 * g + 1):
                old = old + Element.psi(g, i) * d_psi(x, i)
            assert psi_number(x) == old


@pytest.mark.parametrize("g", [2, 3, 4])
def test_operators_match_the_defining_formulas(g):
    # every member of the alpha, beta and diagonal triples, on every monomial
    # of coh <= 12 and on random multi-term elements (linearity); each image
    # keeps the Sparse contract: nonzero coefficients, each an int when
    # integral and a Fraction otherwise
    rnd = random.Random(g)
    monomials = [Element.monomial(g, *m) for bd in bidegree_cone(g, 12) for m in monomial_basis(g, bd)]
    elements = monomials + [_rand_element(rnd, g, 6) for _ in range(10)]
    for d in (0, 1, 2):
        for family in ("alpha", "beta", "diagonal"):
            for op, ref in zip(make_sl2(family, d, g), reference_sl2(family, d, g)):
                for x in elements:
                    img = op(x)
                    assert img == ref(x), (family, d, x)
                    for c in img.terms.values():
                        assert c and (type(c) is int or (type(c) is F and c.denominator != 1)), (family, d, x)


def test_operator_refuses_an_element_of_another_genus():
    for op in make_sl2("alpha", 0, 2) + make_sl2("diagonal", 0, 2):
        with pytest.raises(ValueError, match="genus mismatch"):
            op(Element.one(3))


def test_operator_leibniz_consistency():
    # f(alpha * x) = [f, alpha](x) + alpha * f(x) with [f, alpha] = -[e, f] = -h
    g = 2
    _, h, f = make_sl2("alpha", 0, g)
    rnd = random.Random(2)
    for _ in range(20):
        x = _rand_element(rnd, g)
        assert f(Element.alpha(g) * x) == -h(x) + Element.alpha(g) * f(x)


def test_f_psi_commutator_closed_form():
    # [f_alpha, psi_j] = -d_alpha psi_j + (beta/4) d_psi_{j+g} for j <= g
    rnd = random.Random(9)
    for g in (2, 3):
        _, _, f = make_sl2("alpha", 0, g)
        for j in range(1, g + 1):
            psi_j = Element.psi(g, j)
            for _ in range(20):
                x = _rand_element(rnd, g)
                lhs = f(psi_j * x) - psi_j * f(x)
                rhs = -d_alpha(psi_j * x) + F(1, 4) * (Element.beta(g) * d_psi(x, j + g))
                assert lhs == rhs


def test_sl2_relations_pass():
    assert check_sl2_relations(2, 0, 6)["pass"]
    assert check_sl2_relations(2, 2, 6)["pass"]
    assert check_sl2_relations(3, 1, 8)["pass"]


def test_sl2_relations_negative_control():
    # replacing g+2d-1 by g+2d breaks [e,f] = h
    g = 2
    e, h, f = make_sl2("alpha", 0, g)

    def f_bad(x):
        return f(x) + d_alpha(x)

    one = Element.one(g)
    assert not (e(f_bad(one)) - f_bad(e(one)) - h(one)).is_zero()


def _patch_triple(monkeypatch, families, **perturbation):
    """Replace the triples of ``families`` by the reference formulas with the
    given perturbation of f, applied through Operator as the checks do."""
    original = operators._triple

    def triple(family, d, g):
        ops = original(family, d, g)
        if family not in families:
            return ops
        refs = reference_triple(family, d, g, **perturbation)
        return tuple(
            Operator(g, lambda a, b, mask, r=r: r(Element.monomial(g, a, b, mask)).terms, op.shift)
            for r, op in zip(refs, ops)
        )

    monkeypatch.setattr(operators, "_triple", triple)


def _assert_fails_with_witnesses(rep):
    assert not rep["pass"] and rep["cases"] > 0
    assert rep["failures"]
    for witness in rep["failures"]:
        assert witness["where"] and witness["expected"] != witness["got"]


@pytest.mark.parametrize(
    "families, perturbation",
    [
        (("alpha", "beta"), {"const_shift": 1}),  # f with the constant c + 1
        (("alpha",), {"laplacian": False}),  # f_alpha without -(beta/4) L
    ],
)
def test_checks_fail_on_a_perturbed_f(monkeypatch, families, perturbation):
    _patch_triple(monkeypatch, families, **perturbation)
    _assert_fails_with_witnesses(check_sl2_relations(2, 0, 6))
    _assert_fails_with_witnesses(check_descent(2, 0))


def test_descent_sees_the_laplacian_that_the_relations_cannot(monkeypatch):
    # without L in both families the triples still satisfy every bracket
    # (L couples the families, and each family alone commutes with it), so
    # only the descent identities notice that f is wrong
    _patch_triple(monkeypatch, ("alpha", "beta"), laplacian=False)
    assert check_sl2_relations(2, 0, 6)["pass"]
    _assert_fails_with_witnesses(check_descent(2, 0))


def test_invariant_subring_identities():
    # on Q[alpha, beta, gamma], N acts as 2 gamma d/d gamma and L as
    # -2 gamma d^2/d gamma^2 + 2g d/d gamma: checked on alpha^a beta^b gamma^c
    for g in (2, 3, 4):
        for c in range(g + 1):
            for a in range(3):
                for b in range(3):
                    x = Element.monomial(g, a, b, 0) * gamma_power(g, c)
                    assert psi_number(x) == x.scale(2 * c)
                    want = Element.zero(g)
                    if c >= 1:
                        coeff = -2 * c * (c - 1) + 2 * g * c
                        want = (Element.monomial(g, a, b, 0) * gamma_power(g, c - 1)).scale(coeff)
                    assert pair_laplacian(x) == want, (g, a, b, c)


def test_diagonal_h_is_shifted_chern_grading():
    # h_diagonal acts on a homogeneous element as chern - (2g - 2); at chern
    # 2g - 2 the nonzero images of h_alpha and h_beta cancel and leave no key
    for g, max_coh in ((2, 6), (3, 8)):
        _, h, _ = make_sl2("diagonal", 0, g)
        _, h_a, _ = make_sl2("alpha", 0, g)
        cancelled = 0
        for bd in bidegree_cone(g, max_coh):
            for mono in monomial_basis(g, bd):
                x = Element.monomial(g, *mono)
                assert h(x) == x.scale(bd.chern - (2 * g - 2)), (g, x)
                image = h.action(*mono)
                assert all(image.values()) and (image == {}) == (bd.chern == 2 * g - 2), (g, x)
                cancelled += not image and bool(h_a.action(*mono))
        assert cancelled, g


def test_adjointness_passes_and_is_scale_invariant():
    for B in (F(1), F(7, 3)):
        rep = check_adjointness(2, IntegralConfig(2, B))
        assert rep["pass"] and rep["cases"] > 0


def test_adjointness_negative_control():
    # the d = 1 lowering operator is adapted to a different ideal and is
    # not self-adjoint for the d = 0 pairing
    g = 2
    _, _, f1 = make_sl2("alpha", 1, g)
    _, fails = operator_adjointness_failures(f1, 1, g, IntegralConfig(g))
    assert fails


def test_adjointness_refuses_an_operator_without_a_shift():
    # the diagonal e and f add (2, 2) on one part and (4, 2) on the other
    e, h, f = make_sl2("diagonal", 0, 2)
    assert (e.shift, h.shift, f.shift) == (None, (0, 0), None)
    with pytest.raises(ValueError, match="bihomogeneous"):
        operator_adjointness_failures(e, 1, 2, IntegralConfig(2))


def test_members_shift_by_their_bidegree():
    # each triple member maps every monomial of bd into bd + op.shift
    for g in (2, 3):
        for d in (0, 1, 2):
            for family, (coh, chern) in (("alpha", (2, 2)), ("beta", (4, 2))):
                e, h, f = make_sl2(family, d, g)
                assert (e.shift, h.shift, f.shift) == ((coh, chern), (0, 0), (-coh, -chern))
                landed = 0
                for bd in bidegree_cone(g, 12):
                    for mono in monomial_basis(g, bd):
                        x = Element.monomial(g, *mono)
                        for op in (e, h, f):
                            img = op(x)
                            if img:
                                want = (bd.coh + op.shift[0], bd.chern + op.shift[1])
                                assert img.bidegree() == want, (family, d, x, op.shift)
                                landed += 1
                assert landed


def test_descent_passes():
    assert check_descent(2, 0)["pass"]
    assert check_descent(2, 1)["pass"]
    assert check_descent(3, 0, 8)["pass"]


def test_descent_boundary_and_explicit_case():
    g, d = 2, 0
    _, _, fa = make_sl2("alpha", d, g)
    _, _, fb = make_sl2("beta", d, g)
    # k = 2g + 2d: f kills the lowest generators
    for l in (0, 1):
        sig = prim_basis(g, l)[0]
        low = rel_generator_poly(g, 2 * g + 2 * d, 0, l).embed() * sig
        assert fa(low).is_zero()
        assert fb(low).is_zero()

    # k=5, m=0, l=1: f_alpha R_{5,0,1} sigma = (2g-5) R_{4,0,1} sigma = -R_{4,0,1} sigma
    sig = prim_basis(g, 1)[2]
    lhs = fa(rel_generator_poly(g, 5, 0, 1).embed() * sig)
    rhs = (rel_generator_poly(g, 4, 0, 1).embed() * sig).scale(2 * g - 5)
    assert lhs == rhs

    # m = 0: the f_beta image is the empty sum
    lhs_b = fb(rel_generator_poly(g, 5, 0, 1).embed() * sig)
    assert lhs_b == Element.zero(g)


def test_closure_matches_ideal_dimensions_with_buffer_sweep():
    rep = check_closure(2, buffers=(4, 8, 12))
    assert rep["pass"]


def test_closure_membership_witnesses():
    g = 2
    result = sl2_closure(g, 8)
    assert result["converged"]
    # alpha^2 enters through f applied to higher-Chern elements
    assert result["dims"].get((4, 4)) == 1
    # all psi_i survive: nothing lands in (3, 2)
    assert (3, 2) not in result["dims"]


def test_closure_stops_at_the_first_sweep_that_adds_nothing():
    for g, buf in ((2, 8), (3, 8)):
        result = sl2_closure(g, buf)
        assert result["converged"] and result["sweeps"] == 2
        # the sweep before the idle one still added vectors
        assert not sl2_closure(g, buf, max_sweeps=1)["converged"]


def test_closure_preserves_d_ideal():
    # f^d maps an ideal slice into the span of the target ideal slice
    from rank2chern.linalg import RowSpan

    for g, d in ((2, 0), (2, 1), (3, 1)):
        _, _, fa = make_sl2("alpha", d, g)
        _, _, fb = make_sl2("beta", d, g)
        for bd in [(2 * k, 2 * k) for k in range(g, g + 3)]:
            for x in ideal_slice(g, d, bd):
                for op in (fa, fb):
                    img = op(x)
                    if img.is_zero():
                        continue
                    target = (bd[0] + op.shift[0], bd[1] + op.shift[1])
                    basis = monomial_basis(g, target)
                    index = {mono: i for i, mono in enumerate(basis)}
                    span = RowSpan(len(basis))
                    for y in ideal_slice(g, d, target):
                        span.add(slice_vector(y, index))
                    assert span.contains(slice_vector(img, index))
