import random
from fractions import Fraction as F

from rank2chern.algebra import Element, gamma, monomial_basis
from rank2chern.integral import IntegralConfig
from rank2chern.operators import (
    check_adjointness,
    check_closure,
    check_descent,
    check_sl2_relations,
    commutator,
    d_alpha_op,
    d_psi_op,
    diagonal_h_is_shifted_chern_grading,
    invariant_subring_identities_hold,
    make_sl2,
    mul_op,
    operator_adjointness_failures,
    operator_bidegree_shift,
    sl2_closure,
)
from rank2chern.relations import ideal_slice, prim_basis, rel_generator_poly, slice_vector


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


def test_operator_leibniz_consistency():
    # f(alpha * x) = [f, alpha](x) + alpha * f(x), checked extensionally
    g = 2
    _, _, f = make_sl2("alpha", 0, g)
    bracket = commutator(f, mul_op(Element.alpha(g)))
    rnd = random.Random(2)
    for _ in range(20):
        x = _rand_element(rnd, g)
        assert f(Element.alpha(g) * x) == bracket(x) + Element.alpha(g) * f(x)


def test_f_psi_commutator_closed_form():
    # [f_alpha, psi_j] = -d_alpha psi_j + (beta/4) d_psi_{j+g} for j <= g
    rnd = random.Random(9)
    for g in (2, 3):
        _, _, f = make_sl2("alpha", 0, g)
        for j in range(1, g + 1):
            lhs = commutator(f, mul_op(Element.psi(g, j)))
            rhs = (-1) * (d_alpha_op(g) @ mul_op(Element.psi(g, j))) + F(1, 4) * (
                mul_op(Element.beta(g)) @ d_psi_op(g, j + g)
            )
            for _ in range(20):
                x = _rand_element(rnd, g)
                assert lhs(x) == rhs(x)


def test_sl2_relations_pass():
    assert check_sl2_relations(2, 0, 6)["pass"]
    assert check_sl2_relations(2, 2, 6)["pass"]
    assert check_sl2_relations(3, 1, 8)["pass"]


def test_sl2_relations_negative_control():
    # replacing g+2d-1 by g+2d breaks [e,f] = h
    g = 2
    e, h, f = make_sl2("alpha", 0, g)
    f_bad = f + 1 * d_alpha_op(g)
    bad = commutator(e, f_bad) - h
    assert not bad(Element.one(g)).is_zero()


def test_invariant_subring_identities():
    assert invariant_subring_identities_hold(2)
    assert invariant_subring_identities_hold(3)
    assert invariant_subring_identities_hold(4)


def test_diagonal_h_is_shifted_chern_grading():
    assert diagonal_h_is_shifted_chern_grading(2)
    assert diagonal_h_is_shifted_chern_grading(3, 8)


def test_adjointness_passes_and_is_scale_invariant():
    for B in (F(1), F(7, 3)):
        rep = check_adjointness(2, IntegralConfig(2, B))
        assert rep["pass"] and rep["cases"] > 0


def test_adjointness_negative_control():
    # the d = 1 lowering operator is adapted to a different ideal and is
    # not self-adjoint for the d = 0 pairing
    g = 2
    _, _, f1 = make_sl2("alpha", 1, g)
    _, fails = operator_adjointness_failures(
        f1, 1, operator_bidegree_shift("alpha", "f"), g, IntegralConfig(g)
    )
    assert fails


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


def test_closure_preserves_d_ideal():
    # f^d maps an ideal slice into the span of the target ideal slice
    from rank2chern.linalg import RowSpan

    for g, d in ((2, 0), (2, 1), (3, 1)):
        _, _, fa = make_sl2("alpha", d, g)
        _, _, fb = make_sl2("beta", d, g)
        for bd in [(2 * k, 2 * k) for k in range(g, g + 3)]:
            for x in ideal_slice(g, d, bd, check_independent=False):
                for op, shift in ((fa, (-2, -2)), (fb, (-4, -2))):
                    img = op(x)
                    if img.is_zero():
                        continue
                    target = (bd[0] + shift[0], bd[1] + shift[1])
                    basis = monomial_basis(g, target)
                    index = {mono: i for i, mono in enumerate(basis)}
                    span = RowSpan(len(basis))
                    for y in ideal_slice(g, d, target, check_independent=False):
                        span.add(slice_vector(y, index, len(basis)))
                    assert span.contains(slice_vector(img, index, len(basis)))
