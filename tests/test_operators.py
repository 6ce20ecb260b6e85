import cProfile
import fractions
import json
import math
import pstats
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chern import integral, operators, suites
from rank2chern.algebra import (
    Element,
    _exact,
    bidegree_cone,
    check_genus,
    d_alpha,
    d_beta,
    d_psi,
    gamma,
    gamma_power,
    koszul_sign,
    monomial_basis,
)
from rank2chern.integral import graded_pairing, top_bidegree
from rank2chern.linalg import RowSpan
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
from rank2chern.relations import ideal_slice, merged_report, prim_basis, rel_generator_poly, report
from rank2chern.series import InvariantPoly
from test_relations import slice_vector


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
                for bd in bidegree_cone(12):
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
    monomials = [Element.monomial(g, *m) for bd in bidegree_cone(12) for m in monomial_basis(g, bd)]
    elements = monomials + [_rand_element(rnd, g, 6) for _ in range(10)]
    for d in (0, 1, 2):
        for family in ("alpha", "beta", "diagonal"):
            for op, ref in zip(make_sl2(family, d, g), reference_sl2(family, d, g)):
                for x in elements:
                    img = op(x)
                    assert img == ref(x), (family, d, x)
                    for c in img.terms.values():
                        assert c and (type(c) is int or (type(c) is F and c.denominator != 1)), (family, d, x)


def test_actions_are_integer_maps_over_one_denominator():
    # e and h over den = 1, f over den = 4; every action value is an int
    for g in (2, 3):
        for d in (0, 1, 2):
            for family in ("alpha", "beta", "diagonal"):
                ops = make_sl2(family, d, g)
                assert [op.den for op in ops] == [1, 1, 4], (family, d)
                for bd in bidegree_cone(12):
                    for mono in monomial_basis(g, bd):
                        for op in ops:
                            assert all(type(v) is int for v in op.action(*mono).values()), (family, d, mono)


# random elements of genus 2 and 3 with int and Fraction coefficients
SL2_IMAGES = settings(max_examples=80, deadline=None, derandomize=True, database=None)
SL2_COEFFS = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=6)).filter(bool)


@SL2_IMAGES
@given(
    data=st.data(),
    g=st.sampled_from((2, 3)),
    d=st.integers(0, 2),
    family=st.sampled_from(("alpha", "beta", "diagonal")),
)
def test_operator_images_match_the_formulas_in_exact_form(data, g, d, family):
    # Operator.__call__ divides the integer action by den: each image is the
    # reference formula's, with each coefficient an int when integral and
    # never Fraction(n, 1)
    keys = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, (1 << 2 * g) - 1))
    x = data.draw(st.dictionaries(keys, SL2_COEFFS, max_size=5).map(lambda t: Element(g, t)))
    for op, ref in zip(make_sl2(family, d, g), reference_sl2(family, d, g)):
        img = op(x)
        assert img == ref(x), (family, d, x)
        for c in img.terms.values():
            assert c and (type(c) is int or (type(c) is F and c.denominator != 1)), (family, d, x)


def test_operator_refuses_an_element_of_another_genus():
    for op in make_sl2("alpha", 0, 2) + make_sl2("diagonal", 0, 2):
        with pytest.raises(ValueError, match="genus mismatch"):
            op(Element.one(3))


@pytest.mark.parametrize("den, error", [(-4, ValueError), (0, ValueError), (2.0, TypeError), ("4", TypeError), (True, TypeError)])
def test_operator_refuses_a_den_that_is_not_a_positive_int(den, error):
    # -4 would negate every image and 0 fail only at the first call
    e, _, _ = make_sl2("alpha", 0, 2)
    with pytest.raises(error, match="den"):
        Operator(2, e.action, e.shift, den)


def test_operator_refuses_a_value_that_is_not_an_element():
    # h_alpha(gamma) is 0; read as an Element key, gamma's exponent would be a psi mask
    with pytest.raises(TypeError, match="InvariantPoly"):
        make_sl2("alpha", 0, 3)[1](InvariantPoly.monomial(3, 0, 0, 1))


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


def _patch_triple(monkeypatch, families, keep_den=False, psi_degree=None, **perturbation):
    """Replace the triples of ``families`` by the reference formulas with the
    given perturbation of f, applied through Operator as the checks do: over
    den = 1, or with ``keep_den`` over each member's own den, its action then
    returning den times the reference image.  With ``psi_degree`` only the
    monomials with that many psi factors take the perturbed formulas, so
    that f stays bihomogeneous but is wrong in some bidegrees only."""
    original = operators._triple

    def triple(family, d, g):
        ops = original(family, d, g)
        if family not in families:
            return ops
        refs = zip(reference_triple(family, d, g, **perturbation), reference_triple(family, d, g))
        out = []
        for (r, plain), op in zip(refs, ops):
            den = op.den if keep_den else 1

            def action(a, b, mask, r=r, plain=plain, den=den):
                ref = r if psi_degree in (None, mask.bit_count()) else plain
                return {k: _exact(den * v) for k, v in ref(Element.monomial(g, a, b, mask)).terms.items()}

            out.append(Operator(g, action, op.shift, den))
        return tuple(out)

    monkeypatch.setattr(operators, "_triple", triple)


# ----------------------------------------------------------------------
# oracles: the three sl2 checks with one Element per operator application
# and a full product per pairing, as they were first written; the checks
# on term dicts must return the same report byte for byte


def oracle_sl2_relations(g, d, max_coh=None):
    if max_coh is None:
        max_coh = 6 * g - 6
    names_a, names_b = ("e_a", "h_a", "f_a"), ("e_b", "h_b", "f_b")
    ops = dict(zip(names_a + names_b, make_sl2("alpha", d, g) + make_sl2("beta", d, g)))
    failures = []
    cases = 0
    for mono in (m for bd in bidegree_cone(max_coh) for m in monomial_basis(g, bd)):
        x = Element.monomial(g, *mono)
        img = {name: op(x) for name, op in ops.items()}

        def bracket(a, b):
            return ops[a](img[b]) - ops[b](img[a])

        checks = []
        for tag, (e, h, f) in (("alpha", names_a), ("beta", names_b)):
            checks.append((f"[e,f]=h ({tag})", bracket(e, f) - img[h]))
            checks.append((f"[h,e]=2e ({tag})", bracket(h, e) - 2 * img[e]))
            checks.append((f"[h,f]=-2f ({tag})", bracket(h, f) + 2 * img[f]))
        for a in names_a:
            for b in names_b:
                checks.append((f"[{a},{b}]=0", bracket(a, b)))
        for label, residual in checks:
            cases += 1
            if residual:
                failures.append({"where": f"{label} on {x}", "expected": "0", "got": str(residual)})
    return report("check", "relations", g, d, cases, failures)


def oracle_adjointness_failures(F, sign, B=1):
    g = F.g
    top_c, top_ch = top_bidegree(g)
    dc, dch = F.shift
    failures = []
    cases = 0
    for bd in bidegree_cone(6 * g - 6):
        comp = (top_c - bd.coh - dc, top_ch - bd.chern - dch)
        left = monomial_basis(g, bd)
        right = monomial_basis(g, comp)
        if not left or not right:
            continue
        right = [(E, F(E)) for E in (Element.monomial(g, *m2) for m2 in right)]
        for m1 in left:
            D = Element.monomial(g, *m1)
            FD = F(D)
            for E, FE in right:
                cases += 1
                lhs = graded_pairing(FD, E, B)
                rhs = sign * graded_pairing(D, FE, B)
                if lhs != rhs:
                    failures.append({"where": f"<F({D}),{E}>", "expected": str(rhs), "got": str(lhs)})
                    if len(failures) >= 10:
                        return cases, failures
    return cases, failures


def oracle_adjointness(g, B=1):
    (ea, ha, fa), (eb, hb, fb) = make_sl2("alpha", 0, g), make_sl2("beta", 0, g)
    plan = [("e_alpha", ea, 1), ("e_beta", eb, 1), ("f_alpha", fa, 1), ("f_beta", fb, 1)]
    plan += [("h_alpha", ha, -1), ("h_beta", hb, -1)]
    parts = [(name, *oracle_adjointness_failures(op, sign, B)) for name, op, sign in plan]
    return merged_report("check", "adjoint", g, 0, parts)


def oracle_descent(g, d):
    _, _, fa = make_sl2("alpha", d, g)
    _, _, fb = make_sl2("beta", d, g)
    cases = 0
    failures = []
    for k in range(2 * g + 2 * d, 2 * g + 2 * d + 5):
        for l in range(g + 1):
            sigmas = prim_basis(g, l)
            for m in range(g - l + 1):
                R_k = rel_generator_poly(g, k, m, l).embed()
                lowered = (
                    ("f_alpha", fa, rel_generator_poly(g, k - 1, m, l).embed()),
                    ("f_beta", fb, rel_generator_poly(g, k - 1, m - 1, l).embed()),
                )
                scale = 2 * g + 2 * d - k
                for idx, sigma in enumerate(sigmas):
                    R_sigma = R_k * sigma
                    for name, f, R_down in lowered:
                        cases += 1
                        lhs = f(R_sigma)
                        rhs = (R_down * sigma).scale(scale)
                        if lhs != rhs:
                            where = f"{name}, k={k}, m={m}, l={l}, sigma#{idx}"
                            failures.append({"where": where, "expected": str(rhs), "got": str(lhs)})
    return report("check", "descent", g, d, cases, failures)


def _checks_match_oracles(g, ds):
    """The reports of the three checks at genus g and each d of ds, each
    asserted equal to its oracle's as JSON text."""
    pairs = [(check_adjointness(g), oracle_adjointness(g))]
    for d in ds:
        pairs.append((check_sl2_relations(g, d), oracle_sl2_relations(g, d)))
        pairs.append((check_descent(g, d), oracle_descent(g, d)))
    for got, want in pairs:
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return [got for got, _ in pairs]


@pytest.mark.parametrize("g", [2, 3])
def test_checks_match_their_element_oracles(g):
    assert all(rep["pass"] for rep in _checks_match_oracles(g, (0, 1, 2)))


@pytest.mark.parametrize("perturbation", [None, {"const_shift": 1}])
def test_relations_match_the_oracle_at_genus_four(monkeypatch, perturbation):
    # max_coh 16 is the benchmark's 17,415 cases; the perturbed f is
    # compared on the smaller cone, as the reference formulas are slow
    max_coh = 16
    if perturbation:
        _patch_triple(monkeypatch, ("alpha", "beta"), keep_den=True, **perturbation)
        max_coh = 10
    got, want = check_sl2_relations(4, 0, max_coh), oracle_sl2_relations(4, 0, max_coh)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert got["cases"] == (17415 if max_coh == 16 else 3420)
    assert got["pass"] == (perturbation is None)


@pytest.mark.parametrize(
    "families, perturbation",
    [
        (("alpha", "beta"), {"const_shift": 1}),
        (("alpha",), {"laplacian": False}),
        (("alpha", "beta"), {"laplacian": False}),
    ],
)
def test_checks_match_their_element_oracles_on_a_perturbed_f(monkeypatch, families, perturbation):
    # the failing reports carry witnesses, so their text is compared too;
    # g = 3 runs d = 0 only, as the reference formulas are slow to apply
    _patch_triple(monkeypatch, families, **perturbation)
    reports = _checks_match_oracles(2, (0, 1, 2)) + _checks_match_oracles(3, (0,))
    assert [rep["check"] for rep in reports if rep["failures"]]


@pytest.mark.parametrize("perturbation", [{"const_shift": 1}, {"laplacian": False}])
def test_checks_match_their_element_oracles_on_a_perturbed_f_over_den_4(monkeypatch, perturbation):
    # the perturbed f keeps den = 4 and an integer action, so every witness
    # of the failing reports is divided back from the den-scaled identities
    _patch_triple(monkeypatch, ("alpha", "beta"), keep_den=True, **perturbation)
    _, _, f = make_sl2("alpha", 0, 2)
    images = [f.action(*mono) for bd in bidegree_cone(12) for mono in monomial_basis(2, bd)]
    assert f.den == 4 and all(type(v) is int for image in images for v in image.values())
    reports = _checks_match_oracles(2, (0, 1, 2)) + _checks_match_oracles(3, (0,))
    failing = {rep["check"] for rep in reports if rep["failures"]}
    # without L the brackets still hold (see the Laplacian test below)
    assert failing == ({"adjoint", "descent"} if "laplacian" in perturbation else {"adjoint", "relations", "descent"})


def test_the_diagonal_family_refuses_actions_over_different_denominators(monkeypatch):
    # the patched alpha f is over den = 1 and the beta f over den = 4
    _patch_triple(monkeypatch, ("alpha",))
    with pytest.raises(ValueError, match="denominators 1 and 4"):
        make_sl2("diagonal", 0, 2)


def test_adjointness_witnesses_match_the_oracle_at_another_normalization():
    # with the sign flipped every member fails, and each witness prints
    # both pairings at B = 7/3
    for g in (2, 3):
        e, h, f = make_sl2("beta", 0, g)
        for op, sign in ((e, 1), (h, -1), (f, 1)):
            got = operator_adjointness_failures(op, -sign, F(7, 3))
            assert got[1] and got == oracle_adjointness_failures(op, -sign, F(7, 3))


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


@pytest.mark.parametrize("perturbation", [{"const_shift": 1}, {"laplacian": False}])
@pytest.mark.parametrize("g", [2, 3])
def test_descent_splits_a_failing_sum_into_the_oracle_witnesses(monkeypatch, g, perturbation):
    # f is wrong on psi-degree 2 only, so within one (l, sigma) some keys
    # (k, m) fail and others pass: the failing sum is split per key
    _patch_triple(monkeypatch, ("alpha", "beta"), keep_den=True, psi_degree=2, **perturbation)
    witnesses = []  # every witness, before the report keeps ten
    monkeypatch.setattr(operators, "report", lambda *args: witnesses.extend(args[-1]) or report(*args))
    got = check_descent(g, 0)
    assert json.dumps(got, sort_keys=True) == json.dumps(oracle_descent(g, 0), sort_keys=True)
    failing = {}  # (family, l, sigma) -> its failing keys
    for w in witnesses:
        name, _, _, l, sigma = w["where"].split(", ")
        failing.setdefault((name, int(l[2:]), sigma), []).append(w)
    assert any(0 < len(keys) < 5 * (g - l + 1) for (_, l, _), keys in failing.items())


def test_a_passing_descent_check_applies_each_f_once_per_primitive_class(monkeypatch):
    calls = []

    def counted(self, x):
        calls.append(self)
        return call(self, x)

    call = Operator.__call__
    monkeypatch.setattr(Operator, "__call__", counted)
    g = 3
    assert check_descent(g, 0)["pass"]
    assert len(calls) == 2 * sum(len(prim_basis(g, l)) for l in range(g + 1))


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
        for bd in bidegree_cone(max_coh):
            for mono in monomial_basis(g, bd):
                x = Element.monomial(g, *mono)
                assert h(x) == x.scale(bd.chern - (2 * g - 2)), (g, x)
                image = h.action(*mono)
                assert all(image.values()) and (image == {}) == (bd.chern == 2 * g - 2), (g, x)
                cancelled += not image and bool(h_a.action(*mono))
        assert cancelled, g


def test_adjointness_passes_and_is_scale_invariant():
    for B in (F(1), F(7, 3)):
        rep = check_adjointness(2, B)
        assert rep["pass"] and rep["cases"] > 0


def test_adjointness_negative_control():
    # the d = 1 lowering operator is adapted to a different ideal and is
    # not self-adjoint for the d = 0 pairing
    g = 2
    _, _, f1 = make_sl2("alpha", 1, g)
    _, fails = operator_adjointness_failures(f1, 1)
    assert fails


@pytest.mark.parametrize("sign, error", [(1.0, TypeError), (F(1), TypeError), (True, TypeError), (0, ValueError), (2, ValueError)])
def test_adjointness_refuses_a_sign_other_than_the_ints_1_and_minus_1(sign, error):
    # a float sign would turn the exact int sums into float arithmetic
    e, _, _ = make_sl2("alpha", 0, 2)
    with pytest.raises(error, match="sign"):
        operator_adjointness_failures(e, sign)


def test_adjointness_sums_pairings_in_ints():
    # every pairing is den(g) times its value, an int: a passing check makes
    # no Fraction arithmetic at all, the build of the line's memo included
    integral._virasoro_line.cache_clear()
    profile = cProfile.Profile()
    assert profile.runcall(check_adjointness, 3)["pass"]
    assert not [key for key in pstats.Stats(profile).stats if key[0] == fractions.__file__]


def test_adjointness_builds_each_monomial_basis_once(monkeypatch):
    # the six operators of one check share one map of monomial bases
    seen = []

    def counted(g, bd):
        seen.append(tuple(bd))
        return monomial_basis(g, bd)

    monkeypatch.setattr(operators, "monomial_basis", counted)
    assert check_adjointness(3)["pass"]
    assert seen and len(seen) == len(set(seen))


def test_adjointness_fails_on_a_perturbed_line_value(monkeypatch):
    # one pairing value moved by 1/den(3) breaks the Virasoro rule that makes
    # f self-adjoint; the witnesses are the Element oracle's, printed at B
    line = integral._virasoro_line

    def perturbed(g):
        den, rows = line(g)
        return den, (rows[0], (rows[1][0] + 1, *rows[1][1:]), *rows[2:])

    monkeypatch.setattr(integral, "_virasoro_line", perturbed)
    B = F(7, 3)
    rep = check_adjointness(3, B)
    assert not rep["pass"] and rep["failures"]
    assert rep == oracle_adjointness(3, B)


def test_adjointness_refuses_an_operator_without_a_shift():
    # the diagonal e and f add (2, 2) on one part and (4, 2) on the other
    e, h, f = make_sl2("diagonal", 0, 2)
    assert (e.shift, h.shift, f.shift) == (None, (0, 0), None)
    with pytest.raises(ValueError, match="bihomogeneous"):
        operator_adjointness_failures(e, 1)


def test_members_shift_by_their_bidegree():
    # each triple member maps every monomial of bd into bd + op.shift
    for g in (2, 3):
        for d in (0, 1, 2):
            for family, (coh, chern) in (("alpha", (2, 2)), ("beta", (4, 2))):
                e, h, f = make_sl2(family, d, g)
                assert (e.shift, h.shift, f.shift) == ((coh, chern), (0, 0), (-coh, -chern))
                landed = 0
                for bd in bidegree_cone(12):
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
    assert check_descent(3, 0)["pass"]


@pytest.mark.parametrize("d", [0, 1])
def test_descent_builds_each_relation_product_once(monkeypatch, d):
    # each R_{k,m,l} sigma is built once, for its left side at k, and read
    # again as the right side at k + 1
    g = 3
    calls = []

    def counted(terms, chain):
        calls.append((tuple(sorted(terms.items())), id(chain)))
        return times_chain(terms, chain)

    times_chain = operators._times_chain
    monkeypatch.setattr(operators, "_times_chain", counted)
    assert check_descent(g, d)["pass"]
    keys = sum(5 * (g - l + 1) * len(prim_basis(g, l)) for l in range(g + 1))
    assert len(calls) == len(set(calls)) <= keys


def test_a_passing_relation_check_builds_no_residual(monkeypatch):
    # the two sides compare as dicts and a k X term is added inline, so
    # only a failing identity builds its residual through _accumulate
    calls = []

    def counted(pairs, out):
        calls.append(1)
        return accumulate(pairs, out)

    accumulate = operators._accumulate
    monkeypatch.setattr(operators, "_accumulate", counted)
    rep = check_sl2_relations(3, 0)
    assert rep["pass"] and rep["cases"] % 15 == 0
    assert not calls


def test_each_mask_is_scanned_for_pairs_once_per_triple(monkeypatch):
    seen = []
    held = []  # keeps each triple's pairs alive, so that their ids stay distinct

    def counted(mask, pairs):
        held.append(pairs)
        seen.append((id(pairs), mask))
        return pair_terms(mask, pairs)

    pair_terms = operators._pair_terms
    monkeypatch.setattr(operators, "_pair_terms", counted)
    assert check_sl2_relations(3, 0, 10)["pass"]
    assert check_descent(2, 1)["pass"]
    assert seen and len(seen) == len(set(seen))


@pytest.mark.parametrize("d", [1.5, F(1), True])
def test_the_triples_refuse_a_d_that_is_not_an_int(d):
    # a float d gave float coefficients, and a bool was reported as d
    for call in (lambda: make_sl2("alpha", d, 2), lambda: make_sl2("diagonal", d, 2)):
        with pytest.raises(TypeError, match="d must be an int"):
            call()
    with pytest.raises(TypeError, match="d must be an int"):
        check_sl2_relations(2, d, 6)
    with pytest.raises(TypeError, match="d must be an int"):
        check_descent(2, d)


@pytest.mark.parametrize("bound", [6.5, 6.0, True])
def test_the_checks_refuse_a_coh_bound_that_is_not_an_int(bound):
    with pytest.raises(TypeError, match="max_coh must be an int"):
        check_sl2_relations(2, 0, bound)
    with pytest.raises(TypeError, match="coh_buffer must be an int"):
        sl2_closure(2, bound)


def test_the_relation_check_refuses_a_negative_max_coh():
    # a negative bound left no monomial: a 0-case failing report
    with pytest.raises(ValueError, match="max_coh must be >= 0, got -1"):
        check_sl2_relations(2, 0, -1)
    assert check_sl2_relations(2, 0, 0)["cases"] > 0


def test_the_diagonal_sum_mutates_no_image(monkeypatch):
    # the alpha e returns one dict object per monomial, the same on every
    # call; summing the beta e into it would change what alpha returns next
    original = operators._triple
    images = {}

    def triple(family, d, g):
        e, h, f = original(family, d, g)
        if family != "alpha":
            return e, h, f

        def action(a, b, mask):
            return images.setdefault((a, b, mask), e.action(a, b, mask))

        return Operator(g, action, e.shift), h, f

    monkeypatch.setattr(operators, "_triple", triple)
    e, _, _ = make_sl2("diagonal", 0, 2)
    ea, _, _ = original("alpha", 0, 2)
    x = Element.monomial(2, 1, 0, 0b101) + Element.monomial(2, 0, 2, 0)
    first = e(x)
    assert e(x) == first
    assert images and all(image == ea.action(*key) for key, image in images.items())


def test_descent_scaling_keeps_the_relation_generators_integral():
    # (k-g-l)! R_{k,m,l} and the same multiple of both lowered R's have int
    # coefficients over the descent key range, so the scaled check runs in
    # int arithmetic; its verdicts hold for any coefficients, only its speed
    # rests on this
    for g in (2, 3, 4):
        for d in (0, 1, 2):
            for k in range(2 * g + 2 * d, 2 * g + 2 * d + 5):
                for l in range(g + 1):
                    N = math.factorial(max(k - g - l, 0))
                    for m in range(g - l + 1):
                        for kk, mm in ((k, m), (k - 1, m), (k - 1, m - 1)):
                            R = rel_generator_poly(g, kk, mm, l).scale(N)
                            assert all(type(v) is int for v in R.terms.values()), (g, k, kk, mm, l)


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
    # alpha^2 enters through f applied to higher-Chern elements
    assert result["dims"].get((4, 4)) == 1
    # all psi_i survive: nothing lands in (3, 2)
    assert (3, 2) not in result["dims"]


def oracle_closure(g, coh_buffer=None, max_sweeps=60):
    """The f-closure by repeated sweeps, as first written: every sweep maps
    every echelon row of every span as an Element through Operator, and the
    loop stops after the first sweep that adds nothing."""
    check_genus(g)
    if coh_buffer is None:
        coh_buffer = 4 * g
    window = 6 * g - 6 + coh_buffer
    top_chern = 4 * g - 4

    bds = list(bidegree_cone(window))
    bases = {bd: monomial_basis(g, bd) for bd in bds}
    indexes = {bd: {mono: i for i, mono in enumerate(bases[bd])} for bd in bds}
    spans = {bd: RowSpan(len(bases[bd])) for bd in bds}

    for bd in bds:
        if bd.chern > top_chern:
            for i in range(len(bases[bd])):
                spans[bd].add({i: 1})

    # multiplication by the generators keeps the subspace an ideal; the
    # diagonal f acts through its two bihomogeneous parts f_alpha and f_beta
    ea, _, fa = make_sl2("alpha", 0, g)
    eb, _, fb = make_sl2("beta", 0, g)

    def times_psi(bit):
        return lambda a, b, mask: {} if mask & bit else {(a, b, mask | bit): koszul_sign(bit, mask)}

    psi_shift = Element.psi(g, 1).bidegree()
    maps = [ea, eb] + [Operator(g, times_psi(1 << i), psi_shift) for i in range(2 * g)] + [fa, fb]

    order = sorted(bds, key=lambda bd: (-bd.chern, -bd.coh))
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        changed = False
        for bd in order:
            span = spans[bd]
            if span.rank == 0:
                continue
            basis = bases[bd]
            for row in span.vectors():
                elem = Element(g, {basis[j]: c for j, c in row.items()})
                for op in maps:
                    target = (bd.coh + op.shift[0], bd.chern + op.shift[1])
                    # a full span rejects every add
                    if target not in spans or spans[target].rank == len(bases[target]):
                        continue
                    img = op(elem)
                    if img.is_zero():
                        continue
                    if spans[target].add(slice_vector(img, indexes[target])):
                        changed = True
        # a sweep that adds nothing leaves every span as it was: a fixpoint
        if not changed:
            converged = True
            break
    dims = {
        tuple(bd): spans[bd].rank
        for bd in bds
        if bd.coh <= 6 * g - 6 and spans[bd].rank
    }
    return {"dims": dims, "converged": converged, "sweeps": sweeps, "buffer": coh_buffer}


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("buf", [0, 2, 4, 8, 12])
def test_closure_matches_the_sweep_oracle(g, buf):
    want = oracle_closure(g, buf)
    assert want["converged"]
    got = sl2_closure(g, buf)
    assert "converged" not in got and got["buffer"] == buf
    assert got["dims"] == want["dims"]


def test_closure_at_buffer_0_is_not_the_ideal():
    # the window cuts the chains that reach alpha^2 at g = 2, so the
    # comparison with the oracle at buffer 0 is not vacuous
    rep = check_closure(2, (0,))
    assert not rep["pass"] and rep["cases"] > 0
    assert sl2_closure(2, 0)["dims"] != sl2_closure(2, 8)["dims"]


def _count_adds(monkeypatch, closure, g, buf):
    """The number of RowSpan.add calls that one closure run makes."""
    calls = []
    add = RowSpan.add

    def counted(self, vec):
        calls.append(None)
        return add(self, vec)

    with monkeypatch.context() as m:
        m.setattr(RowSpan, "add", counted)
        closure(g, buf)
    return len(calls)


def test_closure_maps_each_accepted_vector_once(monkeypatch):
    # the oracle maps every echelon row again in each sweep, the last of
    # which only confirms the fixpoint
    worklist = _count_adds(monkeypatch, sl2_closure, 3, 8)
    sweeps = _count_adds(monkeypatch, oracle_closure, 3, 8)
    assert 0 < worklist < sweeps


def test_closure_builds_no_span_above_the_top_chern_degree(monkeypatch):
    # a slice above Chern degree 4g - 4 lies in the closure whole: it is read
    # off its monomial count, so the spans built are those of the slices at
    # or below it, one each
    g, buf = 3, 8
    built = []

    def recorded(ncols):
        built.append(ncols)
        return RowSpan(ncols)

    monkeypatch.setattr(operators, "RowSpan", recorded)
    got = sl2_closure(g, buf)
    cone = list(bidegree_cone(6 * g - 6 + buf))
    assert any(bd.chern > 4 * g - 4 and monomial_basis(g, bd) for bd in cone)
    below = [len(monomial_basis(g, bd)) for bd in cone if bd.chern <= 4 * g - 4]
    assert sorted(built) == sorted(below)
    assert got["dims"] == oracle_closure(g, buf)["dims"]


def test_closure_refuses_a_negative_buffer():
    for buf in (-1, -100):
        with pytest.raises(ValueError, match="coh_buffer"):
            sl2_closure(2, buf)
    with pytest.raises(ValueError, match="coh_buffer"):
        check_closure(2, (-3,))


@pytest.mark.parametrize("buffers", [(), []])
def test_closure_refuses_an_empty_buffer_sweep(buffers):
    # no buffer ran no case: a failing report without a witness
    for check in (check_closure, suites.suite_closure):
        with pytest.raises(ValueError, match="at least one buffer"):
            check(2, buffers)
    assert check_closure(2, iter((8,)))["cases"] > 0


def test_closure_negative_control(monkeypatch):
    # with an f that maps nothing, alpha^2 in (4, 4) is never reached
    original = operators._triple

    def triple(family, d, g):
        e, h, f = original(family, d, g)
        return e, h, Operator(g, lambda a, b, mask: {}, f.shift, f.den)

    monkeypatch.setattr(operators, "_triple", triple)
    rep = check_closure(2, (4,))
    assert not rep["pass"] and rep["cases"] > 0
    assert "buffer=4, bd=(4, 4)" in [w["where"] for w in rep["failures"]]


def test_closure_preserves_d_ideal():
    # f^d maps an ideal slice into the span of the target ideal slice
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
