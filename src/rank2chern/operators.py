"""sl2 operator calculus on the descendent algebra.

Operators are linear maps on elements built from the atoms: multiplication
by a generator, the partial derivations, and scalars, combined by sum,
scale and composition (right-to-left).  Each operator carries a parity so
adjointness checks can apply the super sign rule; every operator used here
is even.

The triples come in an alpha family and a beta family (commuting copies of
sl2, one pair per destabilizing degree d), plus their diagonal sum whose h
member is the shifted Chern grading.  Commutators, adjointness against the
graded pairing, the descent identities on relation generators, and the
f-closure reconstruction of the relation ideal are all checked
extensionally on monomial slices: slices are small and the arithmetic is
exact, so no operator normal form is needed.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    Element,
    bidegree_cone,
    check_genus,
    d_alpha,
    d_beta,
    d_psi,
    gamma_power,
    monomial_basis,
)
from .integral import IntegralConfig, graded_pairing, top_bidegree
from .linalg import RowSpan
from .relations import ideal_slice, prim_basis, rel_generator_poly, slice_vector

_ZERO = Fraction(0)


class Operator:
    """Linear operator on elements of a fixed-genus descendent algebra."""

    __slots__ = ("g", "parity", "_fn")

    def __init__(self, g: int, parity: int, fn):
        check_genus(g)
        self.g = g
        self.parity = parity & 1
        self._fn = fn

    def __call__(self, x: Element) -> Element:
        if x.g != self.g:
            raise ValueError("genus mismatch")
        return self._fn(x)

    # combinators -------------------------------------------------------

    def _check(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")

    def __add__(self, other):
        self._check(other)
        if self.parity != other.parity:
            raise ValueError("cannot add operators of different parity")
        return Operator(self.g, self.parity, lambda x, f=self._fn, h=other._fn: f(x) + h(x))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            c = Fraction(c)
            return Operator(self.g, self.parity, lambda x, f=self._fn: f(x).scale(c))
        return NotImplemented

    def __matmul__(self, other):
        """Composition: (A @ B)(x) = A(B(x))."""
        self._check(other)
        return Operator(
            self.g,
            self.parity ^ other.parity,
            lambda x, f=self._fn, h=other._fn: f(h(x)),
        )


def commutator(A: Operator, B: Operator) -> Operator:
    return (A @ B) - (B @ A)


def mul_op(elem: Element) -> Operator:
    bd = elem.bidegree()
    parity = bd.coh & 1 if bd is not None else 0
    return Operator(elem.g, parity, lambda x, e=elem: e * x)


def scalar_op(g: int, c) -> Operator:
    c = Fraction(c)
    return Operator(g, 0, lambda x: x.scale(c))


def d_alpha_op(g: int) -> Operator:
    return Operator(g, 0, d_alpha)


def d_beta_op(g: int) -> Operator:
    return Operator(g, 0, d_beta)


def d_psi_op(g: int, i: int) -> Operator:
    return Operator(g, 1, lambda x, j=i: d_psi(x, j))


def psi_number_op(g: int) -> Operator:
    """sum_i psi_i d/d psi_i (counts psi factors)."""
    out = mul_op(Element.psi(g, 1)) @ d_psi_op(g, 1)
    for i in range(2, 2 * g + 1):
        out = out + mul_op(Element.psi(g, i)) @ d_psi_op(g, i)
    return out


def pair_laplacian_op(g: int) -> Operator:
    """sum_{i=1..g} d/d psi_i d/d psi_{i+g} (rightmost factor acts first)."""
    out = d_psi_op(g, 1) @ d_psi_op(g, 1 + g)
    for i in range(2, g + 1):
        out = out + d_psi_op(g, i) @ d_psi_op(g, i + g)
    return out


def make_sl2(family: str, d: int, g: int):
    """The (e, h, f) triple for the alpha, beta, or diagonal family.

    The parameter d >= 0 replaces the constant g-1 by g+2d-1; the diagonal
    family is the componentwise sum of the alpha and beta families.
    """
    check_genus(g)
    if d < 0:
        raise ValueError("d must be >= 0")
    if family == "diagonal":
        ea, ha, fa = make_sl2("alpha", d, g)
        eb, hb, fb = make_sl2("beta", d, g)
        return ea + eb, ha + hb, fa + fb
    if family == "alpha":
        var, other = Element.alpha(g), Element.beta(g)
        d_var = d_alpha_op(g)
    elif family == "beta":
        var, other = Element.beta(g), Element.alpha(g)
        d_var = d_beta_op(g)
    else:
        raise ValueError(f"unknown family {family!r}")
    const = g + 2 * d - 1
    N = psi_number_op(g)
    e = mul_op(var)
    h = (2 * (mul_op(var) @ d_var)) + N + scalar_op(g, -const)
    f = (
        (-1) * (mul_op(var) @ d_var @ d_var)
        + const * d_var
        + (-1) * (d_var @ N)
        + Fraction(-1, 4) * (mul_op(other) @ pair_laplacian_op(g))
    )
    return e, h, f


def operator_bidegree_shift(family: str, name: str):
    """(coh, chern) shift of the named triple member.

    The e and f operators of the beta family move cohomological degree by
    4, not 2; only the Chern shift is the same for both families.
    """
    shifts = {
        ("alpha", "e"): (2, 2),
        ("alpha", "h"): (0, 0),
        ("alpha", "f"): (-2, -2),
        ("beta", "e"): (4, 2),
        ("beta", "h"): (0, 0),
        ("beta", "f"): (-4, -2),
    }
    return shifts[(family, name)]


# ----------------------------------------------------------------------
# extensional checks


def _monomials_up_to(g: int, max_coh: int):
    out = []
    for bd in bidegree_cone(g, max_coh):
        out.extend(monomial_basis(g, bd))
    return out


def check_sl2_relations(g: int, d: int, max_coh: int = None) -> dict:
    """[e,f] = h, [e,h] = 2e, [f,h] = -2f for both families, and all nine
    cross-commutators vanish, verified on every monomial of coh <= max_coh."""
    if max_coh is None:
        max_coh = 6 * g - 6
    ea, ha, fa = make_sl2("alpha", d, g)
    eb, hb, fb = make_sl2("beta", d, g)
    triple_checks = []
    for tag, (e, h, f) in (("alpha", (ea, ha, fa)), ("beta", (eb, hb, fb))):
        triple_checks.append((f"[e,f]=h ({tag})", commutator(e, f) - h))
        triple_checks.append((f"[h,e]=2e ({tag})", commutator(h, e) - 2 * e))
        triple_checks.append((f"[h,f]=-2f ({tag})", commutator(h, f) + 2 * f))
    cross_checks = []
    for na, A in (("e_a", ea), ("h_a", ha), ("f_a", fa)):
        for nb, B in (("e_b", eb), ("h_b", hb), ("f_b", fb)):
            cross_checks.append((f"[{na},{nb}]=0", commutator(A, B)))
    failures = []
    cases = 0
    for mono in _monomials_up_to(g, max_coh):
        x = Element.monomial(g, *mono)
        for label, op in triple_checks + cross_checks:
            cases += 1
            if not op(x).is_zero():
                failures.append({"where": f"{label} on {x}", "expected": "0", "got": str(op(x))})
    return {
        "check": "relations",
        "genus": g,
        "d": d,
        "cases": cases,
        "pass": cases > 0 and not failures,
        "failures": failures[:10],
    }


def operator_adjointness_failures(
    F: Operator, sign: int, shift, g: int, cfg: IntegralConfig, limit: int = 10
):
    """Witnesses against <F(D), D'> = sign * (-1)^(|F||D|) <D, F(D')> over
    all complementary monomial pairs around the top bidegree."""
    top_c, top_ch = top_bidegree(g)
    failures = []
    cases = 0
    for bd in bidegree_cone(g, 6 * g - 6):
        comp = (top_c - bd.coh - shift[0], top_ch - bd.chern - shift[1])
        left = monomial_basis(g, bd)
        right = monomial_basis(g, comp)
        if not left or not right:
            continue
        for m1 in left:
            D = Element.monomial(g, *m1)
            FD = F(D)
            koszul = -1 if (F.parity and (bd.coh & 1)) else 1
            for m2 in right:
                E = Element.monomial(g, *m2)
                cases += 1
                lhs = graded_pairing(FD, E, cfg)
                rhs = sign * koszul * graded_pairing(D, F(E), cfg)
                if lhs != rhs:
                    failures.append(
                        {"where": f"<F({D}),{E}>", "expected": str(rhs), "got": str(lhs)}
                    )
                    if len(failures) >= limit:
                        return cases, failures
    return cases, failures


def check_adjointness(g: int, cfg: IntegralConfig = None) -> dict:
    """Self-adjointness of e and f, anti-self-adjointness of h, for both
    d = 0 families, against the graded pairing."""
    if cfg is None:
        cfg = IntegralConfig(g)
    ea, ha, fa = make_sl2("alpha", 0, g)
    eb, hb, fb = make_sl2("beta", 0, g)
    plan = [
        ("e_alpha", ea, 1, operator_bidegree_shift("alpha", "e")),
        ("e_beta", eb, 1, operator_bidegree_shift("beta", "e")),
        ("f_alpha", fa, 1, operator_bidegree_shift("alpha", "f")),
        ("f_beta", fb, 1, operator_bidegree_shift("beta", "f")),
        ("h_alpha", ha, -1, operator_bidegree_shift("alpha", "h")),
        ("h_beta", hb, -1, operator_bidegree_shift("beta", "h")),
    ]
    cases = 0
    failures = []
    for name, op, sign, shift in plan:
        n, fails = operator_adjointness_failures(op, sign, shift, g, cfg)
        cases += n
        for f in fails:
            f["where"] = f"{name}: " + f["where"]
        failures.extend(fails)
    return {
        "check": "adjoint",
        "genus": g,
        "d": 0,
        "cases": cases,
        "pass": cases > 0 and not failures,
        "failures": failures[:10],
    }


def check_descent(g: int, d: int, k_max: int = None) -> dict:
    """f_alpha^d R_{k,m,l} sigma = (2g+2d-k) R_{k-1,m,l} sigma and the
    beta analogue lowering m, for every generator key with k in
    [2g+2d, k_max]; out-of-range R indices mean the empty sum."""
    if k_max is None:
        k_max = 2 * g + 2 * d + 4
    _, _, fa = make_sl2("alpha", d, g)
    _, _, fb = make_sl2("beta", d, g)
    cases = 0
    failures = []
    for k in range(2 * g + 2 * d, k_max + 1):
        for l in range(g + 1):
            sigmas = prim_basis(g, l)
            for m in range(g - l + 1):
                R_k = rel_generator_poly(g, k, m, l).embed()
                R_down = rel_generator_poly(g, k - 1, m, l).embed()
                R_down_m = (
                    rel_generator_poly(g, k - 1, m - 1, l).embed()
                    if m >= 1
                    else Element.zero(g)
                )
                scale = Fraction(2 * g + 2 * d - k)
                for idx, sigma in enumerate(sigmas):
                    cases += 2
                    lhs_a = fa(R_k * sigma)
                    rhs_a = (R_down * sigma).scale(scale)
                    if lhs_a != rhs_a:
                        failures.append(
                            {
                                "where": f"f_alpha, k={k}, m={m}, l={l}, sigma#{idx}",
                                "expected": str(rhs_a),
                                "got": str(lhs_a),
                            }
                        )
                    lhs_b = fb(R_k * sigma)
                    rhs_b = (R_down_m * sigma).scale(scale)
                    if lhs_b != rhs_b:
                        failures.append(
                            {
                                "where": f"f_beta, k={k}, m={m}, l={l}, sigma#{idx}",
                                "expected": str(rhs_b),
                                "got": str(lhs_b),
                            }
                        )
    return {
        "check": "descent",
        "genus": g,
        "d": d,
        "cases": cases,
        "pass": cases > 0 and not failures,
        "failures": failures[:10],
    }


# ----------------------------------------------------------------------
# f-closure of the above-top-Chern subspace


def _split_by_bidegree(x: Element) -> dict:
    from .algebra import monomial_bidegree

    parts = {}
    for mono, c in x.terms.items():
        bd = tuple(monomial_bidegree(mono))
        parts.setdefault(bd, {})[mono] = c
    return {bd: Element(x.g, terms) for bd, terms in parts.items()}


def sl2_closure(g: int, coh_buffer: int = None, max_sweeps: int = 60) -> dict:
    """Smallest ideal containing everything of Chern degree > 4g-4 that is
    closed under the diagonal f operator, computed to a fixpoint inside a
    truncation window and restricted to coh <= 6g-6.

    Returns {"dims": {bd: dim}, "converged": bool, "sweeps": n,
    "buffer": coh_buffer}.  Enlarge the buffer if not converged.
    """
    check_genus(g)
    if coh_buffer is None:
        coh_buffer = 4 * g
    window = 6 * g - 6 + coh_buffer
    top_chern = 4 * g - 4
    _, _, f_diag = make_sl2("diagonal", 0, g)

    bds = list(bidegree_cone(g, window))
    bases = {bd: monomial_basis(g, bd) for bd in bds}
    indexes = {bd: {mono: i for i, mono in enumerate(bases[bd])} for bd in bds}
    spans = {bd: RowSpan(len(bases[bd])) for bd in bds}

    for bd in bds:
        if bd.chern > top_chern:
            n = len(bases[bd])
            for i in range(n):
                vec = [_ZERO] * n
                vec[i] = Fraction(1)
                spans[bd].add(vec)

    gens = [(Element.alpha(g), (2, 2)), (Element.beta(g), (4, 2))]
    gens += [(Element.psi(g, i), (3, 2)) for i in range(1, 2 * g + 1)]

    order = sorted(bds, key=lambda bd: (-bd.chern, -bd.coh))
    sweeps = 0
    stable_count = 0
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
                elem = Element(g, {mono: c for mono, c in zip(basis, row) if c})
                for gen, (dc, dch) in gens:
                    target = (bd.coh + dc, bd.chern + dch)
                    if target[0] > window or target not in spans:
                        continue
                    img = gen * elem
                    if img.is_zero():
                        continue
                    vec = slice_vector(img, indexes[target], len(bases[target]))
                    if spans[target].add(vec):
                        changed = True
                # the diagonal f mixes two cohomological shifts (-2 and -4),
                # so its image splits into bihomogeneous parts
                img = f_diag(elem)
                for target, part in _split_by_bidegree(img).items():
                    if target in spans:
                        vec = slice_vector(part, indexes[target], len(bases[target]))
                        if spans[target].add(vec):
                            changed = True
        if changed:
            stable_count = 0
        else:
            stable_count += 1
            if stable_count >= 2:
                converged = True
                break
    dims = {
        tuple(bd): spans[bd].rank
        for bd in bds
        if bd.coh <= 6 * g - 6 and spans[bd].rank
    }
    return {"dims": dims, "converged": converged, "sweeps": sweeps, "buffer": coh_buffer}


def check_closure(g: int, buffers=(None,)) -> dict:
    """Compare the f-closure dimensions with the relation-ideal slices for
    every bidegree with coh <= 6g-6, across the given buffer sweep."""
    ideal_dims = {}
    for bd in bidegree_cone(g, 6 * g - 6):
        n = len(ideal_slice(g, 0, bd, check_independent=False))
        if n:
            ideal_dims[tuple(bd)] = n
    cases = 0
    failures = []
    for buf in buffers:
        result = sl2_closure(g, buf)
        if not result["converged"]:
            failures.append(
                {
                    "where": f"buffer={result['buffer']}",
                    "expected": "convergence",
                    "got": f"no fixpoint after {result['sweeps']} sweeps",
                }
            )
            continue
        keys = set(result["dims"]) | set(ideal_dims)
        for bd in sorted(keys):
            cases += 1
            got = result["dims"].get(bd, 0)
            want = ideal_dims.get(bd, 0)
            if got != want:
                failures.append(
                    {
                        "where": f"buffer={result['buffer']}, bd={bd}",
                        "expected": str(want),
                        "got": str(got),
                    }
                )
    return {
        "check": "closure",
        "genus": g,
        "d": 0,
        "cases": cases,
        "pass": cases > 0 and not failures,
        "failures": failures[:10],
    }


def invariant_subring_identities_hold(g: int) -> bool:
    """The psi-counting operator acts as 2 gamma d/d gamma and the pair
    Laplacian as -2 gamma d^2/d gamma^2 + 2g d/d gamma on Q[alpha,beta,gamma],
    checked on alpha^a beta^b gamma^c for all c <= g and small a, b."""
    N = psi_number_op(g)
    L = pair_laplacian_op(g)
    for c in range(g + 1):
        for a in range(3):
            for b in range(3):
                x = Element.monomial(g, a, b, 0) * gamma_power(g, c)
                lhs_n = N(x)
                rhs_n = (Element.monomial(g, a, b, 0) * gamma_power(g, c)).scale(2 * c)
                if lhs_n != rhs_n:
                    return False
                lhs_l = L(x)
                rhs_l = Element.zero(g)
                if c >= 1:
                    coeff = Fraction(-2 * c * (c - 1) + 2 * g * c)
                    rhs_l = (Element.monomial(g, a, b, 0) * gamma_power(g, c - 1)).scale(coeff)
                if lhs_l != rhs_l:
                    return False
    return True


def diagonal_h_is_shifted_chern_grading(g: int, max_coh: int = None) -> bool:
    """h_diagonal acts on a homogeneous element as chern - (2g - 2)."""
    if max_coh is None:
        max_coh = 6 * g - 6
    _, h, _ = make_sl2("diagonal", 0, g)
    for bd in bidegree_cone(g, max_coh):
        for mono in monomial_basis(g, bd):
            x = Element.monomial(g, *mono)
            if h(x) != x.scale(bd.chern - (2 * g - 2)):
                return False
    return True
