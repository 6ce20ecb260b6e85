"""sl2 operator calculus on the descendent algebra.

Each family (alpha or beta, one triple per destabilizing degree d) acts by
three differential operators.  With v the family's variable, w the other
one and c = g + 2d - 1:

    e = v,   h = 2 v d_v + N - c,   f = -v d_v^2 + c d_v - d_v N - (w/4) L,

where N counts psi factors and L = sum_i d_psi_i d_psi_{i+g} is the pair
Laplacian.  e adds the bidegree of v, f subtracts it and h keeps it; each
Operator carries that shift.  The two families commute; their diagonal sum
has h equal to the shifted Chern grading.  Commutators, adjointness against
the graded pairing, the descent identities on relation generators, and the
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
from .relations import ideal_slice_keys, prim_basis, rel_generator_poly, report, slice_vector


class Operator:
    """Linear operator on elements of a fixed-genus descendent algebra.

    ``shift`` is the (coh, chern) bidegree it adds to every homogeneous
    element, or None when it is not bihomogeneous.
    """

    __slots__ = ("g", "_fn", "shift")

    def __init__(self, g: int, fn, shift):
        check_genus(g)
        self.g = g
        self._fn = fn
        self.shift = shift

    def __call__(self, x: Element) -> Element:
        if x.g != self.g:
            raise ValueError("genus mismatch")
        return self._fn(x)


def psi_number(x: Element) -> Element:
    """N = sum_i psi_i d/d psi_i: scales each term by its psi count."""
    return Element._raw(x.g, {k: c * k[2].bit_count() for k, c in x.terms.items() if k[2]})


def pair_laplacian(x: Element) -> Element:
    """L = sum_{i=1..g} d/d psi_i d/d psi_{i+g} (d/d psi_{i+g} acts first)."""
    out = Element._raw(x.g, {})
    for i in range(1, x.g + 1):
        out = out + d_psi(d_psi(x, i + x.g), i)
    return out


def _triple(family: str, d: int, g: int):
    """(e, h, f) of the alpha or beta family; e shifts the bidegree by that
    of the family's variable, f by minus it and h not at all."""
    if family == "alpha":
        var, other, d_var = Element.alpha(g), Element.beta(g), d_alpha
    elif family == "beta":
        var, other, d_var = Element.beta(g), Element.alpha(g), d_beta
    else:
        raise ValueError(f"unknown family {family!r}")
    const = g + 2 * d - 1
    minus_quarter_other = other.scale(Fraction(-1, 4))

    def e(x):
        return var * x

    def h(x):
        return (var * d_var(x)).scale(2) + psi_number(x) - x.scale(const)

    def f(x):
        dx = d_var(x)
        return (
            dx.scale(const)
            - var * d_var(dx)
            - d_var(psi_number(x))
            + minus_quarter_other * pair_laplacian(x)
        )

    coh, chern = var.bidegree()
    return Operator(g, e, (coh, chern)), Operator(g, h, (0, 0)), Operator(g, f, (-coh, -chern))


def make_sl2(family: str, d: int, g: int):
    """The (e, h, f) triple for the alpha, beta, or diagonal family.

    The parameter d >= 0 replaces the constant g-1 by g+2d-1; the diagonal
    family is the componentwise sum of the alpha and beta families, so only
    its h is bihomogeneous (the parts of e and f shift differently).
    """
    check_genus(g)
    if d < 0:
        raise ValueError("d must be >= 0")
    if family != "diagonal":
        return _triple(family, d, g)
    pairs = zip(_triple("alpha", d, g), _triple("beta", d, g))
    return tuple(
        Operator(g, lambda x, a=a, b=b: a(x) + b(x), a.shift if a.shift == b.shift else None)
        for a, b in pairs
    )


# ----------------------------------------------------------------------
# extensional checks


def check_sl2_relations(g: int, d: int, max_coh: int = None) -> dict:
    """[e,f] = h, [e,h] = 2e, [f,h] = -2f for both families, and all nine
    cross-commutators vanish, verified on every monomial of coh <= max_coh."""
    if max_coh is None:
        max_coh = 6 * g - 6
    names_a, names_b = ("e_a", "h_a", "f_a"), ("e_b", "h_b", "f_b")
    ops = dict(zip(names_a + names_b, make_sl2("alpha", d, g) + make_sl2("beta", d, g)))
    failures = []
    cases = 0
    for mono in (m for bd in bidegree_cone(g, max_coh) for m in monomial_basis(g, bd)):
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


def operator_adjointness_failures(
    F: Operator, sign: int, g: int, cfg: IntegralConfig, limit: int = 10
):
    """Witnesses against <F(D), D'> = sign * <D, F(D')> over all
    complementary monomial pairs around the top bidegree."""
    if F.shift is None:
        raise ValueError("adjointness needs a bihomogeneous operator")
    top_c, top_ch = top_bidegree(g)
    dc, dch = F.shift
    failures = []
    cases = 0
    for bd in bidegree_cone(g, 6 * g - 6):
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
                lhs = graded_pairing(FD, E, cfg)
                rhs = sign * graded_pairing(D, FE, cfg)
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
        ("e_alpha", ea, 1),
        ("e_beta", eb, 1),
        ("f_alpha", fa, 1),
        ("f_beta", fb, 1),
        ("h_alpha", ha, -1),
        ("h_beta", hb, -1),
    ]
    cases = 0
    failures = []
    for name, op, sign in plan:
        n, fails = operator_adjointness_failures(op, sign, g, cfg)
        cases += n
        for f in fails:
            f["where"] = f"{name}: " + f["where"]
        failures.extend(fails)
    return report("check", "adjoint", g, 0, cases, failures)


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
                lowered = (
                    ("f_alpha", fa, rel_generator_poly(g, k - 1, m, l).embed()),
                    ("f_beta", fb, rel_generator_poly(g, k - 1, m - 1, l).embed()),
                )
                scale = Fraction(2 * g + 2 * d - k)
                for idx, sigma in enumerate(sigmas):
                    R_sigma = R_k * sigma
                    for name, f, R_down in lowered:
                        cases += 1
                        lhs = f(R_sigma)
                        rhs = (R_down * sigma).scale(scale)
                        if lhs != rhs:
                            failures.append(
                                {
                                    "where": f"{name}, k={k}, m={m}, l={l}, sigma#{idx}",
                                    "expected": str(rhs),
                                    "got": str(lhs),
                                }
                            )
    return report("check", "descent", g, d, cases, failures)


# ----------------------------------------------------------------------
# f-closure of the above-top-Chern subspace


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

    bds = list(bidegree_cone(g, window))
    bases = {bd: monomial_basis(g, bd) for bd in bds}
    indexes = {bd: {mono: i for i, mono in enumerate(bases[bd])} for bd in bds}
    spans = {bd: RowSpan(len(bases[bd])) for bd in bds}

    for bd in bds:
        if bd.chern > top_chern:
            for i in range(len(bases[bd])):
                spans[bd].add({i: Fraction(1)})

    # multiplication by the generators keeps the subspace an ideal; the
    # diagonal f acts through its two bihomogeneous parts f_alpha and f_beta
    ea, _, fa = make_sl2("alpha", 0, g)
    eb, _, fb = make_sl2("beta", 0, g)
    psis = [Element.psi(g, i) for i in range(1, 2 * g + 1)]
    maps = [ea, eb] + [Operator(g, lambda x, p=p: p * x, p.bidegree()) for p in psis] + [fa, fb]

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


def check_closure(g: int, buffers=(None,)) -> dict:
    """Compare the f-closure dimensions with the relation-ideal slices for
    every bidegree with coh <= 6g-6, across the given buffer sweep."""
    ideal_dims = {}
    for bd in bidegree_cone(g, 6 * g - 6):
        n = len(ideal_slice_keys(g, 0, bd))
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
    return report("check", "closure", g, 0, cases, failures)


def invariant_subring_identities_hold(g: int) -> bool:
    """The psi-counting operator acts as 2 gamma d/d gamma and the pair
    Laplacian as -2 gamma d^2/d gamma^2 + 2g d/d gamma on Q[alpha,beta,gamma],
    checked on alpha^a beta^b gamma^c for all c <= g and small a, b."""
    for c in range(g + 1):
        for a in range(3):
            for b in range(3):
                x = Element.monomial(g, a, b, 0) * gamma_power(g, c)
                if psi_number(x) != x.scale(2 * c):
                    return False
                lhs_l = pair_laplacian(x)
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
