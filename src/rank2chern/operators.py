"""sl2 operator calculus on the descendent algebra.

Each family (alpha or beta, one triple per destabilizing degree d) acts by
three differential operators.  With v the family's variable, w the other
one and c = g + 2d - 1:

    e = v,   h = 2 v d_v + N - c,   f = -v d_v^2 + c d_v - d_v N - (w/4) L,

where N counts psi factors and L = sum_i d_psi_i d_psi_{i+g} is the pair
Laplacian.  These formulas are the definition.  Each operator is applied as
the monomial map it induces: on m = v^n w^k psi_S with s = |S|,

    e(m) = v m,   h(m) = (2n + s - c) m,
    f(m) = n (c - n + 1 - s) m / v
           - (w/4) sum_i (-1)^(p_i + p_{i+g}) m with psi_i psi_{i+g} removed,

where p_k counts the indices of S below k and the sum runs over the pairs
{i, i+g} inside S; an element is mapped term by term in one sparse pass.
e adds the bidegree of v, f subtracts it and h keeps it; each Operator
carries that shift.  The two families commute; their diagonal sum has h
equal to the shifted Chern grading.  Commutators, adjointness against the
graded pairing, the descent identities on relation generators, and the
f-closure reconstruction of the relation ideal are all checked
extensionally on monomial slices: slices are small and the arithmetic is
exact, so no operator normal form is needed.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, _accumulate, bidegree_cone, check_genus, koszul_sign, monomial_basis
from .integral import IntegralConfig, graded_pairing, top_bidegree
from .linalg import RowSpan
from .relations import _lefschetz_dims, _summand_relations, prim_basis, rel_generator_poly
from .relations import report, slice_vector

_QUARTERS = (Fraction(-1, 4), Fraction(1, 4))  # -(1/4) (-1)^p, by p & 1


class Operator:
    """Linear operator on elements of a fixed-genus descendent algebra.

    ``action(a, b, mask)`` is the image of the monomial alpha^a beta^b psi_S
    as ``{key: coefficient}`` with nonzero int or Fraction coefficients; the
    image element holds them in the form of ``algebra._exact``.
    ``shift`` is the (coh, chern) bidegree it adds to every homogeneous
    element, or None when it is not bihomogeneous.
    """

    __slots__ = ("g", "action", "shift")

    def __init__(self, g: int, action, shift):
        check_genus(g)
        self.g = g
        self.action = action
        self.shift = shift

    def __call__(self, x: Element) -> Element:
        if x.g != self.g:
            raise ValueError("genus mismatch")
        return x._map(self.action)


def _triple(family: str, d: int, g: int):
    """(e, h, f) of the alpha or beta family; e shifts the bidegree by that
    of the family's variable, f by minus it and h not at all."""
    # (da, db) is the exponent step of v, (db, da) that of w
    if family == "alpha":
        da, db = 1, 0
    elif family == "beta":
        da, db = 0, 1
    else:
        raise ValueError(f"unknown family {family!r}")
    const = g + 2 * d - 1
    pairs = [(1 << i, 1 << (i + g)) for i in range(g)]

    def e(a, b, mask):
        return {(a + da, b + db, mask): 1}

    def h(a, b, mask):
        k = 2 * (a * da + b * db) + mask.bit_count() - const
        return {(a, b, mask): k} if k else {}

    def f(a, b, mask):
        out = {}
        n = a * da + b * db
        if n:
            k = n * (const - n + 1 - mask.bit_count())
            if k:
                out[(a - da, b - db, mask)] = k
        for lo, hi in pairs:
            if mask & lo and mask & hi:
                p = (mask & (lo - 1)).bit_count() + (mask & (hi - 1)).bit_count()
                out[(a + db, b + da, mask ^ lo ^ hi)] = _QUARTERS[p & 1]
        return out

    coh, chern = Element.monomial(g, da, db, 0).bidegree()
    return Operator(g, e, (coh, chern)), Operator(g, h, (0, 0)), Operator(g, f, (-coh, -chern))


def _sum_action(p, q):
    """The termwise sum of two monomial actions."""
    return lambda a, b, mask: _accumulate(q(a, b, mask).items(), p(a, b, mask))


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
        Operator(g, _sum_action(a.action, b.action), a.shift if a.shift == b.shift else None)
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


def operator_adjointness_failures(F: Operator, sign: int, g: int, cfg: IntegralConfig):
    """Witnesses against <F(D), D'> = sign * <D, F(D')> over all
    complementary monomial pairs around the top bidegree; it stops at the
    ten witnesses a report keeps."""
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
                    if len(failures) >= 10:
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
                scale = 2 * g + 2 * d - k
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


def check_closure(g: int, buffers=(None,)) -> dict:
    """Compare the f-closure dimensions with the relation-ideal slices for
    every bidegree with coh <= 6g-6, across the given buffer sweep.  The
    ideal dimensions are summand relation counts, whose freeness
    _summand_relations asserts."""
    ideal_dims = _lefschetz_dims(g, 6 * g - 6, lambda l, bd: len(_summand_relations(g, 0, l, bd)))
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
