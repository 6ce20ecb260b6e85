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
Each action returns den times these coefficients, as integers over one
positive denominator: den = 1 for e and h, and den = 4 for f, whose
action gives 4 n (c - n + 1 - s) and -(-1)^(p_i + p_{i+g}).
e adds the bidegree of v, f subtracts it and h keeps it; each Operator
carries that shift.  The two families commute; their diagonal sum has h
equal to the shifted Chern grading.  Commutators, adjointness against the
graded pairing, the descent identities on relation generators, and the
f-closure reconstruction of the relation ideal are all checked
extensionally on monomial slices: slices are small and the arithmetic is
exact, so no operator normal form is needed.

The brackets and pairings run on term dicts (algebra._apply on an image
dict, integral._pair_monomials on monomial keys) of the integer actions.
A pairing is an int too, den(g) times its B = 1 value, so each identity,
multiplied through by the denominators, is checked in ints, with an Element
or a Fraction only for a failure witness, rebuilt at the unscaled values.
A bracket identity, bound once as two actions and the indexes of the
images it reads, compares its two sides as dicts, and f keeps each psi
mask's pair Laplacian terms for the life of its triple.  Descent reads
R sigma as alpha^a beta^b shifts of the gamma^c sigma of the chain
relations memoises per primitive sigma, through the product the relation
builders use, on R_{k,m,l}'s int terms times 4 over (k - g - l)!, and
builds each product once: one k higher, an int multiple of it is the right
side.  The products of one (l, sigma) lie in distinct bidegrees, so each
f is applied once, to their sum, and a failing sum is split per key.
The f-closure is a worklist on term dicts too: each vector a span accepts
is mapped once by each integer action, undivided, since scaling by den
leaves a span as it is.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, _accumulate, _apply, _check_int, _exact, bidegree_cone, check_genus
from .algebra import _divide, koszul_sign, monomial_basis
from .integral import _normalization, _pair_monomials, _value, top_bidegree
from .linalg import RowSpan
from .relations import _generator, _invariant_relations, _lefschetz_dims, _sigma_chain, _times_chain
from .relations import dims_mismatches, merged_report, prim_basis, report


class Operator:
    """Linear operator on elements of a fixed-genus descendent algebra.

    ``action(a, b, mask)`` is ``den`` times the image of the monomial
    alpha^a beta^b psi_S, as ``{key: coefficient}`` with nonzero int or
    Fraction coefficients; ``den`` is a positive int, so an action can keep
    to integers.  Calling the operator divides by ``den``, and the image
    element holds its coefficients in the form of ``algebra._exact``.
    ``shift`` is the (coh, chern) bidegree it adds to every homogeneous
    element, or None when it is not bihomogeneous.
    """

    __slots__ = ("g", "action", "shift", "den")

    def __init__(self, g: int, action, shift, den: int = 1):
        check_genus(g)
        _check_int("den", den, 1)
        self.g = g
        self.action = action
        self.shift = shift
        self.den = den

    def __call__(self, x: Element) -> Element:
        if not isinstance(x, Element):
            raise TypeError(f"an Operator maps an Element, not {type(x).__name__}")
        if x.g != self.g:
            raise ValueError("genus mismatch")
        return Element._raw(self.g, _divide(_apply(self.action, x.terms), self.den))


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
    laplacian = {}  # mask -> its L terms, scanned once per triple

    def e(a, b, mask):
        return {(a + da, b + db, mask): 1}

    def h(a, b, mask):
        k = 2 * (a * da + b * db) + mask.bit_count() - const
        return {(a, b, mask): k} if k else {}

    def f(a, b, mask):  # 4 f: its -(w/4) L term has the coefficients -(-1)^p
        out = {}
        n = a * da + b * db
        if n:
            k = 4 * n * (const - n + 1 - mask.bit_count())
            if k:
                out[(a - da, b - db, mask)] = k
        terms = laplacian.get(mask)
        if terms is None:
            terms = laplacian[mask] = _pair_terms(mask, pairs)
        for rest, sign in terms:
            out[(a + db, b + da, rest)] = sign
        return out

    coh, chern = Element.monomial(g, da, db, 0).bidegree()
    return Operator(g, e, (coh, chern)), Operator(g, h, (0, 0)), Operator(g, f, (-coh, -chern), 4)


def _pair_terms(mask: int, pairs) -> tuple:
    """The terms (mask without psi_lo psi_hi, -(-1)^p) of 4 f's -(w/4) L on
    psi_mask, one per pair (lo, hi) inside mask, p counting the bits of mask
    below lo and below hi."""
    out = []
    for lo, hi in pairs:
        if mask & lo and mask & hi:
            p = (mask & (lo - 1)).bit_count() + (mask & (hi - 1)).bit_count()
            out.append((mask ^ lo ^ hi, 1 if p & 1 else -1))
    return tuple(out)


def _sum_action(p, q):
    """The termwise sum of two monomial actions, in a fresh dict: neither
    action's image is mutated."""
    return lambda a, b, mask: _accumulate(q(a, b, mask).items(), dict(p(a, b, mask)))


def make_sl2(family: str, d: int, g: int):
    """The (e, h, f) triple for the alpha, beta, or diagonal family.

    The int d >= 0 replaces the constant g-1 by g+2d-1; the diagonal
    family is the componentwise sum of the alpha and beta families, so only
    its h is bihomogeneous (the parts of e and f shift differently); the two
    summed actions share their den.
    """
    check_genus(g)
    _check_int("d", d)
    if family != "diagonal":
        return _triple(family, d, g)
    pairs = zip(_triple("alpha", d, g), _triple("beta", d, g))
    out = []
    for a, b in pairs:
        if a.den != b.den:
            raise ValueError(f"cannot sum actions over the denominators {a.den} and {b.den}")
        shift = a.shift if a.shift == b.shift else None
        out.append(Operator(g, _sum_action(a.action, b.action), shift, a.den))
    return tuple(out)


# ----------------------------------------------------------------------
# extensional checks


def check_sl2_relations(g: int, d: int, max_coh: int = None) -> dict:
    """[e,f] = h, [e,h] = 2e, [f,h] = -2f for both families, and all nine
    cross-commutators vanish, verified on every monomial of coh <= max_coh.

    Each identity [a, b] + k x = 0 is checked on the integer actions as
    [A, B] + k (den_a den_b / den_x) X = 0, which is den_a den_b times it:
    A(B m) + k' X(m) and B(A m), each an exact dict with no zero values,
    are compared as dicts, and their difference is built only for a
    failure witness.  max_coh (default 6g - 6) must be an int >= 0."""
    check_genus(g)
    if max_coh is None:
        max_coh = 6 * g - 6
    _check_int("max_coh", max_coh)
    names_a, names_b = ("e_a", "h_a", "f_a"), ("e_b", "h_b", "f_b")
    names, ops = names_a + names_b, make_sl2("alpha", d, g) + make_sl2("beta", d, g)

    def identity(label, a, b, x=None, k=0):
        """[a, b] plus k times the image under x, bound as its label, the
        actions of a and b, the image indexes of b, a and x, the scaled k
        and the scale den_a den_b."""
        a, b, x = (names.index(name) if name else None for name in (a, b, x))
        den = ops[a].den * ops[b].den
        return label, ops[a].action, ops[b].action, b, a, x, k and k * _exact(Fraction(den, ops[x].den)), den

    plan = []
    for tag, (e, h, f) in (("alpha", names_a), ("beta", names_b)):
        plan.append(identity(f"[e,f]=h ({tag})", e, f, h, -1))
        plan.append(identity(f"[h,e]=2e ({tag})", h, e, e, -2))
        plan.append(identity(f"[h,f]=-2f ({tag})", h, f, f, 2))
    plan += [identity(f"[{a},{b}]=0", a, b) for a in names_a for b in names_b]
    failures = []
    cases = 0
    for mono in (m for bd in bidegree_cone(g, max_coh) for m in monomial_basis(g, bd)):
        img = [op.action(*mono) for op in ops]
        cases += len(plan)
        for label, act_a, act_b, ib, ia, ix, k, den in plan:
            out = _apply(act_a, img[ib])
            if k:
                for key, v in img[ix].items():
                    s = out.get(key, 0) + k * v
                    if s:
                        out[key] = s
                    else:
                        del out[key]
            back = _apply(act_b, img[ia])
            # both sides are exact with no zero values, so they compare as dicts
            if out != back:
                _accumulate(((key, -v) for key, v in back.items()), out)
                where = f"{label} on {Element.monomial(g, *mono)}"
                got = Element._raw(g, _divide(out, den))
                failures.append({"where": where, "expected": "0", "got": str(got)})
    return report("check", "relations", g, d, cases, failures)


def operator_adjointness_failures(F: Operator, sign: int, B=1):
    """Witnesses against <F(D), D'> = sign * <D, F(D')> over all
    complementary monomial pairs around the top bidegree of F's genus; it
    stops at the ten witnesses a report keeps.  Both sides are compared at
    B = 1 and times F.den den(g), as ints, which rescale them alike; a
    witness prints them at B.  sign is the int 1 or -1."""
    return _adjointness_failures(F, sign, B, {})


def _adjointness_failures(F: Operator, sign: int, B, bases: dict):
    """operator_adjointness_failures, reading each monomial basis of F's
    genus from bases ({bidegree: basis}, filled as it goes), so that the
    operators of one check build each basis once."""
    B = _normalization(B)
    if type(sign) is not int:  # a float would make the int sums inexact
        raise TypeError(f"sign must be the int 1 or -1, got {sign!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
    if F.shift is None:
        raise ValueError("adjointness needs a bihomogeneous operator")
    g = F.g
    top_c, top_ch = top_bidegree(g)
    dc, dch = F.shift
    failures = []
    cases = 0
    for bd in bidegree_cone(g, 6 * g - 6):
        comp = (top_c - bd.coh - dc, top_ch - bd.chern - dch)
        for key in (bd, comp):
            if key not in bases:
                bases[key] = monomial_basis(g, key)
        left, right = bases[bd], bases[comp]
        if not left or not right:
            continue
        right = [(m2, F.action(*m2).items()) for m2 in right]
        for m1 in left:
            FD = F.action(*m1).items()
            for m2, FE in right:
                cases += 1
                # plain loops: a generator per case would cost more than
                # the few image terms it sums
                lhs = rhs = 0
                for k, c in FD:
                    if not k[2] & m2[2]:
                        lhs += c * _pair_monomials(g, k, m2)
                for k, c in FE:
                    if not m1[2] & k[2]:
                        rhs += sign * c * _pair_monomials(g, m1, k)
                if lhs != rhs:
                    D, E = Element.monomial(g, *m1), Element.monomial(g, *m2)
                    unit = Fraction(B, F.den)
                    expected, got = (str(_value(g, n, unit)) for n in (rhs, lhs))
                    failures.append({"where": f"<F({D}),{E}>", "expected": expected, "got": got})
                    if len(failures) >= 10:
                        return cases, failures
    return cases, failures


def check_adjointness(g: int, B=1) -> dict:
    """Self-adjointness of e and f, anti-self-adjointness of h, for both
    d = 0 families, against the graded pairing at B (by default 1)."""
    B = _normalization(B)
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
    bases = {}
    parts = [(name, *_adjointness_failures(op, sign, B, bases)) for name, op, sign in plan]
    return merged_report("check", "adjoint", g, 0, parts)


def check_descent(g: int, d: int) -> dict:
    """f_alpha^d R_{k,m,l} sigma = (2g+2d-k) R_{k-1,m,l} sigma and the
    beta analogue lowering m, for every generator key with k in
    [2g+2d, 2g+2d+4]; out-of-range R indices mean the empty sum.

    Both sides are multiplied by 4 N, with N = (k-g-l)! (1 when negative)
    R_k's own denominator and 4 f's den: the identity is checked in ints
    as f(4 N R_k sigma) = (2g+2d-k) 4 N R_down sigma, and a witness is
    divided back by 4 N.  Each 4 N R_{k,m,l} sigma is built once per
    (l, sigma).  The keys (k, m) of one (l, sigma) give pieces in distinct
    bidegrees and f is bihomogeneous, so f is applied once per (l, sigma,
    family), to the sum of the pieces, and compared with the sum of the
    right sides: the sums agree exactly when every key's identity holds.
    Only a failing sum is split per key, and the witnesses are sorted back
    into (k, l, m, sigma, family) order."""
    _, _, fa = make_sl2("alpha", d, g)
    _, _, fb = make_sl2("beta", d, g)
    ks = range(2 * g + 2 * d, 2 * g + 2 * d + 5)
    cases = 0
    found = []  # (order key, witness)
    for l in range(g + 1):
        gens = {(k, m): _generator(g, k, m, l) for k in ks for m in range(g - l + 1)}
        scaled = {key: {abc: 4 * v for abc, v in terms.items()} for key, (terms, _) in gens.items()}
        # per family, the int (2g+2d-k) N / N_down of each key whose lowered
        # R is in range; there is none at k = 2g+2d, where the factor is 0
        steps = ({}, {})
        for (k, m), (_, N) in gens.items():
            for dm, step in enumerate(steps):
                if (k - 1, m - dm) in gens:
                    step[k, m] = (2 * g + 2 * d - k) * N // gens[k - 1, m - dm][1]
        for idx, sigma in enumerate(prim_basis(g, l)):
            chain = _sigma_chain(sigma, g)[1]
            prods = {key: _times_chain(terms, chain) for key, terms in scaled.items()}
            joint = Element._raw(g, {key: v for terms in prods.values() for key, v in terms.items()})
            for fam, (name, f, dm) in enumerate((("f_alpha", fa, 0), ("f_beta", fb, 1))):
                cases += len(prods)
                step = steps[dm]
                rhs = {key: s * v for (k, m), s in step.items() for key, v in prods[k - 1, m - dm].items()}
                if f(joint).terms == rhs:
                    continue
                for (k, m), left in prods.items():  # split per key for the witnesses
                    scale = step.get((k, m))
                    want = {key: scale * v for key, v in prods[k - 1, m - dm].items()} if scale else {}
                    got, N4 = f(Element._raw(g, dict(left))).terms, 4 * gens[k, m][1]
                    if got != want:
                        witness = {
                            "where": f"{name}, k={k}, m={m}, l={l}, sigma#{idx}",
                            "expected": str(Element._raw(g, _divide(want, N4))),
                            "got": str(Element._raw(g, _divide(got, N4))),
                        }
                        found.append(((k, l, m, idx, fam), witness))
    found.sort(key=lambda item: item[0])
    return report("check", "descent", g, d, cases, [witness for _, witness in found])


# ----------------------------------------------------------------------
# f-closure of the above-top-Chern subspace


def sl2_closure(g: int, coh_buffer: int = None) -> dict:
    """Smallest ideal containing everything of Chern degree > 4g-4 that is
    closed under the diagonal f operator: its least fixpoint inside the
    window coh <= 6g-6 + coh_buffer, restricted to coh <= 6g-6.

    A slice above the top Chern degree lies in the closure whole, so it
    gets no span and its dimension is its monomial count.  The rest is a
    worklist: each vector a span accepts is mapped once by each map's
    integer action on its term dict (scaling f by its den leaves a span as
    it is), and each image inside the window below the top Chern degree is
    offered to the span of its bidegree.  A round maps what the one before
    accepted, the first the monomials above the top Chern degree; the last
    round accepts nothing.

    Returns {"dims": {bd: dim}, "sweeps": rounds, "buffer": coh_buffer};
    coh_buffer (default 4g) must be an int >= 0.
    """
    check_genus(g)
    if coh_buffer is None:
        coh_buffer = 4 * g
    _check_int("coh_buffer", coh_buffer)
    top_chern = 4 * g - 4
    bases = {bd: monomial_basis(g, bd) for bd in bidegree_cone(g, 6 * g - 6 + coh_buffer)}
    above = [bd for bd in bases if bd.chern > top_chern]
    below = [bd for bd in bases if bd.chern <= top_chern]
    indexes = {bd: {mono: i for i, mono in enumerate(bases[bd])} for bd in below}
    spans = {bd: RowSpan(len(bases[bd])) for bd in below}

    # multiplication by the generators keeps the subspace an ideal; the
    # diagonal f acts through its two bihomogeneous parts f_alpha and f_beta
    ea, _, fa = make_sl2("alpha", 0, g)
    eb, _, fb = make_sl2("beta", 0, g)

    def times_psi(bit):
        return lambda a, b, mask: {} if mask & bit else {(a, b, mask | bit): koszul_sign(bit, mask)}

    psi_shift = Element.psi(g, 1).bidegree()
    maps = [(op.action, op.shift) for op in (ea, eb, fa, fb)]
    maps += [(times_psi(1 << i), psi_shift) for i in range(2 * g)]

    fresh = ((bd, {mono: 1}) for bd in above for mono in bases[bd])
    rounds = 0
    while True:
        rounds += 1
        accepted, fresh = fresh, []
        for (coh, chern), terms in accepted:
            for action, (dc, dch) in maps:
                target = (coh + dc, chern + dch)
                span = spans.get(target)
                # outside the window, a whole slice and a full span reject every add
                if span is None or span.rank == span.ncols:
                    continue
                image = _apply(action, terms)
                index = indexes[target]
                if image and span.add({index[k]: v for k, v in image.items()}):
                    fresh.append((target, image))
        if not fresh:
            break
    dims = {bd: spans[bd].rank if bd in spans else len(basis) for bd, basis in bases.items()}
    dims = {tuple(bd): n for bd, n in dims.items() if bd.coh <= 6 * g - 6 and n}
    return {"dims": dims, "sweeps": rounds, "buffer": coh_buffer}


def check_closure(g: int, buffers=(None,)) -> dict:
    """Compare the f-closure dimensions with the relation-ideal slices for
    every bidegree with coh <= 6g-6, across the given buffer sweep.  The
    ideal dimensions are the relation counts of the invariant rings of
    genus g - l, read from the _invariant_relations memo, which asserts
    their freeness on the first build.  The window
    is finite, so each closure reaches its fixpoint; a buffer too small for
    the chains of f shows as a dimension mismatch.  At least one buffer
    is needed: with none, no case runs."""
    buffers = tuple(buffers)
    if not buffers:
        raise ValueError("the closure check needs at least one buffer")
    ideal_dims = _lefschetz_dims(g, 6 * g - 6, lambda gl, bd: len(_invariant_relations(gl, 0, bd)))
    cases = 0
    failures = []
    for buf in buffers:
        result = sl2_closure(g, buf)
        n, fails = dims_mismatches(result["dims"], ideal_dims, f"buffer={result['buffer']}, ")
        cases += n
        failures.extend(fails)
    return report("check", "closure", g, 0, cases, failures)
