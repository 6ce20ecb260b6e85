"""Mumford relations, the graded relation ideal, and its dimension tables.

Three layers live here:

* primitive classes in the exterior algebra on psi_1..psi_2g, computed as
  exact kernels of multiplication by a theta power;
* the Mumford relations (explicit t-coefficient formula), their modified
  recombination with the improved Chern-degree bound, and the graded
  relation generators R_{k,m,l}, each built as the coefficient in
  Q[alpha, beta, gamma] of a primitive class sigma_l of degree l.
  R_{k,m,l} has one exact form, _generator_terms' int terms over
  (k - g - l)!, which the closed route, both table routes and the descent
  check read as they are.  modified_mumford compares its two routes once
  per (d, k, m, l, g), as int terms over one denominator each, by
  cross-multiplication, and memoises the checked coefficient over its
  least denominator.  Both relation builders and the descent check
  multiply by sigma in one int product, the coefficient's (a, b, c) terms
  as alpha^a beta^b shifts of sigma's memoised gamma chain, whose
  vanishing next step proves sigma primitive;
* per-bidegree slices of the relation ideals and the resulting refined
  dimension tables, by the ideal route (any d >= 0) and by the pairing
  route (d = 0).

Both table routes work on one core, the invariant ring
Q[alpha, beta, gamma]/I_g' of a genus 0 <= g' <= MAX_GENUS.  H*(N_g) is
the sum over l of Prim_l (x) Q[alpha, beta, gamma]/I_{g-l} (King-Newstead),
dim Prim_l = prim_dim(g, l), so summand l of genus g is the core at
g' = g - l, read at bd - (3l, 2l) (R_{k,m,l} there is R_{k-2l,m,0}).  No
step enumerates the 2^(2g) psi monomials.  Both routes hold ints: the
relation rows are R's int terms, and the pairing reads integral._numerator
at l = 0, one nonzero scalar off summand l's, so ranks and kernels agree.
Each ring slice is built once per process, in the memos
_invariant_relations and _pairing_slice, which every route and check
reads; ideal_slice writes their rows out over psi monomials for the dump.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby

from .algebra import (
    Element,
    _accumulate,
    _check_int,
    _divide,
    _lowest_terms,
    _same_value,
    bidegree_cone,
    check_genus,
    exterior_basis,
    gamma,
    theta_power,
)
from .integral import _normalization, _numerator
from .linalg import QMatrix, row_reduce
from .series import InvariantPoly, _phi_numerators, phi_series


class VerificationError(RuntimeError):
    """Two routes to the same exact object disagree."""


def report(kind: str, name: str, genus: int, d: int, cases: int, failures: list) -> dict:
    """The verdict of a check (kind "check") or a suite (kind "suite").

    It passes only when it ran at least one case and none failed; the first
    ten failures are kept as witnesses, each ``{"where", "expected", "got"}``.
    Every check and suite builds its verdict here.
    """
    return {
        kind: name,
        "genus": genus,
        "d": d,
        "cases": cases,
        "pass": cases > 0 and not failures,
        "failures": failures[:10],
    }


def merged_report(kind: str, name: str, genus: int, d: int, parts) -> dict:
    """One report over labelled ``(label, cases, failures)`` parts: the
    cases add up, and each witness's ``where`` is prefixed ``"label: "``."""
    failures = [{**f, "where": f"{label}: {f['where']}"} for label, _, fails in parts for f in fails]
    return report(kind, name, genus, d, sum(n for _, n, _ in parts), failures)


def dims_mismatches(got: dict, want: dict, where: str = ""):
    """(cases, witnesses) of the comparison of two ``{bd: dim}`` tables: one
    case per bidegree of either table, an absent one read as 0, and a
    witness ``{"where": f"{where}bd={bd}", "expected", "got"}`` per
    mismatch, in bidegree order.  The one table diff of every route check."""
    keys = sorted(set(got) | set(want))
    witnesses = [
        {"where": f"{where}bd={bd}", "expected": str(want.get(bd, 0)), "got": str(got.get(bd, 0))}
        for bd in keys
        if got.get(bd, 0) != want.get(bd, 0)
    ]
    return len(keys), witnesses


# ----------------------------------------------------------------------
# primitive classes


def prim_dim(g: int, l: int) -> int:
    """dim of the degree-l primitive part: C(2g, l) - C(2g, l-2)."""
    return math.comb(2 * g, l) - (math.comb(2 * g, l - 2) if l >= 2 else 0)


def _check_degrees(g: int, l: int, m: int = 0, d: int = 0, k: int = 0) -> None:
    """The range of a degree-d summand-l relation: ints 0 <= l <= g, 0 <= m <= g - l, d >= 0,
    and an int k of any value."""
    check_genus(g)
    for name, v in (("l", l), ("m", m), ("d", d), ("k", k)):
        _check_int(name, v, None)  # the type; the range in one message below
    if not 0 <= l <= g or not 0 <= m <= g - l or d < 0:
        raise ValueError(f"need 0 <= l <= g, 0 <= m <= g - l and d >= 0, got l={l}, m={m}, d={d}")


@lru_cache(maxsize=None, typed=True)  # typed: a warm l = 1 must not answer True
def prim_basis(g: int, l: int):
    """Basis of the degree-l primitive part: kernel of theta^(g-l+1).

    Computed as an exact kernel, never from a closed-form combinatorial
    basis: the pair-free psi monomials undercount the kernel for l >= 2.
    Size is prim_dim(g, l).
    """
    _check_degrees(g, l)
    dom = exterior_basis(g, l)
    cod = exterior_basis(g, 2 * g - l + 2)
    cod_index = {m: j for j, m in enumerate(cod)}
    power = theta_power(g, g - l + 1)
    rows = [{} for _ in cod]  # the matrix of x -> x * power, dom -> cod
    for j, mask in enumerate(dom):
        image = Element.monomial(g, 0, 0, mask) * power
        for (_, _, m), c in image.terms.items():
            rows[cod_index[m]][j] = c
    _, kernel = row_reduce(QMatrix(len(dom), rows))
    basis = []
    for vec in kernel:
        basis.append(Element(g, {(0, 0, mask): v for mask, v in zip(dom, vec) if v}))
    expected = prim_dim(g, l)
    if len(basis) != expected:
        raise VerificationError(
            f"primitive basis size mismatch at g={g}, l={l}: got {len(basis)}, expected {expected}"
        )
    return tuple(basis)


# ----------------------------------------------------------------------
# relations times sigma


@lru_cache(maxsize=None)
def _gamma_chain(g: int, terms: tuple):
    """(l, chain) for the class sigma of genus g whose items are terms:
    chain[c] holds the items of gamma^c sigma, for c = 0..g-l.

    sigma must be a homogeneous nonzero psi-only element of degree l <= g
    with gamma^(g-l+1) sigma = 0, which is theta^(g-l+1) sigma = 0 (theta =
    -gamma): the chain's next step is the proof that sigma is primitive.
    A refusal raises, so it is never cached."""
    degs = {mask.bit_count() if not (a or b) else None for (a, b, mask), _ in terms}
    if len(degs) != 1 or None in degs:
        raise ValueError("primitive class argument must be a homogeneous nonzero psi-only element")
    l = degs.pop()
    x, step, chain = Element._raw(g, dict(terms)), gamma(g), [terms]
    for _ in range(g - l + 1):  # no step when l > g: then sigma itself is the nonzero last entry
        x = x * step
        chain.append(tuple(x.terms.items()))
    if chain.pop():
        raise ValueError(f"the psi class of degree {l} is not primitive at g={g}")
    return l, tuple(chain)


def _sigma_chain(sig: Element, g: int):
    """_gamma_chain of sig at genus g, keyed on its items in their order;
    a sig of another genus is refused before the memo is read."""
    if sig.g != g:
        raise ValueError(f"genus mismatch: {sig.g} vs {g}")
    return _gamma_chain(g, tuple(sig.terms.items()))


def _times_chain(coefficient: dict, chain) -> dict:
    """The term dict of x * sigma, x given by its (a, b, c) terms and sigma
    by its gamma chain: alpha and beta are central, so x * sigma is the sum
    of the alpha^a beta^b shifts of gamma^c sigma, which is 0 past the
    chain.  The one product of a relation coefficient with sigma.

    Built in one pass, with no sums: chain[c], gamma^c sigma, is psi-only
    of psi-degree l + 2c, so a product key (a, b, mask) gives back its
    (a, b, c), which are distinct keys of x, and its mask, distinct within
    chain[c].  No two products share a key, and none is 0."""
    return {
        (a, b, mask): v * w
        for (a, b, c), v in coefficient.items()
        if c < len(chain)
        for (_, _, mask), w in chain[c]
    }


# ----------------------------------------------------------------------
# Mumford relations


def _over(terms: dict, l: int, e: int, num: int, den: int):
    """terms times (-1)^l 2^e num / den as int terms over one positive
    denominator: the form of both routes of a modified relation."""
    num = (-1) ** l * num << max(e, 0)
    return {key: v * num for key, v in terms.items()}, den << max(-e, 0)


def _plain_relations(d: int, k: int, m: int, l: int, g: int, weights):
    """sum over (w, p) in weights of w * mumford_relation(d, k+m-p, p, l, g)
    as int terms over one denominator.  Every term has n = k+m-g-l and the
    factor (-1)^l 2^(2g-m-k) / n!, so the sum is built in integers, from
    N_r = r! c_{d,r}.  The term of (w, p, j, s) is an int scalar times
    N_{n-3j-2s} shifted by beta^s gamma^j, the same for every (w, p): the
    scalars are summed per (j, s) first, and N_r's terms are read once per
    (j, s) whose scalar is nonzero."""
    _check_degrees(g, l, m, d, k)
    n = k + m - g - l
    if n < 0:
        return {}, 1
    scalars = {}
    for weight, p in weights:
        for j in range(min(p, n // 3) + 1):
            wj = weight * math.comb(p, j) * math.perm(g - l - j, p - j) * (-2) ** j
            for s in range(min(p - j, (n - 3 * j) // 2) + 1):
                # c_{d,r} = N_r / r! = (n!/r!) N_r / n!, r = n - 3j - 2s
                w = wj * math.comb(p - j, s) * (-1) ** s * math.perm(n, 3 * j + 2 * s)
                scalars[j, s] = scalars.get((j, s), 0) + w
    numerators = _phi_numerators(d, g, n)
    out = {}
    for (j, s), w in scalars.items():
        if w:
            terms = numerators[n - 3 * j - 2 * s].items()
            _accumulate((((a, b + s, c + j), w * v) for (a, b, c), v in terms if c + j <= g), out)
    return _over(out, l, 2 * g - m - k, 1, math.factorial(n))


def mumford_relation(d: int, k: int, m: int, l: int, g: int) -> InvariantPoly:
    """The coefficient of sigma_l in the relation attached to (k, theta^m
    sigma_l) at destabilizing degree d, sigma_l primitive of degree l.

    Equal to (-1)^l 2^(2g-m-k) [t^n] (Phi_d(t) * F(t)), n = k+m-g-l, with
    F(t) = sum_j C(m,j) (g-l-j)_(m-j) (1 - beta t^2)^(m-j) (-2 gamma t^3)^j.
    Expanding the binomial, [t^n] is the finite sum over 3j + 2s <= n of
    C(m,j) (g-l-j)_(m-j) C(m-j,s) (-1)^s (-2)^j beta^s gamma^j c_{d,n-3j-2s}.
    A negative t-index gives zero.
    """
    return InvariantPoly._raw(g, _divide(*_plain_relations(d, k, m, l, g, [(1, m)])))


def _sum_route(d: int, k: int, m: int, l: int, g: int):
    """The modified relation as the alternating combination of plain
    relations, as int terms over one denominator."""
    weights = (((-1) ** s * math.comb(m, s) * math.perm(g - l - s, m - s), s) for s in range(m + 1))
    return _plain_relations(d, k, m, l, g, weights)  # read lazily, after the range check


def modified_mumford_sum(d: int, k: int, m: int, l: int, g: int) -> InvariantPoly:
    """sigma_l coefficient of the modified relation as the alternating
    combination of plain relations, over one denominator."""
    return InvariantPoly._raw(g, _divide(*_sum_route(d, k, m, l, g)))


def _generator_terms(g: int, k: int, m: int, l: int):
    """(a, b, c, W) over b + c = m, a + b + 2c = n = k-g-l, a >= 0, with the
    int W = n! (g-l-c)! 2^c / (a! b! c!) (n!/(a! b! c! c!) is a multinomial):
    R_{k,m,l} = sum W alpha^a beta^b gamma^c / n!.  Empty when m < 0."""
    n = k - g - l
    for c in range(m + 1):
        b = m - c
        a = n - b - 2 * c
        if a >= 0:
            shares = math.factorial(a) * math.factorial(b) * math.factorial(c)
            yield a, b, c, math.factorial(n) // shares * math.factorial(g - l - c) << c


def _closed_route(d: int, k: int, m: int, l: int, g: int):
    """The modified relation from its closed form, as int terms over one
    denominator: alpha^a/a! of R_{k,m,l} becomes c_{d,a} = phi_series(d, g,
    a)[a], so each term W alpha^a / n! of _generator_terms becomes W (a!
    c_{d,a}) / n!, and a! c_{d,a} has int coefficients."""
    _check_degrees(g, l, m, d, k)
    fn, out = math.factorial(max(k - g - l, 0)), {}
    for a, b, c, W in _generator_terms(g, k, m, l):
        fa = math.factorial(a)
        ints = ((key, W * v.numerator * (fa // v.denominator)) for key, v in phi_series(d, g, a)[a].terms.items())
        _accumulate((((x, y + b, z + c), v) for (x, y, z), v in ints if z + c <= g), out)
    return _over(out, l, 2 * g - m - k, math.factorial(m), fn * math.factorial(g - l - m))


def modified_mumford_closed(d: int, k: int, m: int, l: int, g: int) -> InvariantPoly:
    """sigma_l coefficient of the modified relation from its closed form

    (-1)^l 2^(2g-m-k) m!/(g-l-m)! *
        sum_{b+c=m, a+b+2c=k-g-l} (g-l-c)! c_{d,a} beta^b/b! (2 gamma)^c/c!.
    """
    return InvariantPoly._raw(g, _divide(*_closed_route(d, k, m, l, g)))


@lru_cache(maxsize=None, typed=True)  # typed: a warm d = 1 must not answer True
def _checked_coefficient(d: int, k: int, m: int, l: int, g: int):
    """The sigma_l coefficient of the modified relation as (den * x, den),
    den its least denominator, after asserting that its two defining
    routes agree: both are int terms over one denominator, compared by
    cross-multiplication.  The check does not depend on sigma, so it runs
    once per key."""
    by_closed = _closed_route(d, k, m, l, g)
    if not _same_value(*_sum_route(d, k, m, l, g), *by_closed):
        raise VerificationError(f"modified relation routes disagree at d={d}, k={k}, m={m}, l={l}, g={g}")
    return _lowest_terms(*by_closed)


def modified_mumford(d: int, k: int, m: int, sig: Element, g: int) -> Element:
    """Modified Mumford relation attached to (k, theta^m sig): the checked
    sigma_l coefficient times sig, sig checked primitive once per class."""
    l, chain = _sigma_chain(sig, g)
    terms, den = _checked_coefficient(d, k, m, l, g)
    return Element._raw(g, _divide(_times_chain(terms, chain), den))


def _generator(g: int, k: int, m: int, l: int):
    """R_{k,m,l} as (W terms of _generator_terms, (k-g-l)! or 1), after the
    range check; a negative m, or k < g + l, gives the empty sum."""
    _check_int("m", m, None)
    _check_degrees(g, l, max(m, 0), k=k)
    terms = {(a, b, c): W for a, b, c, W in _generator_terms(g, k, m, l)}
    return terms, math.factorial(max(k - g - l, 0))


@lru_cache(maxsize=None, typed=True)  # typed: a warm m = 1 must not answer True
def rel_generator_poly(g: int, k: int, m: int, l: int) -> InvariantPoly:
    """R_{k,m,l} = sum_{b+c=m, a+b+2c=k-g-l} (g-l-c)! alpha^a/a! beta^b/b! (2 gamma)^c/c!.

    An out-of-range index set (negative m, or k < g + l) gives the empty
    sum, i.e. zero.
    """
    return InvariantPoly._raw(g, _divide(*_generator(g, k, m, l)))


def rel_generator(k: int, m: int, sig: Element, g: int) -> Element:
    """R_{k,m,l} * sigma_l; homogeneous of bidegree (2k-2g+2m+l, 2k-2g)."""
    l, chain = _sigma_chain(sig, g)
    terms, den = _generator(g, k, m, l)
    return Element._raw(g, _divide(_times_chain(terms, chain), den))


# ----------------------------------------------------------------------
# ideal slices and dimension tables


def _invariant_families(g: int, d: int, bd):
    """(ell, k, m) of every beta^ell R_{k,m,0} of the degree-d relation ideal
    of the invariant ring of genus g landing in bidegree bd."""
    coh, chern = bd
    if chern % 2:
        return
    for k in range(2 * g + 2 * d, g + chern // 2 + 1):
        ell = g + chern // 2 - k
        m, odd = divmod(coh - 4 * ell - 2 * k + 2 * g, 2)
        if 0 <= m <= g and not odd:
            yield ell, k, m


def _summands(g: int, bd):
    """(l, g - l, bd - (3l, 2l)) per Lefschetz summand l: summand l of genus g
    at bd is prim_dim(g, l) copies of the invariant ring of genus g - l at
    bd - (3l, 2l), its relation R_{k,m,l} being R_{k-2l,m,0} there.  One
    with an empty invariant basis is zero, and left out."""
    shifted = ((l, g - l, (bd[0] - 3 * l, bd[1] - 2 * l)) for l in range(g + 1))
    return [s for s in shifted if invariant_basis(s[1], s[2])]


def ideal_slice_keys(g: int, d: int, bd):
    """Lexicographic (ell, k, m, l, primIndex) keys of the spanning family
    of the degree-d graded relation ideal landing in bidegree bd."""
    check_genus(g)
    _check_int("d", d)
    return sorted(
        (ell, k + 2 * l, m, l, idx)
        for l, gl, sbd in _summands(g, bd)
        for ell, k, m in _invariant_families(gl, d, sbd)
        for idx in range(prim_dim(g, l))
    )


def ideal_slice(g: int, d: int, bd):
    """All beta^ell R_{k,m,l} sigma landing in bidegree bd, in key order: R
    with its beta exponents raised by ell (beta is central), built once per
    family, times each sigma.  The family is free, which is asserted: its
    summand-l rows are the invariant-ring rows of genus g - l, whose
    freeness _invariant_relations asserts, times the independent
    prim_basis(g, l), and the Lefschetz sum is direct."""
    keys = ideal_slice_keys(g, d, bd)
    for _, gl, sbd in _summands(g, bd):
        _invariant_relations(gl, d, sbd)
    elements = []
    for (ell, k, m, l), family in groupby(keys, lambda key: key[:4]):
        terms, den = _generator(g, k, m, l)
        shifted = {(a, b + ell, c): W for (a, b, c), W in terms.items()}
        for *_, idx in family:
            chain = _sigma_chain(prim_basis(g, l)[idx], g)[1]
            elements.append(Element._raw(g, _divide(_times_chain(shifted, chain), den)))
    return elements


# ----------------------------------------------------------------------
# tables


@dataclass
class OmegaTable:
    """Refined dimension table: dims[(coh, chern)] = dim gr^C_chern H^coh."""

    g: int
    d: int
    max_coh: int
    dims: dict = field(default_factory=dict)

    @classmethod
    def from_expansion(cls, g: int, d: int, max_coh: int, expansion) -> "OmegaTable":
        """The table of a closed-form expansion: q^i t^j, q tracking the
        Chern degree, is bidegree (i + j, i).  A coefficient that is not a
        non-negative int is no dimension, and raises VerificationError."""
        dims = {}
        for (i, j), v in expansion.terms.items():
            if not isinstance(v, int) or v < 0:
                raise VerificationError(
                    f"closed form at g={g}, d={d}: coefficient {v} of q^{i} t^{j} is no dimension"
                )
            dims[(i + j, i)] = v
        return cls(g, d, max_coh, dims)

    def dim(self, coh: int, chern: int) -> int:
        return self.dims.get((coh, chern), 0)

    def nonzero(self):
        return sorted((bd, n) for bd, n in self.dims.items() if n)

    def poincare_coefficients(self):
        """q = t specialization: cohomological-degree Betti numbers."""
        out = {}
        for (coh, _), n in self.dims.items():
            if n:
                out[coh] = out.get(coh, 0) + n
        return out

    def to_json_dict(self):
        table = [
            {"coh": coh, "chern": chern, "dim": n}
            for (coh, chern), n in sorted(self.dims.items())
            if n
        ]
        return {"genus": self.g, "d": self.d, "maxCoh": self.max_coh, "table": table}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["coh,chern,dim"]
        for (coh, chern), n in sorted(self.dims.items()):
            if n:
                lines.append(f"{coh},{chern},{n}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, OmegaTable)
            and self.g == other.g
            and self.d == other.d
            and {k: v for k, v in self.dims.items() if v}
            == {k: v for k, v in other.dims.items() if v}
        )


def default_max_coh(g: int, d: int) -> int:
    return 6 * g - 6 + 4 * d


def invariant_basis(g: int, bd) -> list:
    """Monomials (a, b, c), c <= g, with alpha^a beta^b gamma^c in bidegree
    bd, for the invariant ring Q[alpha, beta, gamma]/I_g of any genus
    0 <= g <= MAX_GENUS: summands l = g, g - 1 of genus g read genus 0, 1."""
    check_genus(g, 0)
    coh, chern = bd
    if chern % 2 or coh % 2:
        return []
    n = (coh - chern) // 2  # b + c
    return [(chern // 2 - n - c, n - c, c) for c in range(min(g, n) + 1) if chern // 2 >= n + c]


@lru_cache(maxsize=None)
def _invariant_relations(g: int, d: int, bd) -> tuple:
    """Rows of the relations beta^ell R_{k,m,0} of genus g over
    invariant_basis(g, bd), each the int terms W of _generator_terms, (k-g)!
    times R; their freeness is asserted, once per key.  R has gamma degree
    <= m <= g, so it needs no truncation."""
    index = {mono: i for i, mono in enumerate(invariant_basis(g, bd))}
    rows = tuple(
        {index[(a, b + ell, c)]: W for a, b, c, W in _generator_terms(g, k, m, 0)}
        for ell, k, m in _invariant_families(g, d, bd)
    )
    if rows and row_reduce(QMatrix(len(index), rows))[0] != len(rows):
        raise VerificationError(f"relation family dependent at g={g}, d={d}, bd={bd}, summand l=0")
    return rows


def _invariant_pairing(g: int, bd) -> QMatrix:
    """M(bd)[p, q] = den(g) * integral of p q at genus g, an int
    (integral._numerator at l = 0), for p, q in the invariant bases of bd
    and of its complementary bidegree.  Summand l of genus g + l, and any
    nonzero normalization B, pair by a nonzero multiple of it."""
    cols = invariant_basis(g, (6 * g - 6 - bd[0], 4 * g - 4 - bd[1]))
    rows = []
    for p in invariant_basis(g, bd):
        entries = ((j, _numerator(g, 0, *(x + y for x, y in zip(p, q)))) for j, q in enumerate(cols))
        rows.append({j: v for j, v in entries if v})
    return QMatrix(len(cols), rows)


@lru_cache(maxsize=None)
def _pairing_slice(g: int, bd):
    """(M^T, rank M), M = _invariant_pairing(g, bd): a nonzero B only
    scales M, so the memo is B-free.  M^T, which the kernel match reads,
    is the pairing at the complementary bidegree, built as such."""
    transpose = _invariant_pairing(g, (6 * g - 6 - bd[0], 4 * g - 4 - bd[1]))
    return transpose, row_reduce(transpose)[0]


def _lefschetz_dims(g: int, max_coh: int, count) -> dict:
    """dims[bd] = sum over summands l of prim_dim(g, l) * count(g - l,
    bd - (3l, 2l)), zeros dropped, count reading an invariant ring."""
    dims = {}
    for bd in bidegree_cone(g, max_coh):
        n = sum(prim_dim(g, l) * count(gl, sbd) for l, gl, sbd in _summands(g, bd))
        if n:
            dims[tuple(bd)] = n
    return dims


def omega_from_ideal(g: int, d: int, max_coh: int = None) -> OmegaTable:
    """dims[bd] = sum over summands l of prim_dim(g, l) * (#monomials -
    #relations) of the invariant ring of genus g - l at bd - (3l, 2l)."""
    check_genus(g)
    _check_int("d", d)
    if max_coh is None:
        max_coh = default_max_coh(g, d)
    _check_int("max_coh", max_coh)

    def count(gl, bd):
        return len(invariant_basis(gl, bd)) - len(_invariant_relations(gl, d, bd))

    return OmegaTable(g, d, max_coh, _lefschetz_dims(g, max_coh, count))


def omega_from_pairing(g: int, B=1) -> OmegaTable:
    """d = 0 table from ranks of the graded pairing: rank = sum over
    summands l of prim_dim(g, l) * the pairing rank of genus g - l."""
    check_genus(g)
    _normalization(B)
    dims = _lefschetz_dims(g, 6 * g - 6, lambda gl, bd: _pairing_slice(gl, bd)[1])
    return OmegaTable(g, 0, 6 * g - 6, dims)


def verify_vanishing_corollary(table: OmegaTable) -> bool:
    """Top-Chern vanishing: no dimension at coh >= 2(g-1) below the line
    chern = coh - 2(g-1)."""
    g = table.g
    for (coh, chern), n in table.dims.items():
        if n and coh >= 2 * (g - 1) and chern < coh - 2 * (g - 1):
            return False
    return True


def pairing_kernel_matches_ideal(g: int, bd, B=1) -> bool:
    """d = 0 coincidence on one bidegree, summand by summand: the relations
    of each invariant ring span exactly the left kernel of its pairing
    matrix (containment plus dimension count)."""
    check_genus(g)
    _normalization(B)
    for _, gl, sbd in _summands(g, bd):
        rows = _invariant_relations(gl, 0, sbd)
        transpose, rank = _pairing_slice(gl, sbd)
        if len(rows) != transpose.cols - rank or any(transpose.mul_vector(r) for r in rows):
            return False
    return True
