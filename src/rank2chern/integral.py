"""Top-Chern-degree integration and the graded pairing.

Only the component of bidegree (6g-6, 4g-4) contributes.  On that slice the
integral of a monomial alpha^n beta^m psi_S is pinned down by two rules:

* monodromy invariance: the integral vanishes unless S pairs every index i
  with i+g, and the value of a product of pairs gamma_i = psi_i psi_{i+g}
  depends only on the number of pairs;
* Virasoro proportionality: along the top-bidegree line n = m = g-1-p the
  values I_p = integral(alpha^(g-1-p) beta^(g-1-p) gamma^p) satisfy
  (g-p) I_p = -2(g-1-p) I_{p+1}.

The overall normalization B = I_0 is a free nonzero rational; every
structural output downstream (ranks, kernels, dimension tables) is invariant
under rescaling it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .algebra import Element, check_genus, koszul_sign, monomial_basis
from .linalg import QMatrix

_ZERO = Fraction(0)


@dataclass(frozen=True)
class IntegralConfig:
    g: int
    B: Fraction = field(default=Fraction(1))

    def __post_init__(self):
        check_genus(self.g)
        object.__setattr__(self, "B", Fraction(self.B))
        if self.B == 0:
            raise ValueError("normalization B must be nonzero")


def top_bidegree(g: int):
    return (6 * g - 6, 4 * g - 4)


@lru_cache(maxsize=None)
def _virasoro_line(g: int):
    """I_0 .. I_{g-1} with I_0 = 1 (the B = 1 normalization)."""
    check_genus(g)
    vals = [Fraction(1)]
    for p in range(g - 1):
        vals.append(Fraction(-(g - p), 2 * (g - 1 - p)) * vals[-1])
    return tuple(vals)


def monomial_integral(g: int, a: int, b: int, mask: int) -> Fraction:
    """B = 1 integral of the monomial alpha^a beta^b psi_mask."""
    s = mask.bit_count()
    if 2 * a + 4 * b + 3 * s != 6 * g - 6 or 2 * (a + b + s) != 4 * g - 4:
        return _ZERO
    lower = mask & ((1 << g) - 1)
    upper = mask >> g
    if lower != upper:
        return _ZERO
    # top bidegree forces a = b = g - 1 - p, so I_p is always available;
    # sorting psi_{i1} psi_{i1+g} ... psi_{ip} psi_{ip+g} takes p(p-1)/2 swaps
    p = lower.bit_count()
    value = _virasoro_line(g)[p] / (Fraction((-2) ** p) * math.perm(g, p))
    return -value if (p * (p - 1) // 2) & 1 else value


def graded_integral(D: Element, cfg: IntegralConfig) -> Fraction:
    """Integral of the top-bidegree component; other components give zero."""
    if D.g != cfg.g:
        raise ValueError("genus mismatch between element and config")
    acc = _ZERO
    for (a, b, mask), c in D.terms.items():
        v = monomial_integral(cfg.g, a, b, mask)
        if v:
            acc += c * v
    return acc * cfg.B


def graded_pairing(D: Element, E: Element, cfg: IntegralConfig) -> Fraction:
    return graded_integral(D * E, cfg)


def _pair_monomials(g: int, m1, m2) -> Fraction:
    """B = 1 pairing of two monomial keys with disjoint psi masks, without
    building Elements."""
    a1, b1, k1 = m1
    a2, b2, k2 = m2
    v = monomial_integral(g, a1 + a2, b1 + b2, k1 | k2)
    return koszul_sign(k1, k2) * v if v else _ZERO


def pairing_matrix(g: int, bd, cfg: IntegralConfig = None) -> QMatrix:
    """Pairing of the bidegree slice against its complementary slice.

    Rows are indexed by monomial_basis(g, bd), columns by the basis of the
    complementary bidegree; outside the cone that basis is legitimately
    empty and the matrix has zero columns.  Only nonzero pairings are
    stored.  A row pairs only with the columns whose psi mask is disjoint
    from its own and completes the union to whole pairs (i, i+g): the
    missing halves of its broken pairs plus any set of pairs it does not
    touch.  Those partners are the only columns visited.
    """
    if cfg is None:
        cfg = IntegralConfig(g)
    if cfg.g != g:
        raise ValueError("genus mismatch")
    coh, chern = bd
    comp = (6 * g - 6 - coh, 4 * g - 4 - chern)
    cols_basis = monomial_basis(g, comp)
    # within one bidegree a psi mask fixes the exponents of alpha and beta
    col_of_mask = {m2[2]: j for j, m2 in enumerate(cols_basis)}
    low = (1 << g) - 1
    data = []
    for m1 in monomial_basis(g, bd):
        lower, upper = m1[2] & low, m1[2] >> g
        forced = (upper & ~lower) | ((lower & ~upper) << g)
        free = low & ~(lower | upper)
        row = {}
        sub = free
        while True:  # every submask of the untouched pairs
            j = col_of_mask.get(forced | sub | (sub << g))
            if j is not None:
                v = _pair_monomials(g, m1, cols_basis[j])
                if v:
                    row[j] = v * cfg.B
            if not sub:
                break
            sub = (sub - 1) & free
        data.append(dict(sorted(row.items())))
    return QMatrix(len(cols_basis), data)

