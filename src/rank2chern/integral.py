"""Top-Chern-degree integration and the graded pairing.

Only the component of bidegree (6g-6, 4g-4) contributes.  On that slice the
integral of a monomial alpha^n beta^m psi_S is pinned down by two rules:

* monodromy invariance: the integral vanishes unless S pairs every index i
  with i+g, and the value of a product of pairs gamma_i = psi_i psi_{i+g}
  depends only on the number of pairs;
* Virasoro proportionality: along the top-bidegree line n = m = g-1-p the
  values I_p = integral(alpha^(g-1-p) beta^(g-1-p) gamma^p) satisfy
  (g-p) I_p = -2(g-1-p) I_{p+1}.

The overall normalization B = I_0 is a free nonzero rational, passed as a
plain number (default 1) to each public entry, which reads the genus from
its other arguments; every structural output downstream (ranks, kernels,
dimension tables) is invariant under rescaling it.

summand_integral evaluates the two rules in closed form on
alpha^a beta^b gamma^c sigma sigma*, without building an element; the
table routes read its l = 0 case, monomial_integral its c = 0 case.  This
module is the only place an integral is evaluated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import MAX_GENUS, Element, _exact, koszul_sign, monomial_basis
from .linalg import QMatrix

_ZERO = Fraction(0)


def _normalization(B):
    """B in the form of ``_exact``; 0 is refused, and so is a float."""
    B = _exact(B)
    if not B:
        raise ValueError("normalization B must be nonzero")
    return B


def top_bidegree(g: int):
    return (6 * g - 6, 4 * g - 4)


@lru_cache(maxsize=None)
def _virasoro_line(g: int):
    """I_0 .. I_{g-1} with I_0 = 1 (the B = 1 normalization), from g = 0."""
    if not 0 <= g <= MAX_GENUS:
        raise ValueError(f"genus must be in [0, {MAX_GENUS}], got {g!r}")
    vals = [Fraction(1)]
    for p in range(g - 1):
        vals.append(Fraction(-(g - p), 2 * (g - 1 - p)) * vals[-1])
    return tuple(vals)


def monomial_integral(g: int, a: int, b: int, mask: int) -> Fraction:
    """B = 1 integral of the monomial alpha^a beta^b psi_mask."""
    lower = mask & ((1 << g) - 1)
    if lower != mask >> g:
        return _ZERO
    # psi_mask is psi_{i1}..psi_{ip} psi_{i1+g}..psi_{ip+g}: by monodromy
    # invariance it integrates like sigma sigma* of summand p
    return summand_integral(g, lower.bit_count(), a, b, 0)


def summand_integral(g: int, l: int, a: int, b: int, c: int) -> Fraction:
    """B = 1 integral of alpha^a beta^b gamma^c sigma sigma*, with
    sigma = psi_1..psi_l and sigma* = psi_{g+1}..psi_{g+l}.

    Only a = b = g-1-l-c reaches the top bidegree.  There gamma^c is c! times
    the sum over c-sets of pairs -2 psi_i psi_{i+g}; the C(g-l, c) sets that
    miss sigma each give the value of l + c whole pairs, and
    c! C(g-l, c) / perm(g, l+c) = 1 / perm(g, l).
    """
    if a != b or a + l + c != g - 1 or a < 0 or c < 0:
        return _ZERO
    # sorting sigma sigma* into the pairs psi_i psi_{i+g} takes l(l-1)/2 swaps
    value = _virasoro_line(g)[l + c] / (Fraction((-2) ** l) * math.perm(g, l))
    return -value if (l * (l - 1) // 2) & 1 else value


def graded_integral(D: Element, B=1) -> Fraction:
    """Integral of the top-bidegree component; other components give zero."""
    B = _normalization(B)
    acc = _ZERO
    for (a, b, mask), c in D.terms.items():
        v = monomial_integral(D.g, a, b, mask)
        if v:
            acc += c * v
    return acc * B


def graded_pairing(D: Element, E: Element, B=1) -> Fraction:
    return graded_integral(D * E, B)


def _pair_monomials(g: int, m1, m2) -> Fraction:
    """B = 1 pairing of two monomial keys with disjoint psi masks, without
    building Elements."""
    a1, b1, k1 = m1
    a2, b2, k2 = m2
    v = monomial_integral(g, a1 + a2, b1 + b2, k1 | k2)
    return koszul_sign(k1, k2) * v if v else _ZERO


def pairing_matrix(g: int, bd, B=1) -> QMatrix:
    """Pairing of the bidegree slice against its complementary slice.

    Rows are indexed by monomial_basis(g, bd), columns by the basis of the
    complementary bidegree; outside the cone that basis is legitimately
    empty and the matrix has zero columns.  Only nonzero pairings are
    stored; columns whose psi mask overlaps the row's are skipped.
    """
    B = _normalization(B)
    coh, chern = bd
    cols_basis = monomial_basis(g, (6 * g - 6 - coh, 4 * g - 4 - chern))
    data = []
    for m1 in monomial_basis(g, bd):
        pairs = ((j, _pair_monomials(g, m1, m2)) for j, m2 in enumerate(cols_basis) if not m1[2] & m2[2])
        data.append({j: v * B for j, v in pairs if v})
    return QMatrix(len(cols_basis), data)
