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

The B = 1 values are held as ints over one positive denominator den(g)
per genus: _virasoro_line(g) evaluates the Virasoro rule once, in closed
form on alpha^a beta^b gamma^c sigma sigma*, as den(g) times each value,
and _numerator reads it (the table routes read its l = 0 case);
_pair_monomials applies the monodromy rule to two monomial keys and
returns the int den(g) times their pairing, which the adjointness check
sums, and the integral of one key is its pairing with 1.
The public entries build a Fraction only for the value they return.  This
module is the only place an integral is evaluated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import Element, _exact, check_genus, koszul_sign, monomial_basis
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


@lru_cache(maxsize=None, typed=True)  # typed: a warm g = 1 must not answer True
def _virasoro_line(g: int):
    """(den, rows), from g = 0: rows[l][c] is den times the B = 1 integral
    of alpha^a beta^a gamma^c sigma sigma* with a = g-1-l-c >= 0, and den is
    the least positive int that makes every one of them an int."""
    check_genus(g, 0)
    # With sigma = psi_1..psi_l and sigma* = psi_{g+1}..psi_{g+l}, gamma^c is
    # c! times the sum over c-sets of pairs -2 psi_i psi_{i+g}; the C(g-l, c)
    # sets that miss sigma each give the value I_{l+c} of l + c whole pairs,
    # and c! C(g-l, c) / perm(g, l+c) = 1 / perm(g, l).  The Virasoro rule
    # with I_0 = 1 gives I_p = (-1)^p g / (2^p (g-p)) (Thaddeus' intersection
    # numbers), so each value is a quotient of ints, built without Fractions:
    # I_{l+c} / ((-2)^l perm(g, l)) as (numerator, denominator), where sorting
    # sigma sigma* into the pairs psi_i psi_{i+g} takes l(l-1)/2 swaps.
    values = [
        [((-1) ** (l * (l - 1) // 2 + c) * g, 2 ** (2 * l + c) * (g - l - c) * math.perm(g, l)) for c in range(g - l)]
        for l in range(g)
    ]
    den = math.lcm(*(d // math.gcd(n, d) for row in values for n, d in row))
    return den, tuple(tuple(n * den // d for n, d in row) for row in values)


def _numerator(g: int, l: int, a: int, b: int, c: int) -> int:
    """den(g) times the B = 1 integral of alpha^a beta^b gamma^c sigma sigma*,
    with sigma = psi_1..psi_l and sigma* = psi_{g+1}..psi_{g+l}; only
    a = b = g-1-l-c reaches the top bidegree."""
    if a != b or a + l + c != g - 1 or a < 0 or c < 0:
        return 0
    return _virasoro_line(g)[1][l][c]


def _pair_monomials(g: int, m1, m2) -> int:
    """den(g) times the B = 1 pairing of two monomial keys with disjoint psi
    masks, without building Elements; a key paired with Element._unit, the
    key of 1, gives its integral."""
    a1, b1, k1 = m1
    a2, b2, k2 = m2
    mask = k1 | k2
    lower = mask & ((1 << g) - 1)
    if lower != mask >> g:
        return 0
    # psi_mask is psi_{i1}..psi_{ip} psi_{i1+g}..psi_{ip+g}: by monodromy
    # invariance it integrates like sigma sigma* of summand p
    v = _numerator(g, lower.bit_count(), a1 + a2, b1 + b2, 0)
    return koszul_sign(k1, k2) * v if v else 0


def _value(g: int, n: int, B=1) -> Fraction:
    """The value B n / den(g) of a numerator n."""
    return Fraction(n * B, _virasoro_line(g)[0]) if n else _ZERO


def graded_integral(D: Element, B=1) -> Fraction:
    """Integral of the top-bidegree component; other components give zero."""
    if not isinstance(D, Element):  # only an Element's keys are monomial keys
        raise TypeError(f"the graded integral reads an Element, not {type(D).__name__}")
    B = _normalization(B)
    g = D.g
    return _value(g, sum(c * _pair_monomials(g, key, Element._unit) for key, c in D.terms.items()), B)


def graded_pairing(D: Element, E: Element, B=1) -> Fraction:
    if not (isinstance(D, Element) and isinstance(E, Element)):
        raise TypeError(f"the graded pairing reads two Elements, not {type(D).__name__} and {type(E).__name__}")
    return graded_integral(D * E, B)


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
        data.append({j: _value(g, v, B) for j, v in pairs if v})
    return QMatrix(len(cols_basis), data)
