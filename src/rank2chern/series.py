"""Polynomials in alpha, beta, gamma (gamma^{g+1} = 0) and the Mumford series.

The degree-d generating series Phi_d(t) = sum_n c_{d,n} t^n has a
coefficient c_{d,n} of cohomological degree 2n, so the t-grading repeats
the grading of InvariantPoly and the series is kept as the tuple of its
coefficients.

The half-integer power (1 - beta t^2)^(d - 3/2) is never expanded with
square roots: Phi_d = exp(X) through the pole-free rearrangement

    X(t) = (d - 3/2) log(1 - beta t^2)
           + alpha * sum_{k>=0} beta^k t^(2k+1) / (2k+1)
           + 2 gamma * sum_{k>=1} beta^(k-1) t^(2k+1) / (2k+1),

and Phi' = X' Phi gives n c_n = sum_{k=1..n} (k X_k) c_{n-k}, where k X_k
is (3 - 2d) beta^(k/2) for even k and alpha beta^i + 2 gamma beta^(i-1)
(the last term for i >= 1 only) for k = 2i + 1.  So the numerators N_n = n! c_n,
N_n = sum_k (n-1)!/(n-k)! (k X_k) N_{n-k}, are integral, and are built first.
Every coefficient is an honest element of Q[alpha, beta, gamma].  A one-off
symbolic oracle over a formal square root of beta lives in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import Element, Sparse, _accumulate, _apply, _check_int, check_genus, gamma_power


class InvariantPoly(Sparse):
    """Polynomial in alpha, beta, gamma with gamma^(g+1) = 0.

    Keys are exponent triples (a, b, c) with c <= g; coefficients are exact
    rationals in the form of ``algebra._exact``.  Embeds into the full
    descendent algebra by expanding gamma.
    """

    __slots__ = ()
    _unit = (0, 0, 0)
    _letters = "abg"

    def _admit(self, key) -> bool:
        """Refuses a negative exponent; drops a key above gamma^g."""
        a, b, c = key
        if a < 0 or b < 0 or c < 0:
            raise ValueError(f"negative exponent in alpha^{a} beta^{b} gamma^{c}")
        return c <= self.g

    @classmethod
    def monomial(cls, g, a, b, c, coeff=1):
        return cls(g, {(a, b, c): coeff})

    def __mul__(self, other):
        if other.__class__ is not InvariantPoly:
            return self.__rmul__(other)
        g = self.g
        if g != other.g:
            raise ValueError(f"genus mismatch: {g} vs {other.g}")
        t = {}
        for (a1, b1, c1), v1 in self.terms.items():
            pairs = (((a1 + a2, b1 + b2, c1 + c2), v1 * v2) for (a2, b2, c2), v2 in other.terms.items() if c1 + c2 <= g)
            _accumulate(pairs, t)
        return InvariantPoly._raw(g, t)

    def embed(self) -> Element:
        """Expand gamma powers into the full descendent algebra."""
        g = self.g

        def image(a, b, c):
            return {(a + x, b + y, mask): w for (x, y, mask), w in gamma_power(g, c).terms.items()}

        return Element._raw(g, _apply(image, self.terms))


@lru_cache(maxsize=None)
def _phi_numerators(d: int, g: int, order: int) -> tuple:
    """N_0 .. N_order, N_n = n! c_{d,n}, as shared integer term dicts: never mutate them."""
    if order == 0:
        return ({(0, 0, 0): 1},)
    head = _phi_numerators(d, g, order - 1)
    out = {}
    for k in range(1, order + 1):  # k X_k, from the module docstring
        i, f = k // 2, math.perm(order - 1, k - 1)  # f = (n-1)!/(n-k)!
        if k % 2 == 0:
            kx = {(0, i, 0): 3 - 2 * d}
        else:
            kx = {(1, i, 0): 1, (0, i - 1, 1): 2} if i else {(1, 0, 0): 1}
        for (x, y, z), w in kx.items():
            terms = head[order - k].items()
            _accumulate((((a + x, b + y, c + z), f * w * v) for (a, b, c), v in terms if c + z <= g), out)
    return head + (out,)


@lru_cache(maxsize=None, typed=True)  # typed: a warm order 1 must not answer True or 1.0
def phi_series(d: int, g: int, order: int) -> tuple:
    """Coefficients c_{d,0} .. c_{d,order} of the degree-d Mumford series.

    Coefficient n has cohomological degree 2n and reduces to alpha^n / n!
    modulo (beta, gamma).  Coefficient n is _phi_numerators(d, g, n)[n] / n!,
    each computed once per (d, g).
    """
    check_genus(g)
    _check_int("d", d, None)  # any int: d < 0 is a series too
    _check_int("truncation order", order)
    head = phi_series(d, g, order - 1) if order else ()
    terms = dict(_phi_numerators(d, g, order)[order])
    return head + (InvariantPoly._raw(g, terms).scale(Fraction(1, math.factorial(order))),)
