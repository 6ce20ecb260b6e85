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
(the last term for i >= 1 only) for k = 2i + 1.  Every coefficient is an
honest element of Q[alpha, beta, gamma].  A one-off symbolic oracle over a
formal square root of beta lives in the test suite, not here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import Element, Sparse, check_genus, gamma_power


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
    def gen(cls, g, name):
        key = {"alpha": (1, 0, 0), "beta": (0, 1, 0), "gamma": (0, 0, 1)}[name]
        return cls(g, {key: 1})

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
            for (a2, b2, c2), v2 in other.terms.items():
                c = c1 + c2
                if c > g:
                    continue
                k = (a1 + a2, b1 + b2, c)
                s = t.get(k, 0) + v1 * v2
                if s:
                    t[k] = s
                else:
                    del t[k]
        return InvariantPoly._raw(g, t)

    def embed(self) -> Element:
        """Expand gamma powers into the full descendent algebra."""
        g = self.g
        out = Element.zero(g)
        for (a, b, c), v in self.terms.items():
            out = out + Element._raw(g, {(a, b, 0): v}) * gamma_power(g, c)
        return out


@lru_cache(maxsize=None)
def phi_series(d: int, g: int, order: int) -> tuple:
    """Coefficients c_{d,0} .. c_{d,order} of the degree-d Mumford series.

    Coefficient n has cohomological degree 2n and reduces to alpha^n / n!
    modulo (beta, gamma).  Built one coefficient at a time from
    n c_n = sum_{k=1..n} (k X_k) c_{n-k}, so each is computed once per (d, g).
    """
    check_genus(g)
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if order == 0:
        return (InvariantPoly.one(g),)
    head = phi_series(d, g, order - 1)
    c = InvariantPoly.zero(g)
    for k in range(1, order + 1):  # k X_k, from the module docstring
        i = k // 2
        if k % 2 == 0:
            kx = InvariantPoly.monomial(g, 0, i, 0, 3 - 2 * d)
        else:
            kx = InvariantPoly(g, {(1, i, 0): 1, (0, i - 1, 1): 2} if i else {(1, 0, 0): 1})
        c = c + kx * head[order - k]
    return head + (c.scale(Fraction(1, order)),)
