"""Truncated power series over Q[alpha, beta, gamma]/(gamma^{g+1}).

Carries the generating series whose t-coefficients are the building blocks
of the Mumford relations, together with the xi classes built from them.

The half-integer power (1 - beta t^2)^(d - 3/2) is never expanded with
square roots: the series is computed through the pole-free rearrangement

    exp((d - 3/2) log(1 - beta t^2))
    * exp(alpha * sum_{k>=0} beta^k t^(2k+1) / (2k+1)
          + 2 gamma * sum_{k>=1} beta^(k-1) t^(2k+1) / (2k+1))

whose coefficients are honest elements of Q[alpha, beta, gamma].  A one-off
symbolic oracle over a formal square root of beta lives in the test suite,
not here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import Element, Sparse, check_genus, gamma_power

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InvariantPoly(Sparse):
    """Polynomial in alpha, beta, gamma with gamma^(g+1) = 0.

    Keys are exponent triples (a, b, c) with c <= g; coefficients are exact
    rationals.  Embeds into the full descendent algebra by expanding gamma.
    """

    __slots__ = ()
    _unit = (0, 0, 0)

    def __init__(self, g: int, terms=None):
        check_genus(g)
        self.g = g
        self.terms = {}
        if terms:
            for (a, b, c), v in terms.items():
                if a < 0 or b < 0 or c < 0:
                    raise ValueError(f"negative exponent in alpha^{a} beta^{b} gamma^{c}")
                v = Fraction(v)
                if v and c <= g:
                    self.terms[(a, b, c)] = v

    @classmethod
    def const(cls, g, v):
        return cls(g, {(0, 0, 0): Fraction(v)})

    @classmethod
    def gen(cls, g, name):
        key = {"alpha": (1, 0, 0), "beta": (0, 1, 0), "gamma": (0, 0, 1)}[name]
        return cls(g, {key: _ONE})

    @classmethod
    def monomial(cls, g, a, b, c, coeff=1):
        return cls(g, {(a, b, c): Fraction(coeff)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
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
                s = t.get(k, _ZERO) + v1 * v2
                if s:
                    t[k] = s
                else:
                    del t[k]
        return InvariantPoly._raw(g, t)

    def coh_degree(self):
        """Common cohomological degree 2a + 4b + 6c, or None."""
        degs = {2 * a + 4 * b + 6 * c for a, b, c in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def alpha_part(self) -> "InvariantPoly":
        """Terms free of beta and gamma (the top-Chern-degree part of a
        coefficient of cohomological degree 2n)."""
        return InvariantPoly._raw(
            self.g, {k: v for k, v in self.terms.items() if k[1] == 0 and k[2] == 0}
        )

    def embed(self) -> Element:
        """Expand gamma powers into the full descendent algebra."""
        g = self.g
        out = Element.zero(g)
        for (a, b, c), v in self.terms.items():
            out = out + Element._raw(g, {(a, b, 0): v}) * gamma_power(g, c)
        return out

    def __repr__(self):
        if not self.terms:
            return "InvariantPoly(0)"
        bits = []
        for (a, b, c), v in sorted(self.terms.items()):
            bits.append(f"{v}*a^{a}b^{b}g^{c}")
        return "InvariantPoly(" + " + ".join(bits) + ")"


class TSeries:
    """Truncated power series in t with InvariantPoly coefficients."""

    __slots__ = ("g", "order", "coeffs")

    def __init__(self, g: int, order: int, coeffs=None):
        check_genus(g)
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.g = g
        self.order = order
        if coeffs is None:
            coeffs = [InvariantPoly.zero(g) for _ in range(order + 1)]
        else:
            coeffs = list(coeffs)[: order + 1]
            while len(coeffs) < order + 1:
                coeffs.append(InvariantPoly.zero(g))
        self.coeffs = coeffs

    @classmethod
    def zero(cls, g, order):
        return cls(g, order)

    @classmethod
    def const(cls, g, order, v):
        s = cls(g, order)
        s.coeffs[0] = InvariantPoly.const(g, v)
        return s

    def coeff(self, n: int) -> InvariantPoly:
        if n > self.order:
            raise ValueError("coefficient beyond truncation order")
        return self.coeffs[n]

    def _check(self, other):
        if self.g != other.g or self.order != other.order:
            raise ValueError("series mismatch")

    def __add__(self, other):
        self._check(other)
        return TSeries(self.g, self.order, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TSeries(self.g, self.order, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TSeries(self.g, self.order, [c.scale(other) for c in self.coeffs])
        if isinstance(other, InvariantPoly):
            return TSeries(self.g, self.order, [c * other for c in self.coeffs])
        self._check(other)
        out = [InvariantPoly.zero(self.g) for _ in range(self.order + 1)]
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j in range(self.order + 1 - i):
                y = other.coeffs[j]
                if y.is_zero():
                    continue
                out[i + j] = out[i + j] + x * y
        return TSeries(self.g, self.order, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, InvariantPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = TSeries.const(self.g, self.order, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TSeries)
            and self.g == other.g
            and self.order == other.order
            and all(x == y for x, y in zip(self.coeffs, other.coeffs))
        )

    def valuation_positive(self) -> bool:
        return self.coeffs[0].is_zero()

    def exp(self) -> "TSeries":
        """exp of a series with zero constant term."""
        if not self.valuation_positive():
            raise ValueError("exp needs zero constant term")
        out = TSeries.const(self.g, self.order, 1)
        power = TSeries.const(self.g, self.order, 1)
        fact = 1
        for k in range(1, self.order + 1):
            power = power * self
            fact *= k
            out = out + power * Fraction(1, fact)
        return out


def default_order(g: int) -> int:
    """Default truncation: twice the top Chern degree plus 4."""
    return 8 * g - 4


@lru_cache(maxsize=None)
def phi_series(d: int, g: int, order: int) -> TSeries:
    """The degree-d Mumford generating series, truncated at t^order.

    Coefficient n has cohomological degree 2n and reduces to alpha^n / n!
    modulo (beta, gamma).
    """
    check_genus(g)
    alpha = InvariantPoly.gen(g, "alpha")
    beta = InvariantPoly.gen(g, "beta")
    gam = InvariantPoly.gen(g, "gamma")

    # log(1 - beta t^2) = - sum_{j>=1} beta^j t^(2j) / j
    log_part = TSeries.zero(g, order)
    for j in range(1, order // 2 + 1):
        log_part.coeffs[2 * j] = InvariantPoly.monomial(g, 0, j, 0, Fraction(-1, j))
    half_exponent = Fraction(2 * d - 3, 2)

    odd_part = TSeries.zero(g, order)
    for k in range(0, (order - 1) // 2 + 1):
        n = 2 * k + 1
        coeff = (beta**k * alpha).scale(Fraction(1, n))
        if k >= 1:
            coeff = coeff + (beta ** (k - 1) * gam).scale(Fraction(2, n))
        odd_part.coeffs[n] = coeff

    exponent = log_part * half_exponent + odd_part
    return exponent.exp()


def phi_coefficients(d: int, g: int, order: int):
    """Coefficients c_{d,0} .. c_{d,order} of the generating series."""
    return tuple(phi_series(d, g, order).coeffs)


def xi(r: int, g: int) -> InvariantPoly:
    """xi_r, the t^r coefficient of the d = 1 series; degree 2r."""
    if r < 0:
        raise ValueError("negative index")
    return phi_series(1, g, r).coeff(r)


def xi_rs(r: int, s: int, g: int) -> InvariantPoly:
    """xi_{r,s} = sum_{l} C(r+s-l, r) beta^(s-l) (2 gamma)^l / l! * xi_{r-l}.

    Cohomological degree 2r + 4s; Chern degree of the embedded element is
    at most 2r + 2s.
    """
    if r < 0 or s < 0:
        raise ValueError("negative index")
    beta = InvariantPoly.gen(g, "beta")
    gam = InvariantPoly.gen(g, "gamma")
    out = InvariantPoly.zero(g)
    for l in range(min(r, s) + 1):
        c = Fraction(math.comb(r + s - l, r), math.factorial(l))
        out = out + (beta ** (s - l) * (gam.scale(2)) ** l * xi(r - l, g)).scale(c)
    return out
