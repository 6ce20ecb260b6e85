"""Exact bivariate polynomials and rational functions in (q, t).

Carries the closed-form refined Poincare series: the full-stack product
formula, the rank-two closed form for the stable locus and the intermediate
stacks, and the conjectural rank-three formula; plus the identity checks on
them (shift symmetry, t = -1 specializations, unimodality of the Chern
specialization, the block-combinatorial sum, and the telescoping of the
stratification).

Coefficients follow the package's one rule (``algebra._exact``): every
closed form here has integer coefficients, so they multiply in int
arithmetic.  Rational-function equality is decided by
cross-multiplication of exact polynomials.  Equality first tries two exact
shortcuts (identical numerator and denominator, or both proportional with
the same ratio) before falling back to the full cross product; both paths
are exact, the shortcuts just keep the large-genus checks fast.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import Sparse, _accumulate, _exact


class BiPoly(Sparse):
    """Laurent polynomial in (q, t) with exact rational coefficients.

    Keys are integer exponent pairs (qExp, tExp); negative exponents are
    permitted only inside symmetry checks, all stored closed forms use
    non-negative exponents.  Rational scalars act as constants in ``+``,
    ``-`` and ``==``.
    """

    __slots__ = ()
    _unit = (0, 0)
    _letters = "qt"

    def __init__(self, terms=None):
        super().__init__(None, terms)

    @classmethod
    def const(cls, v):
        return cls({(0, 0): v})

    @classmethod
    def monomial(cls, i, j, coeff=1):
        return cls({(i, j): coeff})

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is not BiPoly:
            return self.__rmul__(other)
        t = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = t.get(k, 0) + v1 * v2
                if s:
                    t[k] = s
                else:
                    del t[k]
        return BiPoly._raw(None, t)

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def max_q_degree(self):
        return max((i for i, _ in self.terms), default=None)

    def max_t_degree(self):
        return max((j for _, j in self.terms), default=None)

    def reflect(self, dq: int, dt: int) -> "BiPoly":
        """Exponent reflection (i, j) -> (dq - i, dt - j)."""
        return BiPoly._raw(None, {(dq - i, dt - j): v for (i, j), v in self.terms.items()})

    def shift(self, i: int, j: int) -> "BiPoly":
        return BiPoly._raw(None, {(a + i, b + j): v for (a, b), v in self.terms.items()})

    def subst_t(self, value) -> "BiPoly":
        """Substitute a rational value for t."""
        value = _exact(value)

        def image(i, j):
            c = value**j if j >= 0 else Fraction(1, value**-j)
            return {(i, 0): c} if c else {}

        return self._map(image)

    def subst_q_equals_t(self) -> "BiPoly":
        """Fold q into t: (i, j) -> t^(i+j)."""
        return self._map(lambda i, j: {(0, i + j): 1})

    def truncate_total(self, max_deg: int) -> "BiPoly":
        return BiPoly._raw(None, {k: v for k, v in self.terms.items() if k[0] + k[1] <= max_deg})

    def min_total_degree(self):
        return min((i + j for i, j in self.terms), default=None)

    def divide_exact(self, den: "BiPoly") -> "BiPoly":
        """Exact polynomial quotient; raises ValueError on a remainder."""
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        lt_key = max(den.terms)
        lt_val = den.terms[lt_key]
        quo = {}
        while rem:
            k = max(rem)
            qk = (k[0] - lt_key[0], k[1] - lt_key[1])
            if qk[0] < 0 or qk[1] < 0:
                raise ValueError("division is not exact")
            # each step removes the leading key and adds smaller ones only
            c = quo[qk] = _exact(Fraction(rem[k], lt_val))
            step = (((qk[0] + i, qk[1] + j), -c * v) for (i, j), v in den.terms.items())
            _accumulate(step, rem)
        return BiPoly._raw(None, quo)


class BiRational:
    """Quotient of two exact polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly = None):
        if den is None:
            den = BiPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __add__(self, other):
        if isinstance(other, BiPoly):
            other = BiRational(other)
        elif not isinstance(other, BiRational):
            return NotImplemented
        if self.den.terms == other.den.terms:
            return BiRational(self.num + other.num, self.den)
        return BiRational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (BiRational, BiPoly)) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, BiPoly)):
            return BiRational(self.num * other, self.den)
        if isinstance(other, BiRational):
            return BiRational(self.num * other.num, self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return BiRational(-self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            other = BiRational(other)
        elif not isinstance(other, BiRational):
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1.is_zero():
            return n2.is_zero()
        if n2.is_zero():
            return False
        # exact shortcuts before the full cross product
        if n1.terms == n2.terms and d1.terms == d2.terms:
            return True
        rn = _proportionality_ratio(n1, n2)
        if rn is not None:
            rd = _proportionality_ratio(d1, d2)
            if rd is not None:
                return rn == rd
        return (n1 * d2).terms == (n2 * d1).terms

    def subst_t(self, value) -> "BiRational":
        den = self.den.subst_t(value)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at the substitution")
        return BiRational(self.num.subst_t(value), den)

    def subst_q_equals_t(self) -> "BiRational":
        return BiRational(self.num.subst_q_equals_t(), self.den.subst_q_equals_t())

    def series_coefficients(self, max_total: int) -> BiPoly:
        """Power series expansion up to total degree max_total.

        Requires a denominator with nonzero constant term.
        """
        c0 = self.den.coeff(0, 0)
        if not c0:
            raise ValueError("denominator has no constant term; not a power series")
        u = BiPoly.one() - self.den * Fraction(1, c0)
        if u and u.min_total_degree() < 1:
            raise ValueError("denominator is not 1 + higher order")
        inv = BiPoly.one()
        power = BiPoly.one()
        while True:
            power = (power * u).truncate_total(max_total)
            if power.is_zero():
                break
            inv = inv + power
        return (self.num * inv * Fraction(1, c0)).truncate_total(max_total)

    def __repr__(self):
        return f"BiRational({self.num!r} / {self.den!r})"


def _proportionality_ratio(p1: BiPoly, p2: BiPoly):
    """c with p2 = c * p1 exactly, or None."""
    if len(p1.terms) != len(p2.terms) or not p1.terms:
        return None
    k = max(p1.terms)
    if k not in p2.terms:
        return None
    c = _exact(Fraction(p2.terms[k], p1.terms[k]))
    for key, v in p1.terms.items():
        if p2.terms.get(key) != c * v:
            return None
    return c


# ----------------------------------------------------------------------
# closed forms


def _q(i=1, j=0, c=1):
    return BiPoly.monomial(i, j, c)


def omega_stack(r: int, g: int) -> BiRational:
    """Refined Poincare series of the full fixed-determinant stack:
    prod_{k=2..r} (1 + q^k t^(k-1))^2g / ((1 - q^k t^(k-2)) (1 - q^k t^k))."""
    if r < 2:
        raise ValueError("rank must be >= 2")
    num = BiPoly.one()
    den = BiPoly.one()
    for k in range(2, r + 1):
        num = num * (BiPoly.one() + _q(k, k - 1)) ** (2 * g)
        den = den * (BiPoly.one() - _q(k, k - 2)) * (BiPoly.one() - _q(k, k))
    return BiRational(num, den)


def omega_closed_form(g: int, d: int = 0) -> BiRational:
    """((1 + q^2 t)^2g - q^(2g+4d) (1 + t)^2g) / ((1 - q^2)(1 - q^2 t^2)).

    d = 0 is the stable-locus closed form (a polynomial); d >= 1 gives the
    series for the stack of bundles with destabilizing degree <= d.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    num = (BiPoly.one() + _q(2, 1)) ** (2 * g) - _q(2 * g + 4 * d, 0) * (
        BiPoly.one() + _q(0, 1)
    ) ** (2 * g)
    den = (BiPoly.one() - _q(2, 0)) * (BiPoly.one() - _q(2, 2))
    return BiRational(num, den)


def omega_closed_polynomial(g: int) -> BiPoly:
    """Exact polynomial form of the d = 0 closed formula (remainder-free)."""
    f = omega_closed_form(g, 0)
    return f.num.divide_exact(f.den)


def omega_rank3(g: int) -> BiRational:
    """The conjectural rank-three closed form, with the internal 1/(1-t^2)
    cleared into a common denominator."""
    one = BiPoly.one()
    t1 = (one - _q(0, 2)) * (one + _q(2, 1)) ** (2 * g) * (one + _q(3, 2)) ** (2 * g)
    t2 = (
        _q(4 * g - 2, 0)
        * (one + _q(1, 1))
        * (one - _q(3, 1))
        * (one + _q(0, 1)) ** (2 * g)
        * (one + _q(1, 2)) ** (2 * g)
    )
    t3 = (
        _q(4 * g - 2, 2 * g)
        * (one - _q(2, 0))
        * (one + _q(1, 1) + _q(2, 2))
        * (one + _q(1, 0)) ** (2 * g)
        * (one + _q(0, 1)) ** (2 * g)
    )
    num = t1 - t2 + t3
    den = (
        (one - _q(0, 2))
        * (one - _q(2, 0))
        * (one - _q(2, 2))
        * (one - _q(3, 1))
        * (one - _q(3, 3))
    )
    return BiRational(num, den)


# ----------------------------------------------------------------------
# identity checks


def check_shift_symmetry(f: BiRational, r: int, g: int) -> bool:
    """q^((r+2)(r-1)(g-1)) t^(r(r-1)(g-1)) f(1/q, 1/t) = f(q, t), decided
    exactly on the cross-multiplied polynomials."""
    A = (r + 2) * (r - 1) * (g - 1)
    B = r * (r - 1) * (g - 1)
    N, D = f.num, f.den
    if N.is_zero():
        return True
    dqn, dtn = N.max_q_degree(), N.max_t_degree()
    dqd, dtd = D.max_q_degree(), D.max_t_degree()
    rev_n = N.reflect(dqn, dtn)
    rev_d = D.reflect(dqd, dtd)
    sq = A - dqn + dqd
    st = B - dtn + dtd
    num_shift = (max(sq, 0), max(st, 0))
    den_shift = (max(-sq, 0), max(-st, 0))
    g2 = BiRational(rev_n.shift(*num_shift), rev_d.shift(*den_shift))
    return f == g2


def stack_t_minus_one_matches(r: int, g: int) -> bool:
    """t = -1 specialization of the stack series equals
    prod_{k=2..r} (1 - (-q)^k)^(2g-2)."""
    f = omega_stack(r, g).subst_t(-1)
    target = BiPoly.one()
    for k in range(2, r + 1):
        target = target * (BiPoly.one() - _q(k, 0, (-1) ** k)) ** (2 * g - 2)
    return f.num.terms == (target * f.den).terms


def closed_form_t_minus_one_matches(g: int, d: int = 0) -> bool:
    """t = -1 specialization of the degree-d closed form equals
    (1-q^2)^(2g-2), for every d >= 0."""
    f = omega_closed_form(g, d).subst_t(-1)
    target = (BiPoly.one() - _q(2, 0)) ** (2 * g - 2)
    return f.num.terms == (target * f.den).terms


def rank3_t_minus_one_matches(g: int) -> bool:
    """t = -1 limit of the rank-three formula equals
    (1-q^2)^(2g-2) (1+q^3)^(2g-2); the simple pole factors 1+t are divided
    out exactly before substituting."""
    f = omega_rank3(g)
    one_plus_t = BiPoly.one() + _q(0, 1)
    num1 = f.num.divide_exact(one_plus_t)
    den1 = f.den.divide_exact(one_plus_t)
    lhs_num = num1.subst_t(-1)
    lhs_den = den1.subst_t(-1)
    if lhs_den.is_zero():
        return False
    target = ((BiPoly.one() - _q(2, 0)) * (BiPoly.one() + _q(3, 0))) ** (2 * g - 2)
    return lhs_num.terms == (target * lhs_den).terms


def rank3_qt_series_nonnegative(g: int) -> bool:
    """q = t specialization of the rank-three formula expands with
    non-negative integer coefficients up to degree 16(g-1) (sanity
    property, not a theorem)."""
    series = omega_rank3(g).subst_q_equals_t().series_coefficients(16 * (g - 1))
    return all(v.denominator == 1 and v >= 0 for v in series.terms.values())


def zagier_combinatorial_omega(g: int) -> BiPoly:
    """The block-count sum over tuples (p, l, r, s, h) with
    2p + l + r + s + h = g - 1 of
    2^h C(g,h) C(g-h,p) q^(2r+2s+2h+4p) t^(2s+h+2p) (1 + q^(4l) t^(2l) - [l=0])."""
    n = g - 1

    def terms():
        for p in range(n // 2 + 1):
            for l in range(n - 2 * p + 1):
                for r in range(n - 2 * p - l + 1):
                    for s in range(n - 2 * p - l - r + 1):
                        h = n - 2 * p - l - r - s
                        w = 2**h * math.comb(g, h) * math.comb(g - h, p)
                        qe = 2 * r + 2 * s + 2 * h + 4 * p
                        te = 2 * s + h + 2 * p
                        yield (qe, te), w
                        if l:
                            yield (qe + 4 * l, te + 2 * l), w

    return BiPoly._raw(None, _accumulate(terms(), {}))


def is_centered_unimodal(seq) -> bool:
    """Non-decreasing up to the middle entry, non-increasing after it."""
    n = len(seq)
    if n == 0:
        return True
    mid = (n - 1) // 2
    up = all(seq[i] <= seq[i + 1] for i in range(mid))
    down = all(seq[i] >= seq[i + 1] for i in range(mid, n - 1))
    return up and down


def chern_specialization_coefficients(g: int):
    """Coefficients of q^0, q^2, ..., q^(4g-4) in the t = 1 specialization
    of the d = 0 closed form (all odd coefficients vanish)."""
    poly = omega_closed_polynomial(g).subst_t(1)
    return [int(poly.coeff(2 * i, 0)) for i in range(2 * g - 1)]


def check_unimodality(g: int) -> bool:
    """Unimodality of the shifted Chern specialization."""
    return is_centered_unimodal(chern_specialization_coefficients(g))


def telescoping_identity(g: int) -> bool:
    """Stack minus stable equals the closed sum of the strata terms:
    q^2g (1+t)^2g (1+q^2) / ((1-q^4)(1-q^2 t^2)) as rational functions."""
    lhs = omega_stack(2, g) - omega_closed_form(g, 0)
    rhs = BiRational(
        _q(2 * g, 0) * (BiPoly.one() + _q(0, 1)) ** (2 * g) * (BiPoly.one() + _q(2, 0)),
        (BiPoly.one() - _q(4, 0)) * (BiPoly.one() - _q(2, 2)),
    )
    return lhs == rhs


def intermediate_difference_matches(g: int, d: int) -> bool:
    """Consecutive intermediate closed forms differ by the stratum series
    q^(2g+4d-4) (1+t)^2g (1+q^2) / (1 - q^2 t^2)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    lhs = omega_closed_form(g, d) - omega_closed_form(g, d - 1)
    rhs = BiRational(
        _q(2 * g + 4 * d - 4, 0)
        * (BiPoly.one() + _q(0, 1)) ** (2 * g)
        * (BiPoly.one() + _q(2, 0)),
        BiPoly.one() - _q(2, 2),
    )
    return lhs == rhs


def full_stack_telescoping_qt(g: int, d: int) -> bool:
    """At q = t: the varying-determinant series of the <= d stack plus the
    tail of stratum terms recovers the full-stack series.

    The <= d series for the varying-determinant stack is
    (1+t)^2g/(1-t^2) times the fixed-determinant closed form at q = t; the
    stratum at destabilizing degree k contributes
    t^(2g+4k-4) (1+t)^4g / (1-t^2)^2 and the tail sums to
    t^(2g+4d) (1+t)^4g / ((1-t^2)^2 (1-t^4)).
    """
    one = BiPoly.one()
    t = _q(0, 1)
    pic_factor = BiRational((one + t) ** (2 * g), one - _q(0, 2))
    lhs = pic_factor * omega_closed_form(g, d).subst_q_equals_t()
    tail = BiRational(
        _q(0, 2 * g + 4 * d) * (one + t) ** (4 * g),
        (one - _q(0, 2)) ** 2 * (one - _q(0, 4)),
    )
    total = lhs + tail
    full = BiRational(
        (one + t) ** (2 * g) * (one + _q(0, 3)) ** (2 * g),
        (one - _q(0, 2)) ** 2 * (one - _q(0, 4)),
    )
    return total == full
