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
cross-multiplication of exact polynomials, after one exact shortcut
(identical forms); the shift symmetry of a form whose shift is zero is
decided by two proportionality ratios, each read in one mirrored pass over
its keys, and of any other form by cross-multiplying the shifted mirrors.
A t = -1 identity N(q, -1) = P(q) D(q, -1) expands neither P nor P D: both
sides are evaluated at q = 2^s, s from a coefficient bound that makes the
evaluation injective, and compared as two exact ints.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import cache

from .algebra import Sparse, _accumulate, _check_int, _exact


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

    def __pow__(self, n: int):
        """A two-term base v0 x^k0 + v1 x^k1 by the binomial theorem, with
        no products: sum_i C(n, i) v0^(n-i) v1^i at the keys n k0 + i (k1 -
        k0), which are distinct, with nonzero coefficients.  Every other
        base by Sparse's square-and-multiply."""
        if len(self.terms) != 2:
            return super().__pow__(n)
        _check_int("exponent", n)
        ((i0, j0), v0), ((i1, j1), v1) = self.terms.items()
        di, dj = i1 - i0, j1 - j0
        return BiPoly._raw(
            None,
            {(n * i0 + i * di, n * j0 + i * dj): math.comb(n, i) * v0 ** (n - i) * v1**i for i in range(n + 1)},
        )

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
        """Substitute a rational value for t, in one pass: value^j depends
        on the t-exponent j alone, so it is computed once per distinct j,
        and each term adds into the int key i; the zero sums are dropped
        and the keys (i, 0) built once, at the end.  A zero power (t = 0,
        j > 0) leaves its term out; a negative j at t = 0 raises
        ZeroDivisionError."""
        value = _exact(value)
        powers, out = {}, {}
        for (i, j), v in self.terms.items():
            c = powers.get(j)
            if c is None:
                c = powers[j] = value**j if j >= 0 else Fraction(1, value**-j)
            if c:
                out[i] = out.get(i, 0) + v * c
        return BiPoly._raw(None, {(i, 0): v for i, v in out.items() if v})

    def subst_q_equals_t(self) -> "BiPoly":
        """Fold q into t: (i, j) -> t^(i+j)."""
        return self._map(lambda i, j: {(0, i + j): 1})

    def truncate_total(self, max_deg: int) -> "BiPoly":
        return BiPoly._raw(None, {k: v for k, v in self.terms.items() if k[0] + k[1] <= max_deg})

    def min_total_degree(self):
        return min((i + j for i, j in self.terms), default=None)

    def divide_exact(self, den: "BiPoly") -> "BiPoly":
        """Exact Laurent quotient; raises ValueError on a remainder.

        One descending sweep over the lexicographic order of keys: each step
        removes the leading key of the remainder and adds only smaller ones
        (a shift of den's keys, whose largest lands on the leading key), so
        a key once led never comes back.  The pending keys sit in a heap,
        negated; a key that cancelled, or was pushed twice, is popped and
        skipped."""
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        (li, lj), lt_val = max(den.terms.items())
        heap = [(-i, -j) for i, j in rem]
        heapq.heapify(heap)
        # an exact quotient's lowest degrees are the operands' differences
        lo_i = min((i for i, _ in rem), default=0) - min(i for i, _ in den.terms)
        lo_j = min((j for _, j in rem), default=0) - min(j for _, j in den.terms)
        quo = {}
        while heap:
            ni, nj = heapq.heappop(heap)
            v = rem.get((-ni, -nj))
            if v is None:
                continue
            qi, qj = -ni - li, -nj - lj
            if qi < lo_i or qj < lo_j:
                raise ValueError("division is not exact")
            if v.__class__ is int and lt_val.__class__ is int and not v % lt_val:
                c = v // lt_val
            else:
                c = _exact(Fraction(v, lt_val))
            quo[qi, qj] = c
            for (i, j), w in den.terms.items():
                k = (qi + i, qj + j)
                s = rem.get(k)
                if s is None:
                    rem[k] = -c * w
                    heapq.heappush(heap, (-k[0], -k[1]))
                else:
                    s -= c * w
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
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

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (BiRational, BiPoly)) else NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, BiPoly) else NotImplemented

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
        if n1.terms == n2.terms and d1.terms == d2.terms:
            return True
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
        _check_int("max_total", max_total)
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


def _mirror_ratio(p: BiPoly, dq: int, dt: int):
    """c with p.reflect(dq, dt) = c * p exactly, or None, read from p's own
    terms with no reflected copy; p is nonzero."""
    terms = p.terms
    k = max(terms)
    w = terms.get((dq - k[0], dt - k[1]))
    if w is None:
        return None
    c = _exact(Fraction(w, terms[k]))
    for (i, j), v in terms.items():
        if terms.get((dq - i, dt - j)) != c * v:
            return None
    return c


# ----------------------------------------------------------------------
# closed forms


def _q(i=1, j=0, c=1):
    return BiPoly.monomial(i, j, c)


def omega_stack(r: int, g: int) -> BiRational:
    """Refined Poincare series of the full fixed-determinant stack:
    prod_{k=2..r} (1 + q^k t^(k-1))^2g / ((1 - q^k t^(k-2)) (1 - q^k t^k))."""
    _check_int("rank", r, 2)
    _check_int("genus", g)
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
    _check_int("genus", g)
    _check_int("d", d)
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
    _check_int("genus", g)
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


def closed_form(formula: str, g: int, rank: int = 2, d: int = 0):
    """(series, rank) of the named closed form: "stack" of the given rank,
    "n21" the stable locus, "intermediate" the degree-d stack, "rank3"
    the conjectural rank-three formula."""
    if formula == "stack":
        return omega_stack(rank, g), rank
    if formula == "n21":
        return omega_closed_form(g, 0), 2
    if formula == "intermediate":
        return omega_closed_form(g, d), 2
    if formula == "rank3":
        return omega_rank3(g), 3
    raise ValueError(f"unknown formula {formula!r}")


def identities(formula: str, g: int, rank: int = 2, d: int = 0) -> dict:
    """{name: zero-argument check} for the identities that concern the
    named closed form; the one place that decides which does.

    The intermediate series is the n21 closed form at d = 0; at d >= 1
    only its t = -1 specialization is an identity.  Each check looks its
    function up in this module when it runs.  The closed form is expanded
    by the first check that reads it, once for all the checks of this
    dict: reading the names expands nothing.  g and d are checked here,
    rank by the form that reads it.
    """
    _check_int("genus", g)
    _check_int("d", d)
    if formula == "intermediate":
        if d:
            return {"tminus1": lambda: closed_form_t_minus_one_matches(omega_closed_form(g, d), g)}
        formula = "n21"
    form = cache(lambda: closed_form(formula, g, rank))  # lives as long as the checks
    checks = {"symmetry": lambda: check_shift_symmetry(*form(), g)}
    if formula == "stack":
        checks["tminus1"] = lambda: stack_t_minus_one_matches(form()[0], rank, g)
    elif formula == "rank3":
        checks["tminus1"] = lambda: rank3_t_minus_one_matches(form()[0], g)
    elif formula == "n21":
        poly = cache(lambda: form()[0].num.divide_exact(form()[0].den))
        checks["tminus1"] = lambda: closed_form_t_minus_one_matches(form()[0], g)
        checks["unimodal"] = lambda: check_unimodality(poly(), g)
        checks["zagier"] = lambda: zagier_combinatorial_omega(g).terms == poly().terms
    else:
        raise ValueError(f"unknown formula {formula!r}")
    return checks


# ----------------------------------------------------------------------
# identity checks


def check_shift_symmetry(f: BiRational, r: int, g: int) -> bool:
    """q^((r+2)(r-1)(g-1)) t^(r(r-1)(g-1)) f(1/q, 1/t) = f(q, t), decided
    exactly: when the shift is zero and N and D are each proportional to
    their mirror images, by the two ratios, read in one pass each; else on
    the reflected, shifted and cross-multiplied polynomials."""
    _check_int("rank", r, None)
    _check_int("genus", g)
    A = (r + 2) * (r - 1) * (g - 1)
    B = r * (r - 1) * (g - 1)
    N, D = f.num, f.den
    if N.is_zero():
        return True
    dqn, dtn = N.max_q_degree(), N.max_t_degree()
    dqd, dtd = D.max_q_degree(), D.max_t_degree()
    sq = A - dqn + dqd
    st = B - dtn + dtd
    if not sq and not st:
        # equality's proportionality shortcut against f's own reflection
        cn = _mirror_ratio(N, dqn, dtn)
        cd = None if cn is None else _mirror_ratio(D, dqd, dtd)
        if cd is not None:
            return cn == cd
    rev_n = N.reflect(dqn, dtn).shift(max(sq, 0), max(st, 0))
    rev_d = D.reflect(dqd, dtd).shift(max(-sq, 0), max(-st, 0))
    return (N * rev_d).terms == (rev_n * D).terms


def _equal_at_t_minus_one(f: BiRational, factors) -> bool:
    """Whether f(q, -1) = P(q) = prod base^e over factors (bases in q with
    int coefficients), by one exact int equality that expands neither P
    nor P D.  N/D is f at t = -1 (a vanishing D raises ZeroDivisionError),
    scaled to int coefficients by the lcm of their denominators and to
    exponents >= 0 by q^-m, m the lowest q-exponent.  Each coefficient of
    E = N - P D is at most C = max |N_i| + ||D||_1 prod ||base||_1^e <
    2^(s-1) = X/2 in absolute value, s = C.bit_length() + 1.  If E != 0
    with lowest term c q^i, E(X) = c X^i + X^(i+1) Y for an int Y, and
    0 < |c| < X/2 is no multiple of X, so E(X) != 0: N(X) = P(X) D(X)
    exactly when N = P D."""
    f = f.subst_t(-1)
    for _, e in factors:
        _check_int("exponent", e)
    scale = math.lcm(*(v.denominator for p in (f.num, f.den) for v in p.terms.values()))
    low = min(i for p in (f.num, f.den) for i, _ in p.terms)

    def ints(p, low=0, scale=1):  # [(q-exponent - low, scale * coefficient)]
        return [(i - low, v.numerator * (scale // v.denominator)) for (i, _), v in p.terms.items()]

    num, den = ints(f.num, low, scale), ints(f.den, low, scale)
    norm = math.prod(sum(abs(v) for _, v in ints(base)) ** e for base, e in factors)
    s = (max((abs(v) for _, v in num), default=0) + sum(abs(v) for _, v in den) * norm).bit_length() + 1

    def at_x(terms):
        return sum(v << s * i for i, v in terms)

    target = math.prod(at_x(ints(base)) ** e for base, e in factors)
    return at_x(num) == target * at_x(den)


def stack_t_minus_one_matches(f: BiRational, r: int, g: int) -> bool:
    """t = -1 specialization of f, the rank-r stack series, equals
    prod_{k=2..r} (1 - (-q)^k)^(2g-2)."""
    _check_int("rank", r, None)
    _check_int("genus", g, None)
    factors = [(BiPoly.one() - _q(k, 0, (-1) ** k), 2 * g - 2) for k in range(2, r + 1)]
    return _equal_at_t_minus_one(f, factors)


def closed_form_t_minus_one_matches(f: BiRational, g: int) -> bool:
    """t = -1 specialization of f, the closed form of genus g at any
    degree d >= 0, equals (1-q^2)^(2g-2)."""
    _check_int("genus", g, None)
    return _equal_at_t_minus_one(f, [(BiPoly.one() - _q(2, 0), 2 * g - 2)])


def rank3_t_minus_one_matches(f: BiRational, g: int) -> bool:
    """t = -1 limit of f, the rank-three formula of genus g, equals
    (1-q^2)^(2g-2) (1+q^3)^(2g-2); the simple pole factors 1+t are divided
    out exactly before substituting, and a denominator that still vanishes
    at t = -1 is no match."""
    _check_int("genus", g, None)
    one_plus_t = BiPoly.one() + _q(0, 1)
    f = BiRational(f.num.divide_exact(one_plus_t), f.den.divide_exact(one_plus_t))
    factors = [(BiPoly.one() - _q(2, 0), 2 * g - 2), (BiPoly.one() + _q(3, 0), 2 * g - 2)]
    try:
        return _equal_at_t_minus_one(f, factors)
    except ZeroDivisionError:
        return False


def zagier_combinatorial_omega(g: int) -> BiPoly:
    """The block-count sum over tuples (p, l, r, s, h) with
    2p + l + r + s + h = g - 1 of
    2^h C(g,h) C(g-h,p) q^(2r+2s+2h+4p) t^(2s+h+2p) (1 + q^(4l) t^(2l) - [l=0])."""
    _check_int("genus", g)
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


def chern_specialization_coefficients(poly: BiPoly, g: int):
    """Coefficients of q^0, q^2, ..., q^(4g-4) in the t = 1 specialization
    of poly, the d = 0 closed polynomial of genus g (all odd coefficients
    vanish)."""
    _check_int("genus", g, 1)
    poly = poly.subst_t(1)
    return [poly.coeff(2 * i, 0) for i in range(2 * g - 1)]


def check_unimodality(poly: BiPoly, g: int) -> bool:
    """Unimodality of the shifted Chern specialization of poly, the d = 0
    closed polynomial of genus g."""
    return is_centered_unimodal(chern_specialization_coefficients(poly, g))


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
    _check_int("d", d, 1)
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
