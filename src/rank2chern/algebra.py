"""The rank-two fixed-determinant descendent algebra.

An :class:`Element` is an exact rational linear combination of
super-commutative monomials ``alpha^a * beta^b * psi_S`` where

* ``alpha`` (cohomological degree 2) and ``beta`` (degree 4) are even and
  central,
* ``psi_1, ..., psi_2g`` (degree 3 each) are odd: ``psi_i psi_j = -psi_j
  psi_i`` and ``psi_i^2 = 0``,
* every generator has Chern degree 2.

Monomials are stored canonically with the psi factors sorted ascending; the
Koszul sign of any rearrangement is absorbed into the coefficient.  psi index
sets are kept as bitmasks over ``2g`` bits, so monomial keys stay
machine-word sized for every supported genus.

The psi-only elements form the exterior algebra modelling the cohomology of
the Picard variety; its theta class is ``-gamma``.  :class:`Sparse` holds the
linear structure that :class:`Element` shares with the other sparse
polynomial classes of the package, and :func:`_exact` their one coefficient
rule: an exact rational is held as an ``int`` when it is integral and as a
``Fraction`` otherwise, and a float is refused.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

MAX_GENUS = 8


class Bidegree(NamedTuple):
    coh: int
    chern: int


def check_genus(g: int, least: int = 2) -> None:
    """Refuse a g that is not an int in [least, MAX_GENUS], a bool included;
    least is 0 for the invariant rings of the summands of genus g - l."""
    if type(g) is not int or not least <= g <= MAX_GENUS:
        raise ValueError(f"genus must be an integer in [{least}, {MAX_GENUS}], got {g!r}")


def _check_int(name: str, v, least: int | None = 0) -> None:
    """Refuse a v that is not an int, a bool included (TypeError), or is
    below a least that is not None (ValueError): the check of a degree or a bound."""
    if type(v) is not int:
        raise TypeError(f"{name} must be an int, got {v!r}")
    if least is not None and v < least:
        raise ValueError(f"{name} must be >= {least}, got {v}")


def koszul_sign(mask1: int, mask2: int) -> int:
    """Sign of moving the sorted psi block ``mask2`` past ``mask1``.

    Counts inversions: pairs (i in mask1, j in mask2) with i > j.
    """
    inv = 0
    m2 = mask2
    while m2:
        low = m2 & -m2
        j = low.bit_length() - 1
        inv += (mask1 >> (j + 1)).bit_count()
        m2 ^= low
    return -1 if inv & 1 else 1


def mask_of(indices) -> int:
    """Bitmask from 1-based psi indices."""
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def indices_of(mask: int):
    """Sorted 1-based indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def monomial_bidegree(mono) -> Bidegree:
    a, b, mask = mono
    s = mask.bit_count()
    return Bidegree(2 * a + 4 * b + 3 * s, 2 * (a + b + s))


def _exact(v):
    """An int or Fraction v as an int when it is integral, else as a
    Fraction.  Anything else, a float in particular, is refused."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"not an exact rational: {v!r}")


def _accumulate(pairs, out: dict) -> dict:
    """Add each nonzero ``(key, value)`` of ``pairs`` into ``out`` in place,
    dropping a key whose sum cancels; returns ``out``."""
    for k, v in pairs:
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _apply(action, terms: dict) -> dict:
    """The fresh term dict of the linear map sending each key of ``terms`` to
    ``action(*key)``, a dict of nonzero coefficients; images that cancel
    leave no key, and neither ``terms`` nor an image is mutated."""
    out = {}
    for key, c in terms.items():
        for k, v in action(*key).items():
            prev = out.get(k)
            if prev is None:
                out[k] = c * v
            else:
                s = prev + c * v
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def _divide(terms: dict, den: int) -> dict:
    """``terms`` with each coefficient divided exactly by ``den``, in place:
    an int quotient of an int stays an int, and ``Sparse._raw`` puts any
    other in the form of ``_exact``."""
    if den != 1:
        for k, v in terms.items():
            terms[k] = v // den if v.__class__ is int and not v % den else Fraction(v, den)
    return terms


def _lowest_terms(terms: dict, den: int = 1):
    """The value x = ``terms / den`` (exact values, ``den > 0``) as a fresh
    pair ``(den' * x, den')`` of int terms over den', the lcm of the
    denominators of x's values.  With :func:`_same_value`, the one home of
    an exact polynomial held as int terms over one denominator."""
    lcm = math.lcm(*(v.denominator for v in terms.values()))
    ints = {k: v.numerator * (lcm // v.denominator) for k, v in terms.items()}
    c = math.gcd(den * lcm, *ints.values())
    return {k: v // c for k, v in ints.items()}, den * lcm // c


def _same_value(x: dict, dx: int, y: dict, dy: int) -> bool:
    """Whether int terms x over dx and y over dy (nonzero values, positive
    denominators) are equal, by cross-multiplication."""
    return x.keys() == y.keys() and all(v * dy == y[k] * dx for k, v in x.items())


class Sparse:
    """Sparse map from monomial keys to nonzero exact rationals.

    The one home of the term arithmetic of :class:`Element`,
    ``InvariantPoly`` and ``BiPoly``: the constructor loop, sums (through
    :func:`_accumulate`), negation, scalars, the termwise linear map
    ``_map``, equality, powers and ``repr``.  A subclass supplies ``_admit``
    for its keys, the key ``_unit`` of its identity, the ``_letters`` that
    name a key's exponents, and its own ``__mul__``, which applies the key
    law and hands any other operand to ``__rmul__`` (int or Fraction scalars
    only).  The product loops stay per class: one shared loop calling a
    key-combining function per pair of terms was slower in every benchmark
    run, by 2% on the sl2 workload and 7% on the series workload (median of
    4 pairs each).  Powers are shared too, by square-and-multiply; only
    ``BiPoly`` raises a two-term base by the binomial theorem, since its
    products commute, which the psi's of an ``Element`` do not.  ``g`` is
    the genus, or None for a class without one.
    Values are treated as immutable: operations build new values and never
    mutate ``terms`` in place.  Every coefficient follows :func:`_exact`, so
    integral values multiply in int arithmetic.
    """

    __slots__ = ("g", "terms")
    _unit = None

    def __init__(self, g, terms=None):
        if g is not None:
            check_genus(g)
        self.g = g
        self.terms = {}
        for k, v in (terms or {}).items():
            keep = self._admit(k)
            v = _exact(v)
            if v and keep:
                self.terms[k] = v

    def _admit(self, key) -> bool:
        """Whether ``key`` is stored; raises ValueError on an invalid key."""
        return True

    @classmethod
    def _raw(cls, g, terms: dict):
        """Unchecked constructor for a fresh dict of nonzero ``terms``; each
        non-int value is put in the form of ``_exact``, which refuses a
        float."""
        for k, v in terms.items():
            if v.__class__ is not int:
                terms[k] = _exact(v)
        x = object.__new__(cls)
        x.g = g
        x.terms = terms
        return x

    @classmethod
    def zero(cls, *g):
        return cls(*g)

    @classmethod
    def one(cls, *g):
        return cls(*g, {cls._unit: 1})

    def _coerce(self, other):
        """``other`` as an operand of ``+``, ``-`` and ``==``, else NotImplemented."""
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.g != other.g:
            raise ValueError(f"genus mismatch: {self.g} vs {other.g}")
        return self._raw(self.g, _accumulate(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.g, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _exact(c)
        if not c:
            return self._raw(self.g, {})
        return self._raw(self.g, {k: c * v for k, v in self.terms.items()})

    def _map(self, action):
        """The linear map sending each key to ``action(*key)`` (see :func:`_apply`)."""
        return self._raw(self.g, _apply(action, self.terms))

    def __pow__(self, n: int):
        """Square-and-multiply; stops as soon as a square vanishes.  Kept for
        every base of ``Element``: psi's anticommute, so the binomial theorem
        that ``BiPoly.__pow__`` uses for a two-term base is false there
        ((psi_1 + psi_2)^2 = 0).  A non-int exponent, a bool included, is a
        TypeError, a negative one a ValueError."""
        _check_int("exponent", n)
        out = self._raw(self.g, {self._unit: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
                if not base.terms:
                    return base
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.g == other.g and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        terms = sorted(self.terms.items())
        bits = [f"{v}*" + "".join(map("{}^{}".format, self._letters, k)) for k, v in terms]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class Element(Sparse):
    """Exact element of the descendent algebra at a fixed genus."""

    __slots__ = ()
    _unit = (0, 0, 0)

    def _admit(self, key) -> bool:
        a, b, mask = key
        if a < 0 or b < 0 or mask < 0 or mask >> (2 * self.g):
            raise ValueError(
                f"invalid monomial (alpha^{a}, beta^{b}, psi mask {mask:#x}) at genus {self.g}"
            )
        return True

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def alpha(cls, g: int) -> "Element":
        return cls(g, {(1, 0, 0): 1})

    @classmethod
    def beta(cls, g: int) -> "Element":
        return cls(g, {(0, 1, 0): 1})

    @classmethod
    def psi(cls, g: int, i: int) -> "Element":
        check_genus(g)
        _check_psi_index(g, i)
        return cls(g, {(0, 0, 1 << (i - 1)): 1})

    @classmethod
    def monomial(cls, g: int, a: int, b: int, mask: int, coeff=1) -> "Element":
        return cls(g, {(a, b, mask): coeff})

    # ------------------------------------------------------------------
    # ring structure

    def __mul__(self, other):
        if other.__class__ is not Element:
            return self.__rmul__(other)
        if self.g != other.g:
            raise ValueError(f"genus mismatch: {self.g} vs {other.g}")
        t = {}
        for (a1, b1, m1), c1 in self.terms.items():
            for (a2, b2, m2), c2 in other.terms.items():
                if m1 & m2:
                    continue
                sign = koszul_sign(m1, m2)
                mono = (a1 + a2, b1 + b2, m1 | m2)
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = t.get(mono, 0) + c
                if s:
                    t[mono] = s
                else:
                    del t[mono]
        return Element._raw(self.g, t)

    # ------------------------------------------------------------------
    # gradings

    def bidegree(self) -> Optional[Bidegree]:
        """Common (cohomological, Chern) bidegree, or None when the element
        is zero or inhomogeneous."""
        degs = {monomial_bidegree(m) for m in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    # ------------------------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical deterministic order: by bidegree
        (coh, chern / 2), then by key."""

        def order(term):
            key = a, b, mask = term[0]
            s = mask.bit_count()
            return 2 * a + 4 * b + 3 * s, a + b + s, key

        return sorted(self.terms.items(), key=order)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"Element(g={self.g}, {format_element(self)})"


def _check_psi_index(g: int, i: int) -> None:
    """Refuse an i that is not an int in [1, 2g], a bool included."""
    if type(i) is not int or not 1 <= i <= 2 * g:
        raise ValueError(f"psi index must be in [1, {2 * g}], got {i!r}")


def d_alpha(x: Element) -> Element:
    return x._map(lambda a, b, m: {(a - 1, b, m): a} if a else {})


def d_beta(x: Element) -> Element:
    return x._map(lambda a, b, m: {(a, b - 1, m): b} if b else {})


def d_psi(x: Element, i: int) -> Element:
    """The left super-derivation d/d psi_i, for 1 <= i <= 2g.

    On a sorted monomial containing psi_i at (1-based) position p the
    result carries the sign (-1)^(p-1); it is zero when psi_i is absent.
    """
    _check_psi_index(x.g, i)
    bit = 1 << (i - 1)
    below = bit - 1

    def image(a, b, m):
        sign = -1 if (m & below).bit_count() & 1 else 1
        return {(a, b, m ^ bit): sign} if m & bit else {}

    return x._map(image)


def gamma(g: int) -> Element:
    """gamma = -2 * sum_i psi_i psi_{i+g}; even, degree (6, 4)."""
    check_genus(g)
    terms = {}
    for i in range(g):
        terms[(0, 0, (1 << i) | (1 << (i + g)))] = -2
    return Element._raw(g, terms)


@lru_cache(maxsize=None, typed=True)  # typed: a warm c = 1 must not answer True or 1.0
def gamma_power(g: int, c: int) -> Element:
    _check_int("gamma power", c)
    if c == 0:
        return Element.one(g)
    return gamma_power(g, c - 1) * gamma(g)


# ----------------------------------------------------------------------
# bidegree slice enumeration


def monomial_basis(g: int, bd) -> list:
    """All monomials (a, b, mask) with the given bidegree, each once.

    Solves 2a + 4b + 3s = coh and 2(a + b + s) = chern; returns an empty
    list when the bidegree is outside the cone.
    """
    check_genus(g)
    coh, chern = bd
    if coh < 0 or chern < 0 or chern % 2:
        return []
    diff = coh - chern  # equals 2b + s
    if diff < 0:
        return []
    out = []
    for s in range(diff % 2, min(2 * g, diff) + 1, 2):
        b = (diff - s) // 2
        a = chern // 2 - b - s
        if a < 0:
            continue
        for combo in itertools.combinations(range(2 * g), s):
            out.append((a, b, mask_of(i + 1 for i in combo)))
    out.sort()
    return out


def chern_filter_basis(g: int, coh: int, ell: int) -> list:
    """All monomials of cohomological degree ``coh`` and Chern degree <= ell."""
    check_genus(g)
    return sorted(m for chern in range(0, ell + 1, 2) for m in monomial_basis(g, (coh, chern)))


def bidegree_cone(g: int, max_coh: int):
    """All bidegrees (coh, chern) with coh <= max_coh satisfying
    chern <= coh <= 2 chern (plus (0, 0)), chern even."""
    for coh in range(max_coh + 1):
        lo = (coh + 1) // 2
        for chern in range(lo + (lo % 2), coh + 1, 2):
            yield Bidegree(coh, chern)


# ----------------------------------------------------------------------
# the exterior algebra on psi_1..psi_2g (cohomology of the Picard variety)


def theta(g: int) -> Element:
    """theta = 2 * sum_i psi_i psi_{i+g} = -gamma; satisfies theta^(g+1) = 0."""
    return -gamma(g)


@lru_cache(maxsize=None, typed=True)  # typed: a warm c = 2 must not answer 2.0
def theta_power(g: int, c: int) -> Element:
    """theta^c = (-1)^c gamma^c."""
    _check_int("theta power", c)
    return -gamma_power(g, c) if c % 2 else gamma_power(g, c)


def exterior_basis(g: int, degree: int) -> list:
    """psi masks of the given degree, ascending."""
    if degree < 0 or degree > 2 * g:
        return []
    masks = [mask_of(i + 1 for i in combo) for combo in itertools.combinations(range(2 * g), degree)]
    masks.sort()
    return masks


# ----------------------------------------------------------------------
# text grammar (the CLI surface for elements)
#
#   term   ::= [sign] [integer ["/" integer]] factor*
#   factor ::= ("alpha" | "beta" | "gamma" | "psi" index) ["^" exponent]
#
# terms joined by "+"/"-"/"−"; whitespace is ignored between tokens, "/" included.


class ElementParseError(ValueError):
    pass


def _number(convert, digits: str):
    """``convert(digits)``; a literal past the interpreter's limit on
    integer digits is a parse error, not a crash."""
    try:
        return convert(digits)
    except ValueError:
        raise ElementParseError(f"number too long: {digits[:20]}...") from None


_FACTOR = re.compile(r"\s*(alpha|beta|gamma|psi(\d+))(?:\s*\^\s*(\d+))?")
_TERM = re.compile(
    r"\s*(?P<sign>[+\-−])?\s*(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)?"
    rf"(?P<factors>(?:{_FACTOR.pattern})*)\s*"
)


def parse_element(text: str, g: int) -> Element:
    """Parse the element grammar, e.g. ``"1/2 alpha^2 + 1/2 beta"``."""
    check_genus(g)
    if not text.strip():
        raise ElementParseError("empty input")
    result = Element.zero(g)
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        pos = m.end()
        if pos < len(text) and text[pos] not in "+-−":
            raise ElementParseError(f"cannot parse element near {text[pos:pos + 20]!r}")
        if m["num"] is None and not m["factors"]:
            raise ElementParseError("empty term")
        try:
            coeff = Fraction(_number(int, m["num"] or "1"), _number(int, m["den"] or "1"))
        except ZeroDivisionError:
            raise ElementParseError("zero denominator in coefficient") from None
        term = Element.one(g).scale(coeff if m["sign"] in (None, "+") else -coeff)
        for name, index, exp in _FACTOR.findall(m["factors"]):
            if index:
                i = _number(int, index)
                if not 1 <= i <= 2 * g:
                    raise ElementParseError(f"psi index out of range for genus {g}: {name}")
                base = Element.psi(g, i)
            else:
                base = {"alpha": Element.alpha, "beta": Element.beta, "gamma": gamma}[name](g)
            term = term * base ** _number(int, exp or "1")
        result = result + term
    return result


@lru_cache(maxsize=None)
def _psi_text(mask: int) -> str:
    """The psi factors of a mask in the element grammar, e.g. "psi1 psi4"."""
    return " ".join(f"psi{i}" for i in indices_of(mask))


def format_element(x: Element) -> str:
    """Deterministic rendering in the element grammar."""
    if not x.terms:
        return "0"
    parts = []
    for (a, b, mask), c in x.sorted_terms():
        factors = []
        if a:
            factors.append("alpha" + (f"^{a}" if a > 1 else ""))
        if b:
            factors.append("beta" + (f"^{b}" if b > 1 else ""))
        if mask:
            factors.append(_psi_text(mask))
        num, den = c.as_integer_ratio()
        mag = f"{abs(num)}/{den}" if den != 1 else str(abs(num))
        if mag != "1" or not factors:
            factors.insert(0, mag)
        body = " ".join(factors)
        if not parts:
            parts.append(("-" if num < 0 else "") + body)
        else:
            parts.append(("- " if num < 0 else "+ ") + body)
    return " ".join(parts)
