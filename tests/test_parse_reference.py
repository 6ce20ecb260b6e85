"""The element parser against a reference: the token-by-token state machine
that ``parse_element`` used before it read one term per match.

Both must accept and reject the same strings and give equal elements.  The
one allowed difference is non-space whitespace around the "/" of a
coefficient: the reference removes only spaces before calling ``Fraction``,
so it refuses ``"3\\t/2 alpha"`` as a number too long, while the grammar
ignores whitespace between tokens.
"""

import random
import re
from fractions import Fraction

import pytest

from rank2chern.algebra import Element, ElementParseError, check_genus, gamma, parse_element


def _number(convert, digits):
    try:
        return convert(digits)
    except ValueError:
        raise ElementParseError(f"number too long: {digits[:20]}...") from None


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<sign>[+\-−])"
    r"|(?P<num>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<name>alpha|beta|gamma|psi\d+)(?:\s*\^\s*(?P<exp>\d+))?"
    r")"
)


def reference_parse_element(text, g):
    check_genus(g)
    pos = 0
    n = len(text)
    result = Element.zero(g)
    sign = 1
    coeff = None
    factors = []
    started = False

    def flush():
        nonlocal result, sign, coeff, factors, started
        if not started:
            return
        if coeff is None and not factors:
            raise ElementParseError("empty term")
        term = Element.one(g).scale((coeff if coeff is not None else 1) * sign)
        for name, exp in factors:
            if name == "alpha":
                base = Element.alpha(g)
            elif name == "beta":
                base = Element.beta(g)
            elif name == "gamma":
                base = gamma(g)
            else:
                i = _number(int, name[3:])
                if not 1 <= i <= 2 * g:
                    raise ElementParseError(f"psi index out of range for genus {g}: {name}")
                base = Element.psi(g, i)
            term = term * base**exp
        result = result + term
        sign, coeff, factors, started = 1, None, [], False

    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ElementParseError(f"cannot parse element near {text[pos:pos + 20]!r}")
            break
        pos = m.end()
        if m.group("sign"):
            if started:
                flush()
            if m.group("sign") != "+":
                sign = -sign
            started = True
        elif m.group("num"):
            if coeff is not None or factors:
                raise ElementParseError("rational coefficient must precede the factors")
            try:
                coeff = _number(Fraction, m.group("num").replace(" ", ""))
            except ZeroDivisionError:
                raise ElementParseError("zero denominator in coefficient") from None
            started = True
        else:
            factors.append((m.group("name"), _number(int, m.group("exp") or "1")))
            started = True
    if started:
        flush()
    elif not result.terms and not text.strip():
        raise ElementParseError("empty input")
    return result


def _outcome(parse, text, g):
    try:
        return parse(text, g)
    except ElementParseError:
        return None


def _pieces(g):
    return [
        "alpha", "beta", "gamma", "psi", "psi0", "psi1", "psi2", "psi3", "psi01", "psi٣",
        f"psi{2 * g}", f"psi{2 * g + 1}", "psi1psi4", "alpha^2beta", "gamma^",
        "^", "^2", "^0", " ^ 3", "^٢", "^12345678901234567890",
        "+", "-", "−", " + ", " - ", " − ", "++", "+-",
        "0", "1", "7", "12", "٣", "/", "1/2", "3 / 4", "0/0", "1/0", "1/2/3",
        "3\t/2", "2 /\n5", "4\n/\t3", "5/ 2",
        " ", "  ", "\t", "\n", "\u00a0", "", "@", "x", "*",
        "9" * 5000, "1/" + "7" * 5000, "^" + "9" * 5000, "psi" + "1" * 5000,
    ]


def _random_inputs(g, count, seed):
    """Half are random runs of pieces; half are well-formed sums, each with
    zero to two random pieces inserted."""
    rnd = random.Random(seed)
    pieces = _pieces(g)
    space = ["", " ", "  ", "\t", "\n", "\u00a0"]
    signs = ["+", "-", "−"]
    coeffs = ["", "0", "2", "12", "٣", "1/2", "3 / 4", "3\t/2", "2 /\n5", "4\n/\t3"]
    factors = ["alpha", "beta", "gamma", "alpha^2", "beta ^ 3", "gamma^2", "psi٣"]
    factors += [f"psi{i}" for i in range(1, 2 * g + 1)]
    for n in range(count):
        if n % 2:
            yield "".join(rnd.choice(pieces) for _ in range(rnd.randrange(9)))
            continue
        text = ""
        for t in range(rnd.randrange(1, 4)):
            sign = rnd.choice(signs) if t or rnd.randrange(2) else ""
            body = [rnd.choice(coeffs)] + rnd.sample(factors, rnd.randrange(4))
            text += sign + rnd.choice(space) + rnd.choice(space).join(body) + rnd.choice(space)
        for _ in range(rnd.randrange(3)):
            at = rnd.randrange(len(text) + 1)
            text = text[:at] + rnd.choice(pieces) + text[at:]
        yield text


_SLASH_WITH_OTHER_SPACE = re.compile(r"[^\S ]\s*/|/\s*[^\S ]")


@pytest.mark.parametrize("g,seed", [(2, 2023), (3, 3023)])
def test_parser_agrees_with_reference(g, seed):
    accepted = rejected = slash_only = 0
    for text in _random_inputs(g, 6000, seed):
        new = _outcome(parse_element, text, g)
        old = _outcome(reference_parse_element, text, g)
        if new is None:
            assert old is None, repr(text)
            rejected += 1
        elif old is None:
            # the allowed difference: tabs, newlines etc. around "/"
            assert _SLASH_WITH_OTHER_SPACE.search(text), repr(text)
            assert reference_parse_element(re.sub(r"\s*/\s*", "/", text), g) == new, repr(text)
            slash_only += 1
        else:
            assert new == old, repr(text)
            accepted += 1
    assert min(accepted, rejected, slash_only) > 100, (accepted, rejected, slash_only)


def test_whitespace_around_slash_is_ignored():
    g = 2
    half = Fraction(3, 2) * Element.alpha(g)
    for text in ("3\t/2 alpha", "3/\n2 alpha", "3 \t / \n 2alpha"):
        assert parse_element(text, g) == half
        with pytest.raises(ElementParseError, match="number too long"):
            reference_parse_element(text, g)
    assert parse_element("3 / 2 alpha", g) == reference_parse_element("3 / 2 alpha", g) == half
