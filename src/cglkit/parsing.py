"""Text grammars for scalars and PBW polynomials.

Scalar grammar: signed decimal rationals, parameter names, ``^`` with integer
exponents, ``*``, ``/``, ``+``, ``-`` and parentheses, e.g. ``q^-1``,
``-(q - q^-1)``, ``2/3 * q1^2 * q2^-1``.

Polynomial grammar: the scalar grammar plus generator names ``x1``..``xN``
(or presentation-specific aliases such as ``X12``), juxtaposition as
multiplication, and nonnegative ``^`` powers on generators.  Division is
only defined by (nonzero) scalars.

Both parsers report errors with positions.  ``parse_poly`` normalizes
products through the presentation's rewriting engine unless ``normalize``
is False, in which case products must already be in PBW order (the form
emitted by ``format_poly``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from . import pbw
from .errors import ExponentOverflow, ParseError, UnknownGenerator
from .scalars import LaurentFraction, _monomial_str, _poly_str, _term_sort_key, _unpacked


class Token(NamedTuple):
    kind: str  # NUM, NAME, OP, END
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<NUM>\d+(?:\.\d+)?)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*/^()]))"
)


def tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[bad_at]!r}", src, bad_at)
        kind = match.lastgroup
        tokens.append(Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(Token("END", "", len(src)))
    return tokens


_MAX_NESTING = 100  # parentheses and unary signs open at once


class _Parser:
    """Recursive descent over either scalar or polynomial values.

    The value type is decided by the subclassing hooks; precedence is
    unary minus < +,- < *,/ and juxtaposition < ^.  At most ``_MAX_NESTING``
    parentheses and unary signs may be open at once, so whether a text
    parses does not depend on the caller's stack depth.
    """

    def __init__(self, src):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", self.src, tok.pos)
        return tok

    def fail(self, message, tok):
        raise ParseError(message, self.src, tok.pos)

    def nested(self, tok, parse):
        """parse() one level deeper, opened by tok."""
        if self.depth == _MAX_NESTING:
            self.fail("expression nested too deeply", tok)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            self.fail(f"unexpected {tok.text!r}", tok)
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def _starts_primary(self, tok):
        return tok.kind in ("NUM", "NAME") or (tok.kind == "OP" and tok.text == "(")

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.next()
                rhs = self.factor()
                if tok.text == "*":
                    value = self.product(value, rhs, tok)
                else:
                    value = self.divide(value, rhs, tok)
            elif self._starts_primary(tok):
                value = self.product(value, self.factor(), tok)
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.next()
            value = self.nested(tok, self.factor)
            return -value if tok.text == "-" else value
        return self.powered()

    def powered(self):
        base_tok = self.peek()
        value = self.primary()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.next()
            try:
                value = self.raise_power(value, self.int_exponent(), base_tok)
            except ExponentOverflow as exc:
                self.fail(str(exc), tok)
        return value

    def int_exponent(self):
        sign = 1
        tok = self.next()
        if tok.kind == "OP" and tok.text == "-":
            sign = -1
            tok = self.next()
        if tok.kind != "NUM" or "." in tok.text:
            self.fail("expected an integer exponent", tok)
        return sign * int(tok.text)

    def primary(self):
        tok = self.next()
        if tok.kind == "NUM":
            return self.number(Fraction(tok.text))
        if tok.kind == "NAME":
            return self.name(tok)
        if tok.kind == "OP" and tok.text == "(":
            value = self.nested(tok, self.expr)
            self.expect_op(")")
            return value
        self.fail("expected a number, name or parenthesized expression", tok)

    # hooks
    def product(self, lhs, rhs, tok):
        raise NotImplementedError

    def number(self, value):
        raise NotImplementedError

    def name(self, tok):
        raise NotImplementedError

    def divide(self, lhs, rhs, tok):
        raise NotImplementedError

    def raise_power(self, value, exponent, tok):
        raise NotImplementedError


class _ScalarParser(_Parser):
    def __init__(self, src, space):
        super().__init__(src)
        self.space = space

    def product(self, lhs, rhs, tok):
        return lhs * rhs

    def number(self, value):
        return LaurentFraction.from_rational(self.space, value)

    def name(self, tok):
        if tok.text not in self.space.names:
            self.fail(f"unknown parameter {tok.text!r}", tok)
        return LaurentFraction.parameter(self.space, tok.text)

    def divide(self, lhs, rhs, tok):
        if rhs.is_zero:
            self.fail("division by zero", tok)
        return lhs / rhs

    def raise_power(self, value, exponent, tok):
        if exponent < 0 and value.is_zero:
            self.fail("division by zero", tok)
        return value**exponent


def parse_scalar(src, space) -> LaurentFraction:
    return _ScalarParser(src, space).parse()


class _PolyParser(_Parser):
    def __init__(self, src, P, normalize=True):
        super().__init__(src)
        self.P = P
        self.normalize = normalize

    def _const(self, scalar):
        return pbw.PBWPolynomial.constant(self.P.space, self.P.N, scalar)

    def number(self, value):
        return self._const(LaurentFraction.from_rational(self.P.space, value))

    def name(self, tok):
        text = tok.text
        if text in self.P.space.names:
            return self._const(LaurentFraction.parameter(self.P.space, text))
        index = self.P.generator_index(text)
        if index is None:
            raise UnknownGenerator(f"unknown generator or parameter {text!r}", self.src, tok.pos)
        return self.P.x(index)

    def divide(self, lhs, rhs, tok):
        scalar = rhs.as_constant()
        if scalar is None:
            self.fail("can only divide by a scalar", tok)
        if scalar.is_zero:
            self.fail("division by zero", tok)
        return lhs.scale(scalar.inverse())

    def raise_power(self, value, exponent, tok):
        scalar = value.as_constant()
        if scalar is not None:
            if exponent < 0 and scalar.is_zero:
                self.fail("division by zero", tok)
            return self._const(scalar**exponent)
        if exponent < 0:
            self.fail("generators only take nonnegative powers", tok)
        if exponent > 1:
            # value^e is in PBW order when value * value is
            self.check_order(value, value, tok)
        return pbw.power(value, exponent, self.P)

    def product(self, lhs, rhs, tok):
        self.check_order(lhs, rhs, tok)
        return pbw.multiply(lhs, rhs, self.P)

    def check_order(self, lhs, rhs, tok):
        """In raw mode, refuse a product whose concatenated words leave PBW order."""
        if self.normalize:
            return
        last = max(map(pbw._last_letter, lhs.terms), default=-1)
        if last > min(map(pbw._first_letter, rhs.terms), default=self.P.N):
            self.fail("product is out of PBW order (raw mode)", tok)


def parse_poly(src, P, normalize=True) -> pbw.PBWPolynomial:
    return _PolyParser(src, P, normalize).parse()


# -- canonical emission --


def format_scalar(value: LaurentFraction) -> str:
    return str(value)


def _coeff_prefix(coeff: LaurentFraction):
    """(sign, text) where text is '' for +-1 and a safe factor otherwise."""
    num = _unpacked(coeff.space, coeff.num)
    if max(num.items(), key=_term_sort_key)[1] < 0:
        sign, text = _coeff_prefix(-coeff)
        return ("-" if sign == "+" else "+"), text
    if not coeff.is_laurent:
        return "+", str(coeff)
    if len(num) == 1:
        (exps, c), = num.items()
        if c == 1 and not any(exps):
            return "+", ""
        return "+", _monomial_str(coeff.space, c, exps)
    return "+", f"({_poly_str(coeff.space, num)})"


def format_poly(p, names=None, degrees=None) -> str:
    """Deterministic rendering; terms ordered by (degree, reverse-lex)."""
    if p.is_zero:
        return "0"
    if names is None:
        names = [f"x{i + 1}" for i in range(p.N)]
    if degrees is None:
        degrees = [1] * p.N

    def key(mono):
        return (sum(e * d for e, d in zip(mono, degrees)), tuple(-e for e in mono))

    pieces = []
    for mono in sorted(p.terms, key=key):
        coeff = p.terms[mono]
        sign, ctext = _coeff_prefix(coeff)
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e:
                factors.append(f"{names[i]}^{e}")
        if not factors:
            body = ctext if ctext else "1"
        elif ctext:
            body = ctext + "*" + "*".join(factors)
        else:
            body = "*".join(factors)
        pieces.append((sign, body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += (" - " if sign == "-" else " + ") + body
    return out
