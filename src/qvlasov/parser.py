"""Recursive-descent parser for potential expressions.

Grammar (q is the position variable):

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" uint)?
    base   := number | "pi" | "q" | "sin(" expr ")" | "cos(" expr ")" | "(" expr ")"

Numbers are unsigned integers or decimal literals (parsed exactly as
rationals); fractions are written with "/". Division is only defined by
nonzero invertible constants, trig arguments must reduce to a constant
times q, an exponent may not exceed MAX_POWER, no power or product may raise
the x-degree past it, no product may form more than MAX_PRODUCT_PAIRS
monomial pairs, and parentheses nest at most MAX_NESTING deep.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ring import Coefficient, Monomial, RingElem, RingError


# Largest exponent, and largest x-degree a power or product may reach, so
# parsing work stays bounded: (q+1)^64 parses in about 0.01 s.
MAX_POWER = 64
# Most monomial pairs one product (in "*" or "^") may form; 64 by 64 terms.
MAX_PRODUCT_PAIRS = 4096
# Deepest nesting of "(", "sin(" and "cos(".  Each level takes four frames
# of the recursive descent: unbounded, 200 levels parsed and 250 raised a
# RecursionError under Python's default limit of 1000 frames.
MAX_NESTING = 64


class ParseError(ValueError):
    """Syntax or semantic error in a potential expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z]+)|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"syntax error: unexpected character {stripped[0]!r}", at)
        number, name, op = match.groups()
        start = match.end() - len(number or name or op)
        if number is not None:
            tokens.append(("num", Fraction(number), start))
        elif name is not None:
            if name not in ("pi", "q", "sin", "cos"):
                raise ParseError(f"syntax error: unknown name {name!r}", start)
            tokens.append((name, name, start))
        else:
            tokens.append((op, op, start))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"syntax error: expected {kind!r}", tok[2])
        return tok

    def parse(self) -> RingElem:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("syntax error: unexpected token", tok[2])
        return result

    def expr(self) -> RingElem:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        result = self.term()
        if sign < 0:
            result = -result
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> RingElem:
        result = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, at = self.advance()
            rhs = self.factor()
            if op == "*":
                result = _product(result, rhs, at)
            else:
                if not rhs.is_constant():
                    raise ParseError("division by non-constant", at)
                value = rhs.constant_value()
                if value.is_zero():
                    raise ParseError("division by zero", at)
                try:
                    result = result.scale(value.inverse())
                except RingError as exc:
                    raise ParseError(f"division error: {exc}", at) from None
        return result

    def factor(self) -> RingElem:
        base = self.base()
        if self.peek()[0] == "^":
            _, _, at = self.advance()
            tok = self.advance()
            if tok[0] == "-":
                raise ParseError("negative exponent", tok[2])
            if tok[0] != "num" or tok[1].denominator != 1:
                raise ParseError("syntax error: exponent must be a nonnegative integer",
                                 tok[2])
            n = int(tok[1])
            if n > MAX_POWER:
                raise ParseError(f"exponent {n} exceeds {MAX_POWER}", tok[2])
            if n * base.x_degree() > MAX_POWER:
                raise ParseError(f"power of x-degree {n * base.x_degree()} "
                                 f"exceeds {MAX_POWER}", tok[2])
            base, factor = RingElem.one(), base
            for _ in range(n):
                base = _product(base, factor, tok[2])
        return base

    def base(self) -> RingElem:
        tok = self.advance()
        kind, value, at = tok
        if kind == "num":
            return RingElem.constant(value)
        if kind == "pi":
            return RingElem.constant(Coefficient.pi_power(1))
        if kind == "q":
            return RingElem.x()
        if kind in ("sin", "cos"):
            self.expect("(")
            return _trig_of(kind, self.nested(at), at)
        if kind == "(":
            return self.nested(at)
        raise ParseError("syntax error: unexpected token", at)

    def nested(self, at: int) -> RingElem:
        """The expression after an opening parenthesis, and its ")"."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
        self.depth += 1
        inner = self.expr()
        self.expect(")")
        self.depth -= 1
        return inner


def _product(a: RingElem, b: RingElem, at: int) -> RingElem:
    pairs = a.term_count() * b.term_count()
    if pairs > MAX_PRODUCT_PAIRS:
        raise ParseError(f"product of {pairs} monomial pairs exceeds "
                         f"{MAX_PRODUCT_PAIRS}", at)
    degree = a.x_degree() + b.x_degree()
    if degree > MAX_POWER:
        raise ParseError(f"product of x-degree {degree} exceeds {MAX_POWER}", at)
    return a * b


def _trig_of(kind: str, arg: RingElem, at: int) -> RingElem:
    """Build sin/cos of an argument that must be linear in q with no constant."""
    if arg.is_zero():
        wavenumber = 0
    else:
        terms = dict(arg.items())
        linear = Monomial(1)
        if set(terms) != {linear}:
            raise ParseError("nonlinear trig argument", at)
        wavenumber = terms[linear]
    return RingElem.trig(kind, wavenumber)


def parse_potential(text: str) -> RingElem:
    """Parse a potential expression into a canonical ring element."""
    parser = _Parser(text)
    result = parser.parse()
    return result
