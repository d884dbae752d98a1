"""Recursive-descent parser for the polynomial text grammar.

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'i' | identifier | '(' expr ')'
    rational := int ('/' uint)?

The printer in poly.Polynomial.to_string emits canonical forms that parse
back to the identical polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial
from .scalars import Scalar
from .universe import VarUniverse

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*^/()])|(?P<bad>\S))")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(ParseError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown variable {name!r}", pos)
        self.name = name


class _Parser:
    def __init__(self, text: str, universe: VarUniverse):
        # the whole text is tokenized first: a bad character is reported
        # before any syntax error
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, position)
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
            self.tokens.append((m[kind] if kind == "op" else kind, m[kind], m.start(kind)))
        self.tokens.append(("end", "", len(text)))
        self.k = 0
        self.universe = universe

    def accept(self, kind: str):
        tok = self.tokens[self.k]
        if tok[0] != kind:
            return None
        self.k += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, text, pos = self.tokens[self.k]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return p

    def expr(self) -> Polynomial:
        negate = self.accept("-")
        if not negate:
            self.accept("+")
        total = self.term()
        if negate:
            total = -total
        while True:
            if self.accept("+"):
                total = total + self.term()
            elif self.accept("-"):
                total = total - self.term()
            else:
                return total

    def term(self) -> Polynomial:
        total = self.factor()
        while self.accept("*"):
            total = total * self.factor()
        return total

    def factor(self) -> Polynomial:
        base = self.base()
        if self.accept("^"):
            base = base ** int(self.expect("num")[1])
        return base

    def base(self) -> Polynomial:
        kind, text, pos = self.tokens[self.k]
        if self.accept("num"):
            value = Fraction(int(text))
            if self.accept("/"):
                den = self.expect("num")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                value = Fraction(int(text), int(den[1]))
            return Polynomial.constant(self.universe, value)
        if self.accept("ident"):
            if text == "i":
                return Polynomial.constant(self.universe, Scalar(0, 1))
            try:
                return Polynomial.variable(self.universe, text)
            except KeyError:
                raise UnknownVariable(text, pos) from None
        if self.accept("("):
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def parse_polynomial(text: str, universe: VarUniverse) -> Polynomial:
    return _Parser(text, universe).parse()
