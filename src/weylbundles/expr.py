"""Parser and evaluator for algebra element expressions.

Grammar (whitespace insensitive)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := rational | generator | '(' expr ')'

Rationals are single tokens like ``3`` or ``3/4`` (there is no division
operator), exponents are integers from 0 to ``MAX_EXPONENT``, and generators
are named tokens resolved at evaluation time.  The optional leading minus
makes the canonical printed forms of elements parse back.  Parentheses nest
at most ``MAX_NESTING`` deep; the parser and evaluator recurse once per level.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .poly import MAX_EXPONENT

GWA_GENERATORS = ("x", "y", "z")
AMBIENT_GENERATORS = ("xp", "xm", "zp", "zm")
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Sum:
    # (sign, node) with sign +1 or -1
    terms: tuple


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([a-zA-Z]+)|(.))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        number, word, symbol = m.groups()
        start = m.end() - len(m.group().lstrip()) if m.group().strip() else m.end()
        if number is not None:
            tokens.append(("num", number, start))
        elif word is not None:
            tokens.append(("name", word, start))
        elif symbol is not None and symbol.strip():
            tokens.append(("sym", symbol, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, symbol: str):
        kind, value, pos = self.next()
        if kind != "sym" or value != symbol:
            raise ParseError(f"expected '{symbol}'", pos)

    def parse_expr(self):
        terms = []
        kind, value, _ = self.peek()
        sign = 1
        if kind == "sym" and value == "-":
            self.next()
            sign = -1
        terms.append((sign, self.parse_term()))
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.next()
                terms.append((1 if value == "+" else -1, self.parse_term()))
            else:
                break
        return Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value == "*":
                self.next()
                factors.append(self.parse_factor())
            else:
                break
        return Prod(tuple(factors))

    def parse_factor(self):
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "num" or "/" in value:
                raise ParseError("exponent must be a non-negative integer", pos)
            if int(value) > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", pos)
            return Pow(base, int(value))
        return base

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Num(Fraction(value))
        if kind == "name":
            return Gen(value)
        if kind == "sym" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            inner = self.parse_expr()
            self.expect_sym(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse(text: str):
    """Parse an expression; raises :class:`ParseError` with the position."""
    parser = _Parser(text)
    node = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {value!r}", pos)
    return node


def gens_used(node) -> set[str]:
    if isinstance(node, Gen):
        return {node.name}
    if isinstance(node, Num):
        return set()
    if isinstance(node, Pow):
        return gens_used(node.base)
    if isinstance(node, Sum):
        return set().union(*(gens_used(t) for _, t in node.terms)) if node.terms else set()
    if isinstance(node, Prod):
        return set().union(*(gens_used(f) for f in node.factors)) if node.factors else set()
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node, atoms: Mapping[str, object], scalar: Callable[[Fraction], object]):
    """Fold an expression into any algebra given its generators and scalars."""
    if isinstance(node, Num):
        return scalar(node.value)
    if isinstance(node, Gen):
        try:
            return atoms[node.name]
        except KeyError:
            raise ParseError(f"unknown generator {node.name!r}", 0) from None
    if isinstance(node, Pow):
        return evaluate(node.base, atoms, scalar) ** node.exp
    if isinstance(node, Prod):
        out = None
        for factor in node.factors:
            value = evaluate(factor, atoms, scalar)
            out = value if out is None else out * value
        return out
    if isinstance(node, Sum):
        out = None
        for sign, term in node.terms:
            value = evaluate(term, atoms, scalar)
            if sign < 0:
                value = -value
            out = value if out is None else out + value
        return out
    raise TypeError(f"not an expression node: {node!r}")
