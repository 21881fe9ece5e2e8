"""Parser for algebra element expressions that evaluates as it parses.

Grammar (whitespace insensitive)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := rational | generator | '(' expr ')'

Rationals are single tokens like ``3`` or ``3/4`` (there is no division
operator), and generators are named tokens looked up in the caller's atoms.
The optional leading minus makes the canonical printed forms of elements
parse back.  One pass over the tokens builds the element, left to right;
parentheses nest at most ``MAX_NESTING`` deep, one recursion per level.
Parts without a generator stay ``Fraction`` until they meet an element.
Exponents are integers from 0 to ``MAX_EXPONENT``, and so is their product
along each chain of nested powers above a generator (a number counts 0):
``((1+z)^8)^8`` parses, ``((1+z)^8)^9`` is refused before the power is formed.
A power of a number may have at most ``MAX_SCALAR_BITS`` bits, counted as the
exponent times the bit length of the base, also before it is formed:
``(2^64)^64`` parses, ``((2^64)^64)^64`` is refused.
"""
from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Callable, Mapping

from .poly import MAX_EXPONENT

GWA_GENERATORS = ("x", "y", "z")
AMBIENT_GENERATORS = ("xp", "xm", "zp", "zm")
MAX_NESTING = 100
# the most bits a power of a number may have: 8192 bits print in 2467 digits,
# within Python's limit of 4300 digits for converting an int to a string
MAX_SCALAR_BITS = 8192


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(\d+(?:/\d+)?)|([a-zA-Z]+)|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then the end; whitespace separates tokens."""
    tokens = [(("num", "name", "sym")[m.lastindex - 1], m.group(), m.start())
              for m in _TOKEN.finditer(text)]
    return tokens + [("end", "", len(text))]


def generators(text: str) -> set[str]:
    """The generator names in ``text``, read from its tokens alone."""
    return {value for kind, value, _ in _tokenize(text) if kind == "name"}


class _Parser:
    def __init__(self, text: str, atoms: Mapping[str, object],
                 scalar: Callable[[Fraction], object]):
        self.tokens = _tokenize(text)
        self.atoms = atoms
        self.scalar = scalar
        self.i = 0
        self.depth = 0
        # the largest product of exponents on a path down to a generator
        # within the factor being read (a generator alone counts 1)
        self.weight = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def take(self, symbols: str) -> str | None:
        """Consume the next token if it is one of ``symbols`` and return it."""
        kind, value, _ = self.peek()
        if kind == "sym" and value in symbols:
            self.i += 1
            return value
        return None

    def combine(self, op, a, b):
        """``op(a, b)``: in ``Fraction`` while both are numbers, else in the algebra."""
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            a, b = self.lift(a), self.lift(b)
        return op(a, b)

    def lift(self, value):
        return self.scalar(value) if isinstance(value, Fraction) else value

    def expect_sym(self, symbol: str):
        kind, value, pos = self.next()
        if kind != "sym" or value != symbol:
            raise ParseError(f"expected '{symbol}'", pos)

    def parse_expr(self):
        out = -self.parse_term() if self.take("-") else self.parse_term()
        while op := self.take("+-"):
            out = self.combine(operator.add if op == "+" else operator.sub,
                               out, self.parse_term())
        return out

    def parse_term(self):
        out = self.parse_factor()
        while self.take("*"):
            out = self.combine(operator.mul, out, self.parse_factor())
        return out

    def parse_factor(self):
        outer, self.weight = self.weight, 0
        base = self.parse_atom()
        exp = 1
        if self.take("^"):
            kind, value, pos = self.next()
            if kind != "num" or "/" in value:
                raise ParseError("exponent must be a non-negative integer", pos)
            exp = int(value)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", pos)
            if self.weight * exp > MAX_EXPONENT:
                raise ParseError(f"nested exponents multiply to {self.weight * exp}, "
                                 f"larger than {MAX_EXPONENT}", pos)
            if isinstance(base, Fraction):
                bits = exp * max(base.numerator.bit_length(), base.denominator.bit_length())
                if bits > MAX_SCALAR_BITS:
                    raise ParseError(f"power of a number with up to {bits} bits, "
                                     f"more than {MAX_SCALAR_BITS}", pos)
            base = base ** exp
        self.weight = max(outer, self.weight * exp)
        return base

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {value!r}", pos) from None
        if kind == "name":
            self.weight = 1
            try:
                return self.atoms[value]
            except KeyError:
                raise ParseError(f"unknown generator {value!r}", pos) from None
        if kind == "sym" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            inner = self.parse_expr()
            self.expect_sym(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse(text: str, atoms: Mapping[str, object], scalar: Callable[[Fraction], object]):
    """Evaluate an expression in any algebra given its generators and scalars;
    raises :class:`ParseError` with the position."""
    parser = _Parser(text, atoms, scalar)
    value = parser.parse_expr()
    kind, rest, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {rest!r}", pos)
    return parser.lift(value)
