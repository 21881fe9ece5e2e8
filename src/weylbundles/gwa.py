"""The generalized Weyl algebra over K[z] with defining polynomial p.

Generators x, y, z satisfy

    x y = p(q z + r),   y x = p(z),   x z = (q z + r) x,   y z = (z - r)/q y.

Elements are kept in normal form on the monomial basis x^d f(z) (key d > 0),
y^{-d} f(z) (key d < 0) and f(z) (key d = 0).  Products are computed by the
rewriting rules

    f(z) x = x f((z - r)/q),   f(z) y = y f(q z + r),
    x y = p(q z + r),          y x = p(z),

applied one generator pair at a time.  All values are immutable and all
operations pure.

:class:`GwaElem` and :func:`_term_mul` are the package's one product
engine, for any algebra of this shape over a commutative base ring with an
automorphism sigma.  The algebra supplies ``one()``, ``shift(j, f)`` (f
under sigma^j, so f x = x shift(-1, f)) and ``yx`` (the value of y x, so
x y = shift(1, yx)).  Here sigma(z) = q z + r and yx = p;
:mod:`weylbundles.ambient` supplies its own over K[z+, z-].
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .poly import AffineAuto, UniPoly, auto_shift_product, frac


class AlgebraMismatch(ValueError):
    """Raised when combining elements of differently configured algebras."""


@dataclass(frozen=True)
class GwaAlgebra:
    p: UniPoly
    q: Fraction
    r: Fraction
    sigma: AffineAuto = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", frac(self.q))
        object.__setattr__(self, "r", frac(self.r))
        if self.q == 0:
            raise ValueError("algebra needs q != 0")
        if not self.p:
            raise ValueError("algebra needs p != 0")
        object.__setattr__(self, "sigma", AffineAuto(self.q, self.r))

    # -- the product engine's contract -----------------------------------
    @property
    def yx(self) -> UniPoly:
        return self.p

    def shift(self, j: int, f: UniPoly) -> UniPoly:
        return self.sigma.apply(j, f)

    # -- element constructors ------------------------------------------
    def elem(self, terms: Mapping[int, UniPoly]) -> "GwaElem":
        return GwaElem(self, terms)

    def zero(self) -> "GwaElem":
        return GwaElem(self, {})

    def one(self) -> "GwaElem":
        return GwaElem(self, {0: UniPoly.one()})

    def x(self) -> "GwaElem":
        return GwaElem(self, {1: UniPoly.one()})

    def y(self) -> "GwaElem":
        return GwaElem(self, {-1: UniPoly.one()})

    def z(self) -> "GwaElem":
        return GwaElem(self, {0: UniPoly.gen()})

    def from_poly(self, f: UniPoly) -> "GwaElem":
        return GwaElem(self, {0: f})

    def from_scalar(self, c) -> "GwaElem":
        return GwaElem(self, {0: UniPoly.constant(c)})

    def monomial(self, d: int, f: UniPoly) -> "GwaElem":
        return GwaElem(self, {d: f})


class GwaElem:
    """Normal-form element: map d -> polynomial, zero polynomials stripped."""

    __slots__ = ("alg", "terms")
    # printed names of the generators with positive and negative keys
    _GENS = ("x", "y")

    def __init__(self, alg: GwaAlgebra, terms: Mapping[int, UniPoly]):
        self.alg = alg
        self.terms = {int(d): f for d, f in terms.items() if f}

    def _check(self, other: "GwaElem"):
        if self.alg != other.alg:
            raise AlgebraMismatch("elements live in different algebras")

    def is_zero(self) -> bool:
        return not self.terms

    def poly_part(self):
        """The d = 0 component, an element of the base ring."""
        return self.terms.get(0) or type(self.alg.yx).zero()

    def is_poly(self) -> bool:
        return set(self.terms) <= {0}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, GwaElem):
            return self.alg == other.alg and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.alg, tuple(sorted((d, f) for d, f in self.terms.items()))))

    def __add__(self, other) -> "GwaElem":
        if not isinstance(other, GwaElem):
            return NotImplemented
        self._check(other)
        data = dict(self.terms)
        for d, f in other.terms.items():
            g = data.get(d)
            data[d] = f if g is None else g + f
        return type(self)(self.alg, data)

    def __neg__(self) -> "GwaElem":
        return type(self)(self.alg, {d: -f for d, f in self.terms.items()})

    def __sub__(self, other) -> "GwaElem":
        if not isinstance(other, GwaElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "GwaElem":
        if isinstance(other, GwaElem):
            self._check(other)
            data: dict = {}
            for d1, f1 in self.terms.items():
                for d2, f2 in other.terms.items():
                    d, f = _term_mul(self.alg, d1, f1, d2, f2)
                    g = data.get(d)
                    data[d] = f if g is None else g + f
            return type(self)(self.alg, data)
        c = frac(other)
        return type(self)(self.alg, {d: f * c for d, f in self.terms.items()})

    def __rmul__(self, other) -> "GwaElem":
        # scalars commute; element * element goes through __mul__
        return self.__mul__(other)

    def __pow__(self, n: int) -> "GwaElem":
        if n < 0:
            raise ValueError("negative power in the algebra")
        result = self.alg.one()
        for _ in range(n):
            result = result * self
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms, reverse=True):
            gen = self._GENS[d < 0]
            head = "" if d == 0 else f"{gen}*" if abs(d) == 1 else f"{gen}^{abs(d)}*"
            parts.append(f"{head}({self.terms[d]})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


def _term_mul(alg, d1: int, f1, d2: int, f2) -> tuple:
    """Normal form of (block d1 * f1) * (block d2 * f2); always a single term.

    First f1 crosses the generator block of the right factor, then opposite
    blocks annihilate one x y or y x pair at a time, and the base-ring value
    of the pair crosses what is left of the right block.  Each pass shrinks
    min(|d1|, |d2|) by one, so the loop terminates.  Uses only the
    ``shift``/``yx`` contract of the module docstring.
    """
    f = alg.shift(-d2, f1) * f2
    while d1 and d2 and (d1 > 0) != (d2 > 0):
        if d1 > 0:
            d1 -= 1
            d2 += 1
            j = 1 - d2      # x y = shift(1, yx), then crosses block d2
        else:
            d1 += 1
            d2 -= 1
            j = -d2         # y x = yx, then crosses block d2
        f = alg.shift(j, alg.yx) * f
    return d1 + d2, f


def commutator_closed_form(alg: GwaAlgebra, n: int, k: int, l: int) -> GwaElem:
    """The commutator [x^n z^k, z^l y^n] evaluated without the product engine.

    Equals s(n) shifted forward n times, times the (k+l)-th power of the
    shifted variable, minus s(n) * z^{k+l}, where s(n) is the value of
    y^n x^n.  Serves as an independent oracle for trace tests.
    """
    if min(n, k, l) < 0:
        raise ValueError("n, k, l must be >= 0")
    sigma = alg.sigma
    s = auto_shift_product(alg.p, sigma, n)
    a, b = sigma.power_image(n)
    lhs = sigma.apply(n, s) * UniPoly({1: a, 0: b}) ** (k + l)
    rhs = s * UniPoly({k + l: 1})
    return alg.from_poly(lhs - rhs)
