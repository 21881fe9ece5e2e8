"""The graded ambient algebra over K[z+, z-] and its degree-zero part.

Generators z+, z-, x+, x- satisfy

    z+ z- = z- z+,
    x+ x- = pt(z+ z-),      x- x+ = pt(q z+ z-),
    x+ z(pm) = 1/q(pm) z(pm) x+,   x- z(pm) = q(pm) z(pm) x-,

where pt is p with its root at zero factored out (p = z^k pt, k >= 1) and
q = q_plus * q_minus.  The algebra is graded by deg z(pm) = (pm)1 and
deg x(pm) = (pm)k.

This is itself a generalized Weyl algebra over K[z+, z-]: with the
automorphism sigma(z(pm)) = q(pm) z(pm), x- plays the role of x, x+ the
role of y, and x- x+ = sigma(x+ x-).  Elements are normal forms on the
basis x-^m f(z+,z-) (key m > 0), x+^{-m} f(z+,z-) (key m < 0) and
f(z+,z-) (key m = 0), and products run through the engine of
:mod:`weylbundles.gwa`; this algebra supplies its contract as
``shift(j, f) = f(q_plus^j z+, q_minus^j z-)`` and ``yx = pt(z+ z-)``.

The degree-zero part is the generalized Weyl algebra B(p; q, 0) via
x = x- z+^k, y = z-^k x+, z = z+ z-, in closed form one monomial scale per block:

    x^m f(z) -> q+^(-k m(m-1)/2) x-^m z+^(km) f(z+ z-),
    y^M f(z) -> q-^(k M(M+1)/2)  x+^M z-^(kM) f(z+ z-).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .gwa import AlgebraMismatch, GwaAlgebra, GwaElem
from .poly import PairPoly, UniPoly, factor_zero_root, frac, tail_decompose


@dataclass(frozen=True)
class AmbientAlgebra:
    p: UniPoly
    q_plus: Fraction
    q_minus: Fraction
    q: Fraction = field(init=False)
    k: int = field(init=False)
    p_reduced: UniPoly = field(init=False)
    p_tail: UniPoly = field(init=False)
    yx: PairPoly = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q_plus", frac(self.q_plus))
        object.__setattr__(self, "q_minus", frac(self.q_minus))
        if self.q_plus == 0 or self.q_minus == 0:
            raise ValueError("q_plus and q_minus must be nonzero")
        k, reduced = factor_zero_root(self.p)
        if k < 1:
            raise ValueError("p must have 0 as a root")
        object.__setattr__(self, "q", self.q_plus * self.q_minus)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p_reduced", reduced)
        object.__setattr__(self, "p_tail", tail_decompose(reduced))
        object.__setattr__(self, "yx", PairPoly.diagonal(reduced))

    def shift(self, j: int, f: PairPoly) -> PairPoly:
        """The j-th power of the grading automorphism z(pm) -> q(pm) z(pm)."""
        return f.twist(self.q_plus**j, self.q_minus**j)

    def degree_of_key(self, m: int, a: int, b: int) -> int:
        return -m * self.k + a - b

    def gwa(self) -> GwaAlgebra:
        """The degree-zero part as a standalone algebra, B(p; q, 0)."""
        return GwaAlgebra(self.p, self.q, frac(0))

    # -- element constructors ------------------------------------------
    def elem(self, terms: Mapping[int, PairPoly]) -> "AmbientElem":
        return AmbientElem(self, terms)

    def zero(self) -> "AmbientElem":
        return AmbientElem(self, {})

    def one(self) -> "AmbientElem":
        return AmbientElem(self, {0: PairPoly.one()})

    def x_plus(self) -> "AmbientElem":
        return AmbientElem(self, {-1: PairPoly.one()})

    def x_minus(self) -> "AmbientElem":
        return AmbientElem(self, {1: PairPoly.one()})

    def z_plus(self) -> "AmbientElem":
        return AmbientElem(self, {0: PairPoly.monomial(1, 0)})

    def z_minus(self) -> "AmbientElem":
        return AmbientElem(self, {0: PairPoly.monomial(0, 1)})

    def from_pair(self, f: PairPoly) -> "AmbientElem":
        return AmbientElem(self, {0: f})

    def from_z_poly(self, f: UniPoly) -> "AmbientElem":
        """A polynomial in z interpreted in the base ring via z = z+ z-."""
        return AmbientElem(self, {0: PairPoly.diagonal(f)})

    def basis_elem(self, m: int, a: int, b: int, c=1) -> "AmbientElem":
        return AmbientElem(self, {m: PairPoly.monomial(a, b, c)})


class AmbientElem(GwaElem):
    """Normal-form element of the ambient algebra, with its grading."""

    __slots__ = ()
    _GENS = ("xm", "xp")
    # an entry of its own, so wrapping it (as perfbench's traced run does)
    # counts ambient products apart from GWA ones
    __mul__ = GwaElem.__mul__

    def monomials(self) -> dict[tuple[int, int, int], Fraction]:
        """Expansion on the basis, keyed by (m, a, b)."""
        out = {}
        for m, f in self.terms.items():
            for (a, b), c in f.coeffs.items():
                out[(m, a, b)] = c
        return out

    def _degrees(self) -> set[int]:
        """The degrees of the basis monomials the element carries."""
        return {self.alg.degree_of_key(m, a, b)
                for m, f in self.terms.items() for a, b in f.coeffs}

    def degree(self) -> int | None:
        """The degree of a homogeneous element (None for zero)."""
        degrees = self._degrees()
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
        return next(iter(degrees), None)

    def is_homogeneous(self, d: int | None = None) -> bool:
        """Homogeneous (of degree d, when given); zero is homogeneous of every degree."""
        degrees = self._degrees()
        return len(degrees) <= 1 and (d is None or degrees <= {d})


def _degree_zero_scale(amb: AmbientAlgebra, m: int) -> Fraction:
    """The scalar of block m in the closed form of the module docstring."""
    t = amb.k * m * (m - 1) // 2        # k M(M+1)/2 for m = -M
    return amb.q_plus**-t if m >= 0 else amb.q_minus**t


def embed_degree_zero(amb: AmbientAlgebra, e: GwaElem) -> AmbientElem:
    """Image of an element of B(p; q, 0) in the degree-zero part.

    Sends x to x- z+^k, y to z-^k x+ and z to z+ z-, each block by its closed
    form with no product; requires the source algebra to carry the same p,
    the product q = q_plus q_minus, and r = 0.
    """
    if e.alg.r != 0:
        raise AlgebraMismatch("degree-zero identification needs r = 0")
    if e.alg.q != amb.q or e.alg.p != amb.p:
        raise AlgebraMismatch("source algebra does not match the graded one")
    terms = {}
    for m, f in e.terms.items():
        s, a, b = _degree_zero_scale(amb, m), amb.k * max(m, 0), amb.k * max(-m, 0)
        terms[m] = PairPoly({(a + d, b + d): c * s for d, c in f.coeffs.items()})
    return amb.elem(terms)


def project_degree_zero(amb: AmbientAlgebra, e: AmbientElem) -> GwaElem:
    """Inverse of :func:`embed_degree_zero` on homogeneous degree-zero input.

    By the closed form, xm^m zp^(b+km) zm^b is a multiple of the image of x^m z^b
    and xp^M zp^a zm^(a+kM) one of y^M z^a; a monomial of other degree is rejected.
    """
    terms: dict[int, dict[int, Fraction]] = {}
    for (m, a, b), c in e.monomials().items():
        if amb.degree_of_key(m, a, b) != 0:
            raise ValueError(
                f"monomial (m={m}, zp^{a}, zm^{b}) has degree "
                f"{amb.degree_of_key(m, a, b)}, not 0"
            )
        terms.setdefault(m, {})[min(a, b)] = c / _degree_zero_scale(amb, m)
    return amb.gwa().elem({m: UniPoly(cs) for m, cs in terms.items()})

