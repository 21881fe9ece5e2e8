"""Degree-bounded strong-grading analysis by exact linear algebra.

A grading is strong exactly when 1 is a sum of products of elements of
degree g and -g, for every g.  ``witness_search`` decides, within a size
bound, whether such a combination exists among basis monomials: it solves
the linear system "sum of chosen products = 1" over the rationals by exact
row reduction.  Absence within the bound is a semi-decision and is always
reported as such.

The ambient algebra carries a finer Z^2 grading: the bidegree of
x(-/+)^|m| z+^a z-^b is (m, a - b).  Every defining relation is
bihomogeneous, so a product of basis monomials is bihomogeneous of the
summed bidegree, and the unit has bidegree (0, 0).  Taking the (0, 0)
component of any combination equal to 1 leaves a combination of only the
pairs whose bidegrees cancel, still equal to 1; the search forms just
those products, and its found/absent verdict is the unpruned one.

Every view is the ambient grading read in units of a step and, for a
quotient, mod a modulus: re-grading along the quotient map to Z/kZ sets
the modulus, and restricting to the subgroup kZ (the Veronese re-grading)
multiplies the step by k.  Witnesses for the outer gradings of such a chain
compose back into a witness for the middle one.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from .ambient import AmbientAlgebra

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GradedView:
    """The ambient grading read in units of ``step`` and mod ``modulus``.

    A basis monomial of ambient degree d has view degree d / step (d must be
    divisible by ``step``), reduced mod ``modulus`` when that is set.  The
    plain view has step 1 and no modulus; ``veronese_view`` multiplies the
    step and ``induced_quotient_view`` sets the modulus.  ``multiply`` is
    the product that searches and witness checks use.
    """

    amb: AmbientAlgebra
    step: int = 1
    modulus: Optional[int] = None
    multiply: Callable[[object, object], object] = operator.mul

    def degree_of(self, e) -> int:
        """The view degree of a nonzero homogeneous element."""
        d = e.degree()
        if d % self.step:
            raise ValueError(f"degree {d} is not divisible by {self.step}")
        return self.normalize_degree(d // self.step)

    def enumerate_basis(self, g: int, size: int) -> list:
        """Basis monomials of degree g and total exponent <= size, in a fixed order.

        A class mod ``modulus`` runs through its view degrees d with
        |d| <= size * k // step, the largest a monomial of that size reaches.
        """
        amb, step = self.amb, self.step
        if self.modulus is None:
            degrees = [g]
        else:
            bound = size * amb.k // step
            degrees = [d for d in range(-bound, bound + 1) if d % self.modulus == g % self.modulus]
        out = []
        for d in degrees:
            for m in range(-size, size + 1):
                for a in range(0, size - abs(m) + 1):
                    b = a - d * step - m * amb.k
                    if b >= 0 and abs(m) + a + b <= size:
                        out.append(amb.basis_elem(m, a, b))
        return out

    def normalize_degree(self, g: int) -> int:
        return g if self.modulus is None else g % self.modulus


@dataclass(frozen=True)
class Witness:
    """Pairs (a, b, c) of degree (g, -g) with sum of c * a * b equal to 1."""

    pairs: tuple[tuple[object, object, Fraction], ...]

    def check(self, view: GradedView) -> bool:
        """Re-verify the defining identity, independently of the solver."""
        amb = view.amb
        return sum((view.multiply(a, b) * c for a, b, c in self.pairs), amb.zero()) == amb.one()

    def to_json(self) -> list:
        return [[str(a), str(b), str(c)] for a, b, c in self.pairs]


def ambient_graded_view(amb: AmbientAlgebra) -> GradedView:
    """The integer grading of the two-variable ambient algebra."""
    return GradedView(amb)


def induced_quotient_view(view: GradedView, k: int) -> GradedView:
    """Re-grade an integer-graded view by degree classes mod k."""
    if view.modulus is not None:
        raise ValueError("only integer gradings can be reduced mod k")
    if k < 1:
        raise ValueError("k must be >= 1")
    return replace(view, modulus=k)


def veronese_view(view: GradedView, k: int) -> GradedView:
    """Restrict an integer-graded view to degrees divisible by k, re-indexed."""
    if view.modulus is not None:
        raise ValueError("only integer gradings have Veronese subalgebras")
    if k < 1:
        raise ValueError("k must be >= 1")
    return replace(view, step=view.step * k)


def _combine_into_unit(products: list[dict], unit_key) -> Optional[dict[int, Fraction]]:
    """Exact coefficients writing the unit vector as a combination of products.

    Incremental row reduction over the rationals with sparse rows; each
    basis row remembers the combination of input vectors that produced it.
    If no product touches the unit monomial at all, the unit coordinate of
    the system reads 0 = 1 and there is nothing to solve.
    """
    if not any(unit_key in p for p in products):
        return None

    basis: dict = {}  # pivot key -> (row, combination), row normalized at pivot

    def reduce(row: dict, combo: dict):
        row = dict(row)
        combo = dict(combo)
        while row:
            pivot = max(row)
            hit = basis.get(pivot)
            if hit is None:
                return row, combo, pivot
            c = row[pivot]
            for target, source in zip((row, combo), hit):
                for key, v in source.items():
                    w = target.get(key, _ZERO) - c * v
                    if w:
                        target[key] = w
                    else:
                        target.pop(key, None)
        return row, combo, None

    for idx, vec in enumerate(products):
        row, combo, pivot = reduce(vec, {idx: Fraction(1)})
        if pivot is not None:
            lead = row[pivot]
            basis[pivot] = (
                {key: v / lead for key, v in row.items()},
                {key: v / lead for key, v in combo.items()},
            )
    residual, combo, pivot = reduce({unit_key: Fraction(1)}, {})
    if pivot is not None:
        return None
    return {idx: -v for idx, v in combo.items() if v}


# the largest size bound :func:`witness_search` takes: the monomials within
# it grow as its cube, and with them the products and the elimination
MAX_SIZE_BOUND = 12


def witness_search(view: GradedView, g: int, size_bound: int) -> Optional[Witness]:
    """Search for a strong-grading witness in degree g within the size bound.

    Pairs each basis monomial of degree g and bidegree (m, e) with the
    monomials of the opposite bidegree within the bound, the keys
    (-m, c, c + e) in ascending c, forms those products and solves for a
    rational combination equal to 1.  The other pairs have products of
    nonzero bidegree, which cannot contribute to the unit, so dropping them
    keeps the verdict of the search over all pairs.  Returns None when no
    combination exists among monomials of the given size; that is not a
    proof that none exists at larger sizes.  Raises ValueError unless
    1 <= size_bound <= MAX_SIZE_BOUND.
    """
    if not 1 <= size_bound <= MAX_SIZE_BOUND:
        raise ValueError(f"size bound must be in [1, {MAX_SIZE_BOUND}], got {size_bound}")
    amb, g = view.amb, view.normalize_degree(g)
    if g == 0:
        one = amb.one()
        return Witness(((one, one, Fraction(1)),))
    partners: dict = {}  # bidegree (m, e) of a left monomial -> its partners
    index_pairs = []
    for a in view.enumerate_basis(g, size_bound):
        ((m, x, y),) = a.monomials()
        e = x - y
        if (m, e) not in partners:
            top = (size_bound - abs(m) - e) // 2
            partners[m, e] = [amb.basis_elem(-m, c, c + e) for c in range(max(0, -e), top + 1)]
        index_pairs.extend((a, b) for b in partners[m, e])
    products = [view.multiply(a, b).monomials() for a, b in index_pairs]
    (unit_key,) = amb.one().monomials()
    combo = _combine_into_unit(products, unit_key)
    if combo is None:
        return None
    pairs = tuple(
        (index_pairs[idx][0], index_pairs[idx][1], c) for idx, c in sorted(combo.items())
    )
    return Witness(pairs)


class CompositionError(ValueError):
    """A required witness for the composition is missing."""


def compose_witnesses(quotient_witnesses: dict[int, Witness],
                      veronese_witnesses: dict[int, Witness],
                      g: int, *, view: GradedView, k: int) -> Witness:
    """Assemble a degree-g witness from witnesses of the outer gradings.

    ``quotient_witnesses`` is keyed by classes mod k, ``veronese_witnesses``
    by subgroup degrees n (meaning degree k*n in ``view``).  Every pair
    (a, b) of the class witness is corrected by a subgroup witness in the
    degree that pulls a back to degree g; the corrected products still sum
    to 1 because each correction sums to 1 in the middle.
    """
    if view.modulus is not None:
        raise ValueError("composition needs the integer-graded base view")
    one = view.amb.one()
    trivial = Witness(((one, one, Fraction(1)),))
    if g == 0:
        return trivial
    class_witness = quotient_witnesses.get(g % k)
    if class_witness is None:
        raise CompositionError(f"no quotient witness for class {g % k} (mod {k})")
    pairs = []
    for a, b, c in class_witness.pairs:
        offset = view.degree_of(a) - g
        if offset % k:
            raise CompositionError(
                f"witness element of degree {view.degree_of(a)} is not in class {g % k}"
            )
        corrector = -(offset // k)
        sub = trivial if corrector == 0 else veronese_witnesses.get(corrector)
        if sub is None:
            raise CompositionError(f"no subgroup witness for degree {corrector}")
        for aa, bb, cc in sub.pairs:
            pairs.append((view.multiply(a, aa), view.multiply(bb, b), c * cc))
    return Witness(tuple(pairs))
