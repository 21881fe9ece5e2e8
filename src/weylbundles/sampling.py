"""Deterministic random element generators for verification sweeps."""
from __future__ import annotations

from fractions import Fraction
from random import Random

from .ambient import AmbientAlgebra, AmbientElem
from .grading import ambient_graded_view
from .gwa import GwaAlgebra, GwaElem
from .poly import PairPoly, UniPoly


def random_fraction(rng: Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_unipoly(rng: Random, max_deg: int = 4, terms: int = 3,
                   span: int = 4) -> UniPoly:
    data = {}
    for _ in range(rng.randint(0, terms)):
        data[rng.randint(0, max_deg)] = random_fraction(rng, span)
    return UniPoly(data)


def random_gwa_elem(alg: GwaAlgebra, rng: Random, max_block: int = 2,
                    max_deg: int = 3, terms: int = 3) -> GwaElem:
    data = {}
    for _ in range(rng.randint(1, terms)):
        d = rng.randint(-max_block, max_block)
        f = random_unipoly(rng, max_deg, terms=2)
        if f:
            data[d] = data.get(d, UniPoly.zero()) + f
    return alg.elem(data)


def random_amb_elem(amb: AmbientAlgebra, rng: Random, max_block: int = 1,
                    max_exp: int = 2, terms: int = 3) -> AmbientElem:
    data: dict[int, PairPoly] = {}
    for _ in range(rng.randint(1, terms)):
        m = rng.randint(-max_block, max_block)
        mono = PairPoly.monomial(
            rng.randint(0, max_exp), rng.randint(0, max_exp), random_fraction(rng)
        )
        if mono:
            data[m] = data.get(m, PairPoly.zero()) + mono
    return amb.elem(data)


def random_homogeneous_amb(amb: AmbientAlgebra, rng: Random, degree: int,
                           size_bound: int = 4, terms: int = 3) -> AmbientElem:
    """Random combination of basis monomials of one ambient degree."""
    basis = ambient_graded_view(amb).enumerate_basis(degree, size_bound)
    out = amb.zero()
    for _ in range(rng.randint(1, terms)):
        c = random_fraction(rng)
        if c:
            out = out + rng.choice(basis) * c
    return out
