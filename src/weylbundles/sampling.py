"""Deterministic random element generators for verification sweeps."""
from __future__ import annotations

from fractions import Fraction
from random import Random

from .ambient import AmbientAlgebra, AmbientElem
from .grading import ambient_graded_view
from .gwa import GwaAlgebra, GwaElem
from .poly import UniPoly


def random_fraction(rng: Random) -> Fraction:
    """A rational a/b with |a| <= 4 and 1 <= b <= 4."""
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def random_unipoly(rng: Random, max_deg: int = 4, terms: int = 3) -> UniPoly:
    data = {}
    for _ in range(rng.randint(0, terms)):
        data[rng.randint(0, max_deg)] = random_fraction(rng)
    return UniPoly(data)


def random_gwa_elem(alg: GwaAlgebra, rng: Random) -> GwaElem:
    """Up to three terms x^d f(z) or y^d f(z), |d| <= 2, f of degree <= 3."""
    data = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(-2, 2)
        f = random_unipoly(rng, 3, terms=2)
        if f:
            data[d] = data.get(d, UniPoly.zero()) + f
    return alg.elem(data)


def random_homogeneous_amb(amb: AmbientAlgebra, rng: Random, degree: int) -> AmbientElem:
    """Random combination of up to three basis monomials of one ambient
    degree, each of size at most 4."""
    basis = ambient_graded_view(amb).enumerate_basis(degree, 4)
    out = amb.zero()
    for _ in range(rng.randint(1, 3)):
        c = random_fraction(rng)
        if c:
            out = out + rng.choice(basis) * c
    return out
