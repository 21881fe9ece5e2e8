"""Hypothesis strategies for drawn configurations, and a random ambient
element, shared by the tests."""
from random import Random

from hypothesis import assume
from hypothesis import strategies as st

from weylbundles.ambient import AmbientAlgebra, AmbientElem
from weylbundles.gwa import GwaAlgebra
from weylbundles.poly import PairPoly, UniPoly
from weylbundles.sampling import random_fraction

NONZERO_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def ambient_configs(draw):
    """p = c z^k prod (1 - z/rho)^m over at most two distinct nonzero rational
    roots rho, with c nonzero, k in 1..3 and deg p <= 5; q+ and q- nonzero,
    q+ q- != +-1."""
    k = draw(st.integers(1, 3))
    roots = draw(st.lists(NONZERO_RATIONAL, max_size=min(2, 5 - k), unique=True))
    p, free = UniPoly({k: draw(NONZERO_RATIONAL)}), 5 - k - len(roots)
    for rho in roots:
        mult = draw(st.integers(1, 1 + free))
        free -= mult - 1
        p = p * UniPoly({0: 1, 1: -1 / rho}) ** mult
    q_plus, q_minus = draw(NONZERO_RATIONAL), draw(NONZERO_RATIONAL)
    assume(q_plus * q_minus not in (1, -1))
    return AmbientAlgebra(p, q_plus, q_minus), roots


@st.composite
def gwa_algebras(draw):
    """B(p; q, r) with p nonzero of degree <= 4, q nonzero and r rational,
    zero among the draws but mostly not."""
    coeffs = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                           min_size=1, max_size=5))
    p = UniPoly.from_coeff_list(coeffs)
    assume(p)
    return GwaAlgebra(p, draw(NONZERO_RATIONAL),
                      draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)))


def random_amb_elem(amb: AmbientAlgebra, rng: Random) -> AmbientElem:
    """Up to three monomials x(pm)^|m| z+^a z-^b, |m| <= 1, a, b <= 2."""
    data: dict[int, PairPoly] = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(-1, 1)
        mono = PairPoly.monomial(rng.randint(0, 2), rng.randint(0, 2), random_fraction(rng))
        if mono:
            data[m] = data.get(m, PairPoly.zero()) + mono
    return amb.elem(data)
