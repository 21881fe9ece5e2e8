"""Hypothesis strategy for drawn ambient configurations, shared by the tests."""
from hypothesis import assume
from hypothesis import strategies as st

from weylbundles.ambient import AmbientAlgebra
from weylbundles.poly import UniPoly

NONZERO_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def ambient_configs(draw):
    """p = z^k prod (1 - z/rho)^m over at most two distinct nonzero rational
    roots rho, with k in 1..3 and deg p <= 5; q+ and q- nonzero, q+ q- != +-1."""
    k = draw(st.integers(1, 3))
    roots = draw(st.lists(NONZERO_RATIONAL, max_size=min(2, 5 - k), unique=True))
    p, free = UniPoly({k: 1}), 5 - k - len(roots)
    for rho in roots:
        mult = draw(st.integers(1, 1 + free))
        free -= mult - 1
        p = p * UniPoly({0: 1, 1: -1 / rho}) ** mult
    q_plus, q_minus = draw(NONZERO_RATIONAL), draw(NONZERO_RATIONAL)
    assume(q_plus * q_minus not in (1, -1))
    return AmbientAlgebra(p, q_plus, q_minus), roots
