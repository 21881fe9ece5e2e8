from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylbundles.poly import (
    AffineAuto,
    PairPoly,
    UniPoly,
    auto_shift_product,
    factor_zero_root,
    frac,
    poly_divmod,
    tail_decompose,
)

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)
polys = st.dictionaries(
    st.integers(min_value=0, max_value=6), fractions, max_size=5
).map(UniPoly)
# numerators and denominators up to 2**256, drawn independently
big_fractions = st.builds(Fraction, st.integers(-2**256, 2**256), st.integers(1, 2**256))
wide_fractions = st.one_of(fractions, big_fractions)


def test_frac_parses_and_rejects_floats():
    assert frac("3/4") == Fraction(3, 4)
    assert frac("-2") == Fraction(-2)
    assert frac(5) == Fraction(5)
    with pytest.raises(TypeError):
        frac(0.5)


@pytest.mark.parametrize("make,message", [
    (lambda: UniPoly.gen() ** -1, "negative polynomial power"),
    (lambda: UniPoly({-1: 1}), "polynomial exponents must be >= 0"),
    (lambda: PairPoly({(0, -1): 1}), "exponents must be >= 0"),
    (lambda: AffineAuto(0, 1), "automorphism needs q != 0"),
    (lambda: auto_shift_product(UniPoly.gen(), AffineAuto(2, 0), -1), "n must be >= 0"),
], ids=["power", "uni-exponent", "pair-exponent", "auto-q", "shift-product-n"])
def test_negative_and_zero_arguments_are_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_zero_degree_is_none():
    assert UniPoly.zero().degree() is None
    assert UniPoly.one().degree() == 0
    assert not UniPoly({2: 0})


def test_poly_str_is_ascending():
    f = UniPoly({0: 1, 1: -3, 2: 1})
    assert str(f) == "1 - 3*z + z^2"
    assert str(UniPoly.zero()) == "0"
    assert str(UniPoly({1: Fraction(3, 2)})) == "3/2*z"


# -- the affine automorphism ------------------------------------------

def test_apply_auto_examples():
    sigma = AffineAuto(4, 0)
    f = UniPoly({1: 1, 2: -1})                      # z(1 - z)
    assert sigma.apply(-1, f) == UniPoly({1: Fraction(1, 4), 2: Fraction(-1, 16)})
    assert sigma.apply(0, f) == f
    assert AffineAuto(2, 3).apply(2, UniPoly.gen()) == UniPoly({1: 4, 0: 9})


def test_apply_auto_matches_iterated_substitution():
    sigma = AffineAuto(Fraction(2, 3), Fraction(1, 2))
    f = UniPoly({0: 2, 1: -1, 3: Fraction(1, 3)})
    once = f.compose_linear(sigma.q, sigma.r)
    assert sigma.apply(1, f) == once
    assert sigma.apply(2, f) == once.compose_linear(sigma.q, sigma.r)
    assert sigma.apply(-1, sigma.apply(1, f)) == f


def test_apply_auto_shift_only():
    sigma = AffineAuto(1, Fraction(1, 2))
    assert sigma.apply(3, UniPoly.gen()) == UniPoly({1: 1, 0: Fraction(3, 2)})


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-4, 4), st.integers(-4, 4))
def test_auto_powers_compose(f, i, j):
    sigma = AffineAuto(3, Fraction(-1, 2))
    assert sigma.apply(i, sigma.apply(j, f)) == sigma.apply(i + j, f)


def test_auto_shift_product_examples():
    sigma = AffineAuto(4, 0)
    p = UniPoly({1: 1, 2: -1})
    assert auto_shift_product(p, sigma, 0) == UniPoly.one()
    assert auto_shift_product(p, sigma, 1) == p
    assert auto_shift_product(p, sigma, 2) == p * sigma.apply(-1, p)


@settings(max_examples=30, deadline=None)
@given(polys, st.integers(0, 6))
def test_auto_shift_product_recursion(p, n):
    sigma = AffineAuto(Fraction(5, 2), 1)
    assert auto_shift_product(p, sigma, n + 1) == (
        auto_shift_product(p, sigma, n) * sigma.apply(-n, p)
    )


# -- structural decompositions ----------------------------------------

def test_factor_zero_root_examples():
    assert factor_zero_root(UniPoly({2: 1, 3: -1})) == (2, UniPoly({0: 1, 1: -1}))
    assert factor_zero_root(UniPoly({0: 1, 1: -1})) == (0, UniPoly({0: 1, 1: -1}))
    assert factor_zero_root(UniPoly({3: 1})) == (3, UniPoly.one())
    with pytest.raises(ValueError):
        factor_zero_root(UniPoly.zero())


def test_tail_decompose_examples():
    assert tail_decompose(UniPoly({0: 1, 1: -1})) == UniPoly.one()
    assert tail_decompose(UniPoly.constant(7)) == UniPoly.zero()
    assert tail_decompose(UniPoly({0: 1, 1: -3, 2: 1})) == UniPoly({0: 3, 1: -1})


@settings(max_examples=60, deadline=None)
@given(polys)
def test_decomposition_identities(p):
    if not p:
        return
    k, reduced = factor_zero_root(p)
    assert reduced.constant_term != 0
    assert reduced * UniPoly({k: 1}) == p
    tail = tail_decompose(reduced)
    assert UniPoly.constant(reduced.constant_term) - UniPoly.gen() * tail == reduced


def test_poly_divmod_exact_and_remainder():
    num = UniPoly({0: 1, 2: -1})                 # (1 - z)(1 + z)
    quo, rem = poly_divmod(num, UniPoly({0: 1, 1: -1}))
    assert (quo, rem) == (UniPoly({0: 1, 1: 1}), UniPoly.zero())
    quo, rem = poly_divmod(UniPoly({2: 1, 0: 1}), UniPoly({1: 1}))
    assert quo == UniPoly({1: 1}) and rem == UniPoly.one()


def test_compose_linear_evaluates():
    f = UniPoly({0: 1, 1: 2, 3: -1})
    g = f.compose_linear(Fraction(1, 2), -1)
    for v in (0, 1, Fraction(7, 3)):
        assert g(v) == f(Fraction(1, 2) * v - 1)


def horner_compose(f: UniPoly, a, b) -> UniPoly:
    """``f(a*z + b)`` by Horner's rule over the dense degree range: the reference."""
    deg = f.degree()
    if deg is None:
        return UniPoly.zero()
    lin = UniPoly({1: a, 0: b})
    result = UniPoly.zero()
    for d in range(deg, -1, -1):
        result = result * lin + UniPoly.constant(f.coeffs.get(d, 0))
    return result


deep_polys = st.dictionaries(
    st.integers(min_value=0, max_value=30), wide_fractions, max_size=8
).map(UniPoly)
scalars = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=5), big_fractions)


@settings(max_examples=80, deadline=None)
@given(deep_polys, st.one_of(st.just(Fraction(1)), scalars),
       st.one_of(st.just(Fraction(0)), scalars))
@example(UniPoly.zero(), Fraction(2), Fraction(1))
@example(UniPoly.zero(), Fraction(-1, 2), Fraction(0))
@example(UniPoly({0: 1, 7: -2, 30: Fraction(1, 3)}), Fraction(-2, 3), Fraction(-5, 2))
@example(UniPoly({3: 1, 30: 1}), Fraction(1), Fraction(0))
@example(UniPoly({0: 4, 2: -1}), Fraction(0), Fraction(3, 2))
def test_compose_linear_matches_horner(f, a, b):
    assert f.compose_linear(a, b) == horner_compose(f, a, b)


# -- the integer kernel against the Fraction product loop ----------------

def fraction_mul_reference(f, g):
    """The product loop on ``Fraction`` coefficients, one key addition per type."""
    data = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            k = k1 + k2 if isinstance(f, UniPoly) else (k1[0] + k2[0], k1[1] + k2[1])
            v = data.get(k, Fraction(0)) + c1 * c2
            if v:
                data[k] = v
            else:
                del data[k]
    return type(f)(data)


def assert_normalized(f):
    for c in f.coeffs.values():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def assert_matches_reference(f, g):
    product = f * g
    expected = fraction_mul_reference(f, g)
    assert product == expected
    assert list(product.coeffs) == list(expected.coeffs)  # numrep sums floats in this order
    assert_normalized(product)


exponents = st.integers(min_value=0, max_value=60)
sparse_polys = st.dictionaries(exponents, wide_fractions, max_size=6).map(UniPoly)
sparse_pair_polys = st.dictionaries(
    st.tuples(exponents, exponents), wide_fractions, max_size=6).map(PairPoly)
ZP, ZM = PairPoly.monomial(1, 0), PairPoly.monomial(0, 1)


@settings(max_examples=150, deadline=None)
@given(sparse_polys, sparse_polys)
@example(UniPoly.zero(), UniPoly({0: Fraction(2**255, 3), 60: 1}))
@example(UniPoly({0: 1, 1: 1}), UniPoly({0: 1, 1: -1}))
@example(UniPoly({0: 1, 1: 1, 2: 1}), UniPoly({2: 1, 1: -1, 0: 2}))  # z^2 cancels, returns
@example(UniPoly({0: Fraction(1, 2**256), 2: Fraction(-3, 7)}),
         UniPoly({0: Fraction(2**256, 5), 2: Fraction(7, 3)}))
def test_unipoly_product_matches_fraction_loop(f, g):
    assert_matches_reference(f, g)
    assert_matches_reference(f, f - g)


@settings(max_examples=150, deadline=None)
@given(sparse_pair_polys, sparse_pair_polys)
@example(PairPoly.zero(), PairPoly({(60, 0): Fraction(-1, 2**256)}))
@example(ZP - ZM, ZP + ZM)
@example(PairPoly({(0, 0): 1, (1, 1): 1, (2, 2): 1}), PairPoly({(2, 2): 1, (1, 1): -1, (0, 0): 2}))
def test_pairpoly_product_matches_fraction_loop(f, g):
    assert_matches_reference(f, g)
    assert_matches_reference(f, f - g)


def test_products_that_cancel_to_zero():
    one, z = UniPoly.one(), UniPoly.gen()
    assert (one + z) * (one - z) - (one - z * z) == UniPoly.zero()
    assert (one + z) * (one - z) == UniPoly({0: 1, 2: -1})
    assert (ZP - ZM) * (ZP + ZM) == ZP * ZP - ZM * ZM
    assert (ZP - ZM) * (ZP + ZM) - (ZP * ZP - ZM * ZM) == PairPoly.zero()
    tiny = Fraction(1, 2**256)
    assert UniPoly({3: tiny}) * UniPoly.zero() == UniPoly.zero()
    assert (UniPoly({0: tiny, 5: 1}) * UniPoly({0: tiny, 5: -1})).coeffs == {
        0: tiny * tiny, 10: Fraction(-1)}


# -- sympy as an independent oracle -------------------------------------

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, f: UniPoly):
    terms = {(d,): sympy.Rational(c.numerator, c.denominator) for d, c in f.coeffs.items()}
    return sympy.Poly.from_dict(terms, sympy.Symbol("z"), domain="QQ")


def from_sympy(g) -> UniPoly:
    return UniPoly({d: Fraction(int(c.p), int(c.q)) for (d,), c in g.as_dict().items()})


@settings(max_examples=60, deadline=None)
@given(f=deep_polys, a=scalars, b=scalars)
def test_compose_linear_matches_sympy(sympy, f, a, b):
    line = to_sympy(sympy, UniPoly({1: a, 0: b}))
    assert f.compose_linear(a, b) == from_sympy(to_sympy(sympy, f).compose(line))


@settings(max_examples=60, deadline=None)
@given(num=deep_polys, den=polys.filter(bool))
def test_poly_divmod_matches_sympy(sympy, num, den):
    quo, rem = sympy.div(to_sympy(sympy, num), to_sympy(sympy, den))
    assert poly_divmod(num, den) == (from_sympy(quo), from_sympy(rem))


# -- the two-variable base ring ----------------------------------------

def test_pairpoly_diagonal_roundtrip():
    f = UniPoly({0: 2, 3: Fraction(-1, 5)})
    assert PairPoly.diagonal(f).as_diagonal() == f
    with pytest.raises(ValueError):
        PairPoly.monomial(2, 1).as_diagonal()


def test_pairpoly_twist_and_str():
    m = PairPoly.monomial(2, 1, 3)
    assert m.twist(2, Fraction(1, 2)) == PairPoly.monomial(2, 1, 6)
    assert str(m) == "3*zp^2*zm"
    assert str(PairPoly.one()) == "1"


def test_pairpoly_products_commute():
    a = PairPoly({(1, 0): 1, (0, 2): -2})
    b = PairPoly({(0, 1): Fraction(1, 3), (2, 2): 1})
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
