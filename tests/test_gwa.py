from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbundles.acceptance import _gwa_rules, _oracle_mismatches
from weylbundles.gwa import AlgebraMismatch, GwaAlgebra, commutator_closed_form
from weylbundles.poly import UniPoly, auto_shift_product
from weylbundles.sampling import random_gwa_elem

from drawn_configs import gwa_algebras

P_SPHERE = UniPoly({1: 1, 2: -1})    # z(1 - z)


def commutator(a, b):
    return a * b - b * a


@pytest.fixture
def alg():
    return GwaAlgebra(P_SPHERE, Fraction(4), Fraction(0))


@pytest.fixture
def alg_shifted():
    return GwaAlgebra(P_SPHERE, Fraction(3), Fraction(1, 2))


def test_defining_relations(alg):
    x, y, z = alg.x(), alg.y(), alg.z()
    assert y * x == alg.from_poly(alg.p)
    assert x * y == alg.from_poly(alg.sigma.apply(1, alg.p))
    assert x * z == alg.monomial(1, UniPoly({1: 1}))            # x z is basic
    assert z * x == alg.monomial(1, UniPoly({1: Fraction(1, 4)}))
    assert z * y == alg.monomial(-1, UniPoly({1: 4}))


def test_add_examples(alg):
    f, g = UniPoly({0: 1}), UniPoly({1: 2})
    assert alg.monomial(1, f) + alg.monomial(1, g) == alg.monomial(1, f + g)
    a = random_gwa_elem(alg, Random(1))
    assert a + alg.zero() == a
    assert (alg.x() + alg.y()).terms == {1: UniPoly.one(), -1: UniPoly.one()}


def test_one_is_two_sided_unit(alg):
    rng = Random(2)
    for _ in range(10):
        a = random_gwa_elem(alg, rng)
        assert alg.one() * a == a
        assert a * alg.one() == a


@pytest.mark.parametrize("n", range(5))
def test_pair_powers_match_shift_products(alg, alg_shifted, n):
    for a in (alg, alg_shifted):
        s = auto_shift_product(a.p, a.sigma, n)
        assert a.y() ** n * a.x() ** n == a.from_poly(s)
        assert a.x() ** n * a.y() ** n == a.from_poly(a.sigma.apply(n, s))


def test_mixed_blocks_reduce_to_single_sign(alg_shifted):
    # min(a, b) pair annihilations leave a single-signed block
    for a in range(4):
        for b in range(4):
            prod = alg_shifted.x() ** a * alg_shifted.y() ** b
            assert set(prod.terms) == {a - b}


def test_associativity_random(alg, alg_shifted):
    rng = Random(3)
    for i in range(60):
        algebra = alg if i % 2 else alg_shifted
        a, b, c = (random_gwa_elem(algebra, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(gwa_algebras())
def test_drawn_algebras_match_free_word_oracle(alg):
    # every word of length <= 4 in x, y, z, against naive single-relation rewriting
    mismatches, total = _oracle_mismatches(
        alg, {"x": alg.x(), "y": alg.y(), "z": alg.z()}, _gwa_rules(alg),
        lambda w, c: alg.monomial(w.count("x") - w.count("y"), UniPoly({w.count("z"): c})),
        4)
    assert (mismatches, total) == (0, 3 + 9 + 27 + 81)


@settings(max_examples=40, deadline=None)
@given(gwa_algebras(), st.integers(0, 2**32))
def test_drawn_algebras_associative(alg, seed):
    rng = Random(seed)
    for _ in range(5):
        a, b, c = (random_gwa_elem(alg, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_mismatched_algebras_raise(alg, alg_shifted):
    with pytest.raises(AlgebraMismatch):
        alg.x() * alg_shifted.x()
    with pytest.raises(AlgebraMismatch):
        alg.x() + alg_shifted.x()


def test_commutator_examples(alg):
    z = alg.z()
    assert commutator(z, z * z).is_zero()
    expected = alg.from_poly(alg.sigma.apply(1, alg.p) - alg.p)
    assert commutator(alg.x(), alg.y()) == expected


def test_commutator_closed_form_examples(alg):
    assert commutator_closed_form(alg, 0, 2, 1).is_zero()
    # n=1, k=l=0: p(4z) - p(z)
    expected = alg.from_poly(alg.sigma.apply(1, alg.p) - alg.p)
    assert commutator_closed_form(alg, 1, 0, 0) == expected


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("l", range(4))
def test_commutator_closed_form_matches_engine(alg_shifted, n, k, l):
    a = alg_shifted.x() ** n * alg_shifted.from_poly(UniPoly({k: 1}))   # x^n z^k
    b = alg_shifted.from_poly(UniPoly({l: 1})) * alg_shifted.y() ** n   # z^l y^n
    assert commutator(a, b) == commutator_closed_form(alg_shifted, n, k, l)


@pytest.mark.parametrize("make,message", [
    (lambda alg: alg.x() ** -1, "negative power in the algebra"),
    (lambda alg: commutator_closed_form(alg, 1, -1, 0), "n, k, l must be >= 0"),
], ids=["power", "closed-form"])
def test_negative_arguments_are_rejected(alg, make, message):
    with pytest.raises(ValueError, match=message):
        make(alg)


def test_printing_canonical(alg):
    e = alg.monomial(2, UniPoly({0: 1, 1: -1})) + alg.from_scalar(Fraction(3, 2)) \
        + alg.monomial(-1, UniPoly({2: 1}))
    assert str(e) == "x^2*(1 - z) + (3/2) + y*(z^2)"
    assert str(alg.x() + alg.monomial(-2, UniPoly({1: 3}))) == "x*(1) + y^2*(3*z)"
    assert str(alg.zero()) == "0"
