from fractions import Fraction
from random import Random

import pytest

from weylbundles.ambient import AmbientAlgebra, embed_degree_zero, project_degree_zero
from weylbundles.config import PRESETS, preset
from weylbundles.gwa import AlgebraMismatch, GwaAlgebra
from weylbundles.poly import PairPoly, UniPoly
from weylbundles.sampling import random_gwa_elem, random_homogeneous_amb

from drawn_configs import random_amb_elem


def test_construction_requires_zero_root():
    with pytest.raises(ValueError):
        AmbientAlgebra(UniPoly({0: 1, 1: -1}), 2, 2)


def test_defining_relations(sphere_amb):
    amb = sphere_amb
    xp, xm, zp, zm = amb.x_plus(), amb.x_minus(), amb.z_plus(), amb.z_minus()
    assert zp * zm == zm * zp
    assert xp * xm == amb.from_z_poly(amb.p_reduced)
    assert xm * xp == amb.from_z_poly(amb.p_reduced.compose_linear(amb.q, 0))
    assert xp * zp == zp * xp * Fraction(1, 2)
    assert xm * zm == zm * xm * 2


def test_connection_identity_for_sphere(sphere_amb):
    amb = sphere_amb
    lhs = amb.x_minus() * amb.x_plus() + amb.z_minus() * amb.z_plus() * 4
    assert lhs == amb.one()


def degree_split(e) -> dict:
    """The homogeneous components of e keyed by degree: the reference for
    ``degree`` and ``is_homogeneous``, read off each key (m, a, b) as -mk + a - b."""
    k, parts = e.alg.k, {}
    for (m, a, b), c in e.monomials().items():
        parts.setdefault(-m * k + a - b, e.alg.zero())
        parts[-m * k + a - b] += e.alg.basis_elem(m, a, b, c)
    return parts


def test_degree_examples(sphere_amb):
    amb = sphere_amb                                          # k = 1
    zero = amb.zero()
    assert zero.degree() is None
    assert zero.is_homogeneous() and zero.is_homogeneous(5)
    assert (amb.z_plus() * amb.z_minus()).degree() == 0
    assert amb.x_minus().degree() == -1
    e = amb.x_minus() * amb.z_plus() ** 2
    assert e.degree() == 1 and e.is_homogeneous(1) and e.is_homogeneous()
    assert not e.is_homogeneous(0) and not e.is_homogeneous(-1)
    assert (amb.z_plus() + amb.x_plus()).degree() == 1
    mixed = amb.z_plus() + amb.x_minus()
    with pytest.raises(ValueError, match=r"degrees \[-1, 1\]"):
        mixed.degree()
    assert not mixed.is_homogeneous()
    assert not mixed.is_homogeneous(1) and not mixed.is_homogeneous(-1)


def test_degree_respects_products(kleinian):
    amb = kleinian.ambient_algebra()
    rng = Random(4)
    for _ in range(30):
        a = random_amb_elem(amb, rng)
        b = random_amb_elem(amb, rng)
        product_split = degree_split(a * b)
        expected: dict = {}
        for d1, c1 in degree_split(a).items():
            for d2, c2 in degree_split(b).items():
                term = c1 * c2
                if term:
                    expected[d1 + d2] = expected.get(d1 + d2, amb.zero()) + term
        assert {d: e for d, e in expected.items() if e} == product_split


@pytest.mark.parametrize("amb", [preset("kleinian-demo").ambient_algebra(),
                                 preset("lens(3,2,1/2)").ambient_algebra()],
                         ids=["kleinian-demo", "lens(3,2,1/2)"])
def test_degree_matches_the_split(amb):
    rng = Random(9)
    monomials = [amb.basis_elem(m, a, b) for m in range(-2, 3) for a in range(3)
                 for b in range(3)]
    for _ in range(40):
        draws = [random_amb_elem(amb, rng) for _ in range(2)] + rng.sample(monomials, 2)
        for e in (*draws, draws[0] + draws[2], draws[2] * draws[3], draws[2] + draws[3],
                  draws[0] * draws[2], draws[2] * draws[3] * draws[1]):
            split = degree_split(e)
            if len(split) > 1:
                with pytest.raises(ValueError):
                    e.degree()
                assert not e.is_homogeneous()
            else:
                assert e.degree() == next(iter(split), None)
                assert e.is_homogeneous()
            for d in range(-16, 17):
                assert e.is_homogeneous(d) == (set(split) <= {d})


def test_associativity_random(any_preset):
    amb = any_preset.ambient_algebra()
    rng = Random(5)
    for _ in range(35):
        a, b, c = (random_amb_elem(amb, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_embed_generators(sphere_amb):
    amb = sphere_amb
    gwa = amb.gwa()
    assert embed_degree_zero(amb, gwa.z()) == amb.z_plus() * amb.z_minus()
    assert embed_degree_zero(amb, gwa.one()) == amb.one()
    assert embed_degree_zero(amb, gwa.x()) == amb.x_minus() * amb.z_plus()
    assert embed_degree_zero(amb, gwa.y()) == amb.z_minus() * amb.x_plus()


def test_embed_is_homomorphism(any_preset):
    amb = any_preset.ambient_algebra()
    gwa = amb.gwa()
    assert embed_degree_zero(amb, gwa.y() * gwa.x()) == embed_degree_zero(
        amb, gwa.y()
    ) * embed_degree_zero(amb, gwa.x())
    rng = Random(6)
    for _ in range(25):
        a = random_gwa_elem(gwa, rng)
        b = random_gwa_elem(gwa, rng)
        assert embed_degree_zero(amb, a * b) == (
            embed_degree_zero(amb, a) * embed_degree_zero(amb, b)
        )


def test_embed_rejects_wrong_source(sphere_amb):
    bad = GwaAlgebra(sphere_amb.p, sphere_amb.q, Fraction(1, 2))
    with pytest.raises(AlgebraMismatch):
        embed_degree_zero(sphere_amb, bad.x())
    other_q = GwaAlgebra(sphere_amb.p, Fraction(5), Fraction(0))
    with pytest.raises(AlgebraMismatch):
        embed_degree_zero(sphere_amb, other_q.x())


def test_project_examples(sphere_amb):
    amb = sphere_amb
    gwa = amb.gwa()
    assert project_degree_zero(amb, amb.z_plus() * amb.z_minus()) == gwa.z()
    e = amb.basis_elem(1, 2, 1)                      # xm zp^2 zm, degree 0
    assert project_degree_zero(amb, e) == gwa.x() * gwa.z()


def test_project_rejects_nonzero_degree(sphere_amb):
    with pytest.raises(ValueError):
        project_degree_zero(sphere_amb, sphere_amb.z_plus())


def test_roundtrips(any_preset):
    amb = any_preset.ambient_algebra()
    gwa = amb.gwa()
    rng = Random(7)
    for _ in range(20):
        a = random_gwa_elem(gwa, rng)
        assert project_degree_zero(amb, embed_degree_zero(amb, a)) == a
        h = random_homogeneous_amb(amb, rng, 0)
        assert embed_degree_zero(amb, project_degree_zero(amb, h)) == h


def product_embed(amb, e):
    """The degree-zero identification built from ambient products: the reference."""
    x_img = amb.elem({1: PairPoly.monomial(amb.k, 0)})
    y_img = amb.from_pair(PairPoly.monomial(0, amb.k)) * amb.x_plus()
    out = amb.zero()
    for m, f in e.terms.items():
        block = x_img**m if m >= 0 else y_img ** (-m)
        out = out + block * amb.from_z_poly(f)
    return out


# only q+ != q- can expose q+ and q- swapped: sphere and lens have q+ = q-
ASYMMETRIC = AmbientAlgebra(UniPoly({2: 1, 3: -1}), 2, Fraction(-1, 3))


@pytest.mark.parametrize("amb", [*(preset(name).ambient_algebra() for name in PRESETS),
                                 ASYMMETRIC], ids=[*PRESETS, "asymmetric"])
def test_closed_form_matches_product_reference(amb):
    gwa = amb.gwa()
    rng = Random(8)
    elems = [gwa.monomial(m, f) for m in range(-6, 7)
             for f in (UniPoly.one(), UniPoly({0: 2, 3: Fraction(-1, 5)}))]
    elems += [random_gwa_elem(gwa, rng) for _ in range(10)]
    for e in elems:
        image = product_embed(amb, e)
        assert embed_degree_zero(amb, e) == image
        assert project_degree_zero(amb, image) == e


def test_printing(sphere_amb):
    e = sphere_amb.basis_elem(1, 2, 1)
    assert str(e) == "xm*(zp^2*zm)"
    assert str(sphere_amb.x_plus()) == "xp*(1)"
    assert str(sphere_amb.basis_elem(-2, 0, 1) + sphere_amb.x_minus()) == "xm*(1) + xp^2*(zm)"
