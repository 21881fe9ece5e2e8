from fractions import Fraction

import pytest

from weylbundles.config import PRESETS, preset
from weylbundles.grading import (
    MAX_SIZE_BOUND,
    CompositionError,
    Witness,
    _combine_into_unit,
    ambient_graded_view,
    compose_witnesses,
    induced_quotient_view,
    veronese_view,
    witness_search,
)


def view_of(name):
    return ambient_graded_view(preset(name).ambient_algebra())


BIDEGREE_PRESETS = PRESETS + ("lens(3,2,1/2)",)


def key_bidegree(key):
    """(m, a - b) of the monomial key (m, a, b), read off independently of the view."""
    m, a, b = key
    return m, a - b


def mono_bidegree(e):
    (key,) = e.monomials()
    return key_bidegree(key)


def unpruned_found(view, g, bound) -> bool:
    """The search over every left x right pair: the reference for the pruned one."""
    g = view.normalize_degree(g)
    if g == 0:
        return True
    left = view.enumerate_basis(g, bound)
    right = view.enumerate_basis(view.normalize_degree(-g), bound)
    products = [view.multiply(a, b).monomials() for a in left for b in right]
    return _combine_into_unit(products, (0, 0, 0)) is not None


@pytest.mark.parametrize("name", BIDEGREE_PRESETS)
def test_products_carry_the_summed_bidegree(name):
    amb = preset(name).ambient_algebra()
    basis = [amb.basis_elem(m, a, b)
             for m in range(-3, 4) for a in range(4) for b in range(4)
             if abs(m) + a + b <= 3]
    for x in basis:
        for y in basis:
            m, d = mono_bidegree(x)
            n, f = mono_bidegree(y)
            keys = (x * y).monomials()
            assert keys and {key_bidegree(key) for key in keys} == {(m + n, d + f)}


def bucketed_pairs(view, g, bound):
    """The pairs of opposite bidegree, found by bucketing the whole degree -g basis."""
    partners = {}
    for b in view.enumerate_basis(view.normalize_degree(-g), bound):
        m, d = mono_bidegree(b)
        partners.setdefault((-m, -d), []).append(b)
    return [(a, b) for a in view.enumerate_basis(g, bound)
            for b in partners.get(mono_bidegree(a), ())]


@pytest.mark.parametrize("kind", ["plain", "mod k", "mod 3", "veronese k", "veronese 2"])
@pytest.mark.parametrize("name", BIDEGREE_PRESETS)
def test_partners_from_the_key_match_the_bucketed_basis(name, kind):
    amb = preset(name).ambient_algebra()
    view = ambient_graded_view(amb)
    view = {
        "plain": view,
        "mod k": induced_quotient_view(view, max(amb.k, 2)),
        "mod 3": induced_quotient_view(view, 3),
        "veronese k": veronese_view(view, amb.k),
        "veronese 2": veronese_view(view, 2),
    }[kind]
    for g in (1, -1, 2):
        if view.normalize_degree(g) == 0:
            continue  # the search answers degree 0 with the unit and pairs nothing
        for bound in (3, 6):
            pairs = bucketed_pairs(view, view.normalize_degree(g), bound)
            products = [view.multiply(a, b).monomials() for a, b in pairs]
            combo = _combine_into_unit(products, (0, 0, 0))
            expected = None if combo is None else Witness(tuple(
                (*pairs[idx], c) for idx, c in sorted(combo.items()))).to_json()
            found = witness_search(view, g, bound)
            assert (found and found.to_json()) == expected, (g, bound)


@pytest.mark.parametrize("kind", ["plain", "quotient", "veronese"])
@pytest.mark.parametrize("name", BIDEGREE_PRESETS)
def test_bidegree_pruning_keeps_the_verdict(name, kind):
    amb = preset(name).ambient_algebra()
    view = ambient_graded_view(amb)
    if kind == "quotient":
        view = induced_quotient_view(view, max(amb.k, 2))
    elif kind == "veronese":
        view = veronese_view(view, amb.k)
    for g in (1, -1, 2):
        for bound in (3, 6):
            w = witness_search(view, g, bound)
            assert (w is not None) == unpruned_found(view, g, bound), (g, bound)
            if w is not None:
                assert w.check(view)
                for a, b, _ in w.pairs:
                    (m, d), (n, f) = mono_bidegree(a), mono_bidegree(b)
                    assert (m + n, d + f) == (0, 0)


@pytest.mark.parametrize("bound", [0, MAX_SIZE_BOUND + 1, 10**9])
def test_size_bound_outside_the_range_is_rejected(sphere_amb, bound):
    with pytest.raises(ValueError, match=f"in \\[1, {MAX_SIZE_BOUND}\\]"):
        witness_search(ambient_graded_view(sphere_amb), 1, bound)


def test_identity_degree_gives_unit_witness(sphere_amb):
    view = ambient_graded_view(sphere_amb)
    w = witness_search(view, 0, 1)
    assert w.pairs == ((sphere_amb.one(), sphere_amb.one(), Fraction(1)),)
    assert w.check(view)


def test_sphere_degree_one_witness_matches_connection_legs(sphere_amb):
    view = ambient_graded_view(sphere_amb)
    w = witness_search(view, 1, 2)
    assert w is not None and w.check(view)
    monos = {
        (next(iter(a.monomials())), next(iter(b.monomials()))): c
        for a, b, c in w.pairs
    }
    # z+ * z- + x+ * x- = z + (1 - z) = 1
    assert monos == {
        ((0, 1, 0), (0, 0, 1)): Fraction(1),
        ((-1, 0, 0), (1, 0, 0)): Fraction(1),
    }


def test_sphere_higher_degree_witness_exists(sphere_amb):
    # k = 1 keeps the whole grading strong, so every degree has a witness
    view = ambient_graded_view(sphere_amb)
    w = witness_search(view, 2, 2)
    assert w is not None and w.check(view)


def test_no_witness_cases():
    view = view_of("lens(2,1,2)")
    assert witness_search(view, 1, 2) is None        # products never reach 1
    assert witness_search(view, 25, 2) is None       # nothing of that degree


def test_enumeration_is_deterministic_and_bounded(sphere_amb):
    view = ambient_graded_view(sphere_amb)
    basis = view.enumerate_basis(1, 3)
    assert basis == view.enumerate_basis(1, 3)
    for e in basis:
        (m, a, b), = e.monomials()
        assert abs(m) + a + b <= 3 and view.degree_of(e) == 1


def test_monotone_in_bound():
    view = view_of("lens(2,1,2)")
    strong = veronese_view(view, 2)
    for bound in (4, 6):
        w = witness_search(strong, 1, bound)
        assert w is not None and w.check(strong)


def test_ambient_not_strong_for_repeated_zero_root():
    view = view_of("lens(2,1,2)")
    assert witness_search(view, 1, 6) is None
    assert witness_search(view, -1, 6) is None


def test_quotient_view_classes():
    amb = preset("lens(2,1,2)").ambient_algebra()
    view = ambient_graded_view(amb)
    quotient = induced_quotient_view(view, 2)
    zp = amb.z_plus()
    tall = amb.basis_elem(1, 3, 0)            # xm zp^3, degree -2 + 3 = 1
    assert quotient.degree_of(zp) == 1
    assert quotient.degree_of(tall) == 1
    basis = quotient.enumerate_basis(1, 4)
    assert any(e == zp for e in basis) and any(e == tall for e in basis)
    assert witness_search(quotient, 1, 4) is None


def test_quotient_k1_puts_everything_in_degree_zero(sphere_amb):
    quotient = induced_quotient_view(ambient_graded_view(sphere_amb), 1)
    assert quotient.degree_of(sphere_amb.z_plus()) == 0
    w = witness_search(quotient, 0, 1)
    assert w.check(quotient)


def test_veronese_view_properties():
    amb = preset("lens(2,1,2)").ambient_algebra()
    base = ambient_graded_view(amb)
    strong = veronese_view(base, amb.k)
    assert veronese_view(base, 1).enumerate_basis(1, 2) == base.enumerate_basis(1, 2)
    assert strong.enumerate_basis(0, 3) == base.enumerate_basis(0, 3)
    w = witness_search(strong, 1, 4)
    assert w is not None and w.check(strong)
    assert all(strong.degree_of(a) == 1 and strong.degree_of(b) == -1
               for a, b, _ in w.pairs)


def test_witness_reverification_is_independent(sphere_amb):
    view = ambient_graded_view(sphere_amb)
    w = witness_search(view, 1, 2)
    broken = Witness(tuple((a, b, c * 2) for a, b, c in w.pairs))
    assert not broken.check(view)


def test_compose_witnesses_trivial_and_errors(sphere_amb):
    base = ambient_graded_view(sphere_amb)
    assert compose_witnesses({}, {}, 0, view=base, k=2).check(base)
    with pytest.raises(CompositionError, match="class 1"):
        compose_witnesses({}, {}, 1, view=base, k=2)
    quotient = induced_quotient_view(base, 2)
    class_w = witness_search(quotient, 1, 2)
    needed = {-(base.degree_of(a) - 1) // 2 for a, _, _ in class_w.pairs} - {0}
    if needed:
        with pytest.raises(CompositionError, match="degree"):
            compose_witnesses({1: class_w}, {}, 1, view=base, k=2)


@pytest.mark.parametrize("make,message", [
    (lambda base: veronese_view(base, 2).degree_of(base.amb.z_plus()),
     "degree 1 is not divisible by 2"),
    (lambda base: induced_quotient_view(induced_quotient_view(base, 2), 3),
     "only integer gradings can be reduced mod k"),
    (lambda base: veronese_view(induced_quotient_view(base, 2), 2),
     "only integer gradings have Veronese subalgebras"),
    (lambda base: compose_witnesses({}, {}, 1, view=induced_quotient_view(base, 2), k=2),
     "composition needs the integer-graded base view"),
    (lambda base: compose_witnesses({1: Witness(((base.amb.one(), base.amb.one(), 1),))},
                                    {}, 1, view=base, k=2),
     "witness element of degree 0 is not in class 1"),
], ids=["step", "quotient-of-quotient", "veronese-of-quotient", "compose-on-quotient",
        "class-mismatch"])
def test_views_reject_what_they_do_not_grade(sphere_amb, make, message):
    with pytest.raises(ValueError, match=message):
        make(ambient_graded_view(sphere_amb))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_compose_witnesses_chain_on_sphere(sphere_amb, g):
    base = ambient_graded_view(sphere_amb)       # strongly graded (k = 1)
    quotient = induced_quotient_view(base, 2)
    halved = veronese_view(base, 2)
    class_w = witness_search(quotient, g % 2, 3)
    assert class_w is not None
    needed = sorted({-(base.degree_of(a) - g) // 2
                     for a, _, _ in class_w.pairs} - {0})
    sub = {}
    for c in needed:
        w = witness_search(halved, c, 6)
        assert w is not None, f"no witness in halved degree {c}"
        sub[c] = w
    composed = compose_witnesses({g % 2: class_w}, sub, g, view=base, k=2)
    assert composed.check(base)
    assert all(base.degree_of(a) == g for a, _, _ in composed.pairs)


def test_witness_json(sphere_amb):
    view = ambient_graded_view(sphere_amb)
    data = witness_search(view, 1, 2).to_json()
    assert all(len(entry) == 3 for entry in data)
    assert ["(zp)", "(zm)", "1"] in data
