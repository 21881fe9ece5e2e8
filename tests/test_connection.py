from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbundles.ambient import AmbientAlgebra, embed_degree_zero, project_degree_zero
from weylbundles.connection import (
    MAX_IDEMPOTENT_LEVEL,
    MAX_LEVEL,
    Tensor2,
    check_connection,
    connection_power,
    connection_power_alt,
    idempotent,
    idempotent_trace,
    idempotent_trace_recursive,
    lowering_connection,
    raising_connection,
    unit_in_degree,
)
from weylbundles.config import PRESETS, preset
from weylbundles.gwa import AlgebraMismatch, GwaElem
from weylbundles.poly import UniPoly, poly_divmod
from weylbundles.sampling import random_gwa_elem, random_homogeneous_amb

from drawn_configs import ambient_configs


def row_times(row, mat):
    """The row vector ``row`` times the idempotent ``mat``."""
    return [sum((row[i] * mat.entries[i][j] for i in range(1, mat.size)),
                row[0] * mat.entries[0][j])
            for j in range(mat.size)]


def diagonal_sum(mat):
    return sum((mat.entries[i][i] for i in range(1, mat.size)), mat.entries[0][0])


def module_row(amb, n, a):
    """Row vector presenting a level-n homogeneous element ``a`` over B.

    Component j is the sum over i of (a * left_i) * E_ij; right-multiplying
    the row by the idempotent leaves it fixed.
    """
    if a.alg != amb:
        raise AlgebraMismatch("element does not live in the graded algebra")
    if a.degree() not in (None, n * amb.k):
        raise ValueError(f"element has degree {a.degree()}, expected {n * amb.k}")
    mat = idempotent(amb, n)  # checks the level cap before any product
    coeffs = [project_degree_zero(amb, a * left) for left, _ in connection_power(amb, n).pairs]
    return row_times(coeffs, mat)


def test_lowering_connection_sphere(sphere_amb):
    amb = sphere_amb
    expected = Tensor2(
        amb,
        ((amb.z_minus() * 4, amb.z_plus()), (amb.x_minus(), amb.x_plus())),
        (-1, 1),
    )
    assert lowering_connection(amb) == expected
    assert check_connection(expected)


def test_raising_connection_sphere(sphere_amb):
    amb = sphere_amb
    expected = Tensor2(
        amb,
        ((amb.z_plus(), amb.z_minus()), (amb.x_plus(), amb.x_minus())),
        (1, -1),
    )
    assert raising_connection(amb) == expected


def test_raising_connection_degenerate():
    amb = AmbientAlgebra(UniPoly({2: 1}), 2, 2)       # p = z^2, tail = 0
    t = raising_connection(amb)
    assert t == Tensor2(amb, ((amb.x_plus(), amb.x_minus()),), (1, -1))
    assert check_connection(t)


def test_leg_degrees(any_preset):
    amb = any_preset.ambient_algebra()
    t = lowering_connection(amb)
    for left, right in t.pairs:
        assert left.degree() == -amb.k
        assert right.degree() == amb.k


def test_connection_power_base_cases(sphere_amb):
    amb = sphere_amb
    t0 = connection_power(amb, 0)
    assert t0.pairs == ((amb.one(), amb.one()),)
    assert connection_power(amb, 1) == lowering_connection(amb)
    assert connection_power(amb, -1) == raising_connection(amb)


@pytest.mark.parametrize("n", range(-3, 4))
def test_connection_power_checks_and_agreement(any_preset, n):
    amb = any_preset.ambient_algebra()
    t = connection_power(amb, n)
    assert len(t.pairs) == 2 ** abs(n)
    assert check_connection(t)
    assert t == connection_power_alt(amb, n)


@settings(max_examples=100, deadline=None)
@given(ambient_configs(), st.integers(-3, 3))
def test_drawn_configs_connections(config, n):
    amb, roots = config
    t = connection_power(amb, n)
    # at p = c z^k the tail h is 0 and one leg of each level-one tensor vanishes
    assert len(t.pairs) == (2 ** abs(n) if roots else 1)
    assert check_connection(t)
    assert t == connection_power_alt(amb, n)
    for left, right in t.pairs:
        assert left.degree() == -n * amb.k and right.degree() == n * amb.k


@settings(max_examples=60, deadline=None)
@given(ambient_configs(), st.integers(-2, 2))
def test_drawn_configs_idempotents(config, n):
    amb, roots = config
    e = idempotent(amb, n)
    assert e.size == (2 ** abs(n) if roots else 1)
    assert e.is_idempotent()


def test_level_cap():
    amb = AmbientAlgebra(UniPoly({1: 1, 2: -1}), 2, 2)
    for n in (MAX_LEVEL + 1, -MAX_LEVEL - 1):
        with pytest.raises(ValueError, match=f"level {n} needs 2\\^{MAX_LEVEL + 1} tensor pairs"):
            connection_power(amb, n)
        with pytest.raises(ValueError, match=f"the cap is \\|n\\| <= {MAX_LEVEL}"):
            connection_power_alt(amb, n)
    assert len(connection_power(amb, MAX_LEVEL).pairs) == 2**MAX_LEVEL


def test_idempotent_level_cap_before_any_product(sphere_amb, monkeypatch):
    amb = sphere_amb
    n = MAX_IDEMPOTENT_LEVEL + 1
    a = amb.z_plus() ** (n * amb.k)

    def no_product(*args):
        raise AssertionError("a product was formed before the level cap was checked")

    monkeypatch.setattr(GwaElem, "__mul__", no_product)
    match = f"the cap is \\|n\\| <= {MAX_IDEMPOTENT_LEVEL}"
    with pytest.raises(ValueError, match=match):
        idempotent(amb, n)
    with pytest.raises(ValueError, match=match):
        idempotent(amb, -n)
    with pytest.raises(ValueError, match=match):
        module_row(amb, n, a)


def test_check_connection_counterexample(sphere_amb):
    amb = sphere_amb
    bad = Tensor2(amb, ((amb.z_plus(), amb.z_minus()),), (1, -1))
    assert not check_connection(bad)


def test_idempotent_matrix_sphere(sphere_amb):
    amb = sphere_amb
    gwa = amb.gwa()
    mat = idempotent(amb, 1)
    assert mat.size == 2
    assert mat.entries[0][0] == gwa.from_poly(UniPoly({1: 4}))
    assert mat.entries[0][1] == gwa.monomial(1, UniPoly.constant(Fraction(1, 2)))
    assert mat.entries[1][0] == gwa.monomial(-1, UniPoly.constant(2))
    assert mat.entries[1][1] == gwa.from_poly(UniPoly({0: 1, 1: -1}))
    assert mat.is_idempotent()
    assert diagonal_sum(mat) == gwa.from_poly(UniPoly({0: 1, 1: 3}))


def test_idempotent_level_zero(sphere_amb):
    mat = idempotent(sphere_amb, 0)
    assert mat.size == 1
    assert mat.entries[0][0] == sphere_amb.gwa().one()


@pytest.mark.parametrize("n", [-2, 2])
def test_idempotent_squares(any_preset, n):
    amb = any_preset.ambient_algebra()
    mat = idempotent(amb, n)
    assert mat.size == 2 ** abs(n)
    assert mat.is_idempotent()


def test_idempotent_json(sphere_amb):
    data = idempotent(sphere_amb, 1).to_json()
    assert data["n"] == 1 and data["size"] == 2
    assert data["entries"][0] == ["(4*z)", "x*(1/2)"]


def test_trace_examples(sphere_amb):
    assert idempotent_trace(sphere_amb, 1) == UniPoly({0: 1, 1: 3})
    assert idempotent_trace(sphere_amb, 0) == UniPoly.one()
    assert idempotent_trace_recursive(sphere_amb, 1) == UniPoly({0: 1, 1: 3})


@pytest.mark.parametrize("n", range(1, 4))
def test_trace_oracle_agreement(any_preset, n):
    amb = any_preset.ambient_algebra()
    direct = idempotent_trace(amb, n)
    assert direct == idempotent_trace_recursive(amb, n)
    assert direct(0) == 1


def test_trace_matches_matrix_trace(kleinian):
    amb = kleinian.ambient_algebra()
    mat = idempotent(amb, 2)
    assert diagonal_sum(mat) == amb.gwa().from_poly(idempotent_trace(amb, 2))


def test_trace_recursive_needs_positive_level(sphere_amb):
    with pytest.raises(ValueError):
        idempotent_trace_recursive(sphere_amb, 0)


def test_module_row_unit(sphere_amb):
    assert module_row(sphere_amb, 0, sphere_amb.one()) == [sphere_amb.gwa().one()]


@pytest.mark.parametrize("n", [-2, -1, 1, 2])
def test_module_row_fixed_by_idempotent(any_preset, n):
    amb = any_preset.ambient_algebra()
    rng = Random(8)
    mat = idempotent(amb, n)
    for _ in range(3):
        a = random_homogeneous_amb(amb, rng, n * amb.k)
        row = module_row(amb, n, a)
        assert row_times(row, mat) == row


def test_module_row_left_linear(sphere_amb):
    amb = sphere_amb
    gwa = amb.gwa()
    rng = Random(9)
    for _ in range(3):
        a = random_homogeneous_amb(amb, rng, amb.k)
        b = random_gwa_elem(gwa, rng)
        lhs = module_row(amb, 1, embed_degree_zero(amb, b) * a)
        rhs = [b * entry for entry in module_row(amb, 1, a)]
        assert lhs == rhs


def test_module_row_degree_mismatch(sphere_amb):
    with pytest.raises(ValueError):
        module_row(sphere_amb, 1, sphere_amb.one())


def test_module_row_algebra_mismatch(sphere_amb, kleinian):
    other = kleinian.ambient_algebra()
    with pytest.raises(AlgebraMismatch):
        module_row(other, 0, sphere_amb.one())


@pytest.mark.parametrize("n", [-2, 1, 2])
def test_module_row_reconstructs_element(any_preset, n):
    # pairing the row back with the right legs recovers the element
    amb = any_preset.ambient_algebra()
    rng = Random(10)
    t = connection_power(amb, n)
    for _ in range(3):
        a = random_homogeneous_amb(amb, rng, n * amb.k)
        row = module_row(amb, n, a)
        rebuilt = amb.zero()
        for entry, (_, right) in zip(row, t.pairs):
            rebuilt = rebuilt + embed_degree_zero(amb, entry) * right
        assert rebuilt == a


@pytest.mark.parametrize("n", [1, 2])
def test_degenerate_free_module_witness(n):
    # with pt constant the level modules are free: the unit's inverse is
    # recovered as sum of left legs times the images of the right legs
    amb = AmbientAlgebra(UniPoly({2: 1}), 2, 2)
    u, u_inv = unit_in_degree(amb, n)
    t = connection_power(amb, n)
    recovered = amb.zero()
    for left, right in t.pairs:
        recovered = recovered + left * (right * u_inv)
    assert recovered == u_inv
    row = module_row(amb, n, u)
    rebuilt = amb.zero()
    for entry, (_, right) in zip(row, t.pairs):
        rebuilt = rebuilt + embed_degree_zero(amb, entry) * right
    assert rebuilt == u


def test_unit_in_degree_degenerate():
    amb = AmbientAlgebra(UniPoly({2: 1}), 2, 2)
    u, u_inv = unit_in_degree(amb, 1)
    assert u == amb.x_plus() and u_inv == amb.x_minus()
    for n in range(-3, 4):
        pair = unit_in_degree(amb, n)
        assert pair is not None
        u, u_inv = pair
        assert u * u_inv == amb.one() and u_inv * u == amb.one()
        if n:
            assert u.degree() == n * amb.k


def test_unit_in_degree_scaled_inverse():
    amb = AmbientAlgebra(UniPoly({1: 3}), 2, 2)       # p = 3z, tail constant 3
    u, u_inv = unit_in_degree(amb, 2)
    assert u == amb.x_plus() ** 2
    assert u_inv == amb.x_minus() ** 2 * Fraction(1, 9)


def test_unit_in_degree_generic_none(sphere_amb):
    assert unit_in_degree(sphere_amb, 1) is None
    assert unit_in_degree(sphere_amb, -2) is None
    assert unit_in_degree(sphere_amb, 0) is not None


# -- the recursive trace against its earlier two-polynomial form ----------

def trace_levels_reference(amb, top):
    """[e_1, ..., e_top] by the earlier form of the recursion, with c = pt(0)^k:

        e_1(z)     = (q^k h(qz)^k - h(z)^k) z^k / c + 1,
        e_{m+1}(z) = ((c - h(z)^k z^k) e_m(z/q)
                      - (c - q^k h(qz)^k z^k) e_m(z)) / c + e_m(z).
    """
    k = amb.k
    c = amb.p_reduced.constant_term**k
    h = amb.p_tail
    h_q = h.compose_linear(amb.q, 0)
    zk = UniPoly({k: 1})
    e = (h_q**k * amb.q**k - h**k) * zk * (1 / c) + UniPoly.one()
    low = UniPoly.constant(c) - h**k * zk
    high = UniPoly.constant(c) - h_q**k * zk * amb.q**k
    levels = [e]
    for _ in range(top - 1):
        e = (low * e.compose_linear(1 / amb.q, 0) - high * e) * (1 / c) + e
        levels.append(e)
    return levels


def ambient_from_roots(k, roots, q_plus, q_minus):
    """The ambient algebra of p = z^k * prod(1 - z/rho) over ``roots``."""
    p = UniPoly({k: 1})
    for rho in roots:
        p = p * UniPoly({0: 1, 1: -1 / Fraction(rho)})
    return AmbientAlgebra(p, q_plus, q_minus)


# q < 0, |q| < 1 and k in 1..3; the degree of e_40 stays at most 120
ORACLE_CONFIGS = {
    "k1-q-negative": (1, [2, Fraction(-1, 3)], -2, 3),
    "k2-q-below-one": (2, [-3], Fraction(1, 2), Fraction(1, 3)),
    "k3-q-negative-below-one": (3, [Fraction(1, 2)], Fraction(-2, 3), Fraction(1, 2)),
}


def oracle_ambient(name):
    if name in ORACLE_CONFIGS:
        return ambient_from_roots(*ORACLE_CONFIGS[name])
    return preset(name).ambient_algebra()


@pytest.mark.parametrize("name", [*PRESETS, *ORACLE_CONFIGS])
def test_trace_recursive_matches_reference_to_level_40(name):
    amb = oracle_ambient(name)
    for n, expected in enumerate(trace_levels_reference(amb, 40), 1):
        assert idempotent_trace_recursive(amb, n) == expected, n


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_recursive_is_one_without_tail(k):
    amb = AmbientAlgebra(UniPoly({k: Fraction(-5, 3)}), 2, Fraction(1, 3))  # p = c z^k, h = 0
    assert amb.p_tail == UniPoly.zero()
    for n, expected in enumerate(trace_levels_reference(amb, 40), 1):
        assert expected == UniPoly.one()
        assert idempotent_trace_recursive(amb, n) == UniPoly.one()


def test_trace_recursive_matches_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    for amb in map(oracle_ambient, [*PRESETS, *ORACLE_CONFIGS]):
        k, q = amb.k, sympy.Rational(amb.q.numerator, amb.q.denominator)
        c = sympy.Rational(amb.p_reduced.constant_term) ** k
        h = sum(sympy.Rational(v.numerator, v.denominator) * z**d
                for d, v in amb.p_tail.coeffs.items())
        low = c - h**k * z**k
        high = c - q**k * h.subs(z, q * z) ** k * z**k
        e = sympy.expand((q**k * h.subs(z, q * z) ** k - h**k) * z**k / c + 1)
        for n in range(1, 9):
            coeffs = sympy.Poly(e, z).as_dict()
            expected = UniPoly({d: Fraction(int(v.p), int(v.q)) for (d,), v in coeffs.items()})
            assert idempotent_trace_recursive(amb, n) == expected, n
            e = sympy.expand((low * e.subs(z, z / q) - high * e) / c + e)


# -- the raising quotient against long division -------------------------------

@pytest.mark.parametrize("name", [*PRESETS, *ORACLE_CONFIGS])
def test_raising_quotient_matches_long_division(name):
    """Q = (pt(0)^k - q^k z^k h(qz)^k) / pt(qz) divides exactly and is the
    z-polynomial on the x+ (x) Q x- pair of the raising tensor."""
    amb = oracle_ambient(name)
    k, q = amb.k, amb.q
    numerator = (UniPoly.constant(amb.p_reduced.constant_term**k)
                 - amb.p_tail.compose_linear(q, 0) ** k * UniPoly({k: q**k}))
    quot, rem = poly_divmod(numerator, amb.p_reduced.compose_linear(q, 0))
    assert rem == UniPoly.zero()
    assert raising_connection(amb).pairs[-1][1] == amb.from_z_poly(quot) * amb.x_minus()
