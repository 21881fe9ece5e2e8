import importlib.util
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbundles.config import preset
from weylbundles.expr import MAX_EXPONENT, MAX_SCALAR_BITS, ParseError, generators, parse
from weylbundles.sampling import random_gwa_elem

from drawn_configs import random_amb_elem


def _gwa_atoms(alg):
    return {"x": alg.x(), "y": alg.y(), "z": alg.z()}


def _amb_atoms(amb):
    return {"xp": amb.x_plus(), "xm": amb.x_minus(),
            "zp": amb.z_plus(), "zm": amb.z_minus()}


@pytest.fixture
def gwa_parse(sphere_gwa):
    atoms = _gwa_atoms(sphere_gwa)
    return lambda text: parse(text, atoms, sphere_gwa.from_scalar)


def test_parse_product(sphere_gwa, gwa_parse):
    alg = sphere_gwa
    assert gwa_parse("y*x") == alg.y() * alg.x()
    assert gwa_parse("y*x") != gwa_parse("x*y")


def test_parse_power_and_scaled_sum(sphere_gwa, gwa_parse):
    alg = sphere_gwa
    expected = alg.x() ** 2 * (alg.one() - alg.z() * Fraction(3, 2))
    assert gwa_parse("x^2*(1 - 3/2*z)") == expected


def test_whitespace_insensitive(gwa_parse):
    assert gwa_parse(" y * x ") == gwa_parse("y*x")
    assert gwa_parse("\ty\n*\u00a0x\n") == gwa_parse("y*x")


def test_leading_minus_allowed(sphere_gwa, gwa_parse):
    assert gwa_parse("-z + 1") == sphere_gwa.one() - sphere_gwa.z()


@pytest.mark.parametrize("bad", ["x^-1", "x*", "(x", "x +", "", "x^1/2", "3//4"])
def test_syntax_errors(gwa_parse, bad):
    with pytest.raises(ParseError):
        gwa_parse(bad)


def test_error_carries_position(gwa_parse):
    with pytest.raises(ParseError) as err:
        gwa_parse("x + %")
    assert err.value.position == 4 and "position 4" in str(err.value)
    # whitespace of every kind counts one position per character
    for text, position in (("x\t+\t%", 4), ("x\n\n+ %", 5), ("\u00a0x +\u00a0%", 5),
                           ("x +\t\n", 5)):
        with pytest.raises(ParseError) as err:
            gwa_parse(text)
        assert err.value.position == position, text


@pytest.mark.parametrize("text,position", [("1/0", 0), ("0/0", 0), ("x + 3/00*y", 4)])
def test_zero_denominator_is_a_parse_error(gwa_parse, text, position):
    with pytest.raises(ParseError, match="zero denominator") as err:
        gwa_parse(text)
    assert err.value.position == position


def test_generators():
    assert generators("x^2*(1 - 3/2*z) + y") == {"x", "y", "z"}
    assert generators("3/4") == set()
    assert generators("x*xp +") == {"x", "xp"}


def test_parse_in_gwa(sphere_gwa, gwa_parse):
    assert gwa_parse("y*x") == sphere_gwa.from_poly(sphere_gwa.p)
    assert gwa_parse("x^0") == sphere_gwa.one()


def test_parse_unknown_generator(sphere_gwa):
    alg = sphere_gwa
    with pytest.raises(ParseError, match="unknown generator 'w'") as err:
        parse("x + w", {"x": alg.x()}, alg.from_scalar)
    assert err.value.position == 4


def test_numbers_and_zero_powers_count_zero(sphere_gwa, gwa_parse):
    alg = sphere_gwa
    assert gwa_parse("((2^64)^64*x)^64") == alg.x() ** 64 * 2 ** (64 ** 3)
    assert gwa_parse("(x^0)^64") == alg.one()


@pytest.mark.parametrize("text,product,position", [
    ("((1+z)^8)^9", 72, 10), ("(((1+z)^64)^64)^64", 4096, 12), ("(x^32*3)^3", 96, 9),
])
def test_nested_exponents_beyond_the_limit(gwa_parse, text, product, position):
    with pytest.raises(ParseError) as err:
        gwa_parse(text)
    assert f"nested exponents multiply to {product}, larger than {MAX_EXPONENT}" in str(err.value)
    assert err.value.position == position


def test_scalar_power_within_the_bit_bound(sphere_gwa, gwa_parse):
    assert gwa_parse("(2^64)^64") == sphere_gwa.from_scalar(Fraction(2) ** 4096)
    assert gwa_parse("(3/2)^64*y") == sphere_gwa.y() * Fraction(3, 2) ** 64


@pytest.mark.parametrize("text,bits,position", [
    ("((2^64)^64)^64", 4097 * 64, 12), ("(((2^64)^64)^64)^64", 4097 * 64, 13),
    ("((1/2^64)^64)^64", 4097 * 64, 14), ("((2^64+1)^64)^2", 4097 * 2, 14),
])
def test_scalar_power_beyond_the_bit_bound(gwa_parse, text, bits, position):
    with pytest.raises(ParseError) as err:
        gwa_parse(text)
    assert f"power of a number with up to {bits} bits, more than {MAX_SCALAR_BITS}" in str(err.value)
    assert err.value.position == position


def test_print_parse_roundtrip_gwa(sphere_gwa, gwa_parse):
    rng = Random(21)
    for _ in range(40):
        e = random_gwa_elem(sphere_gwa, rng)
        assert gwa_parse(str(e)) == e, str(e)


def test_print_parse_roundtrip_ambient(kleinian):
    amb = kleinian.ambient_algebra()
    rng = Random(22)
    atoms = _amb_atoms(amb)
    for _ in range(40):
        e = random_amb_elem(amb, rng)
        back = parse(str(e), atoms, lambda c: amb.one() * c)
        assert back == e, str(e)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.integers(-2, 2),
    st.dictionaries(st.integers(0, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5),
                    min_size=1, max_size=3),
    min_size=1, max_size=3,
))
def test_roundtrip_property(terms):
    from weylbundles.poly import UniPoly

    alg = preset("sphere").gwa_algebra()
    e = alg.elem({d: UniPoly(cs) for d, cs in terms.items()})
    assert parse(str(e), _gwa_atoms(alg), alg.from_scalar) == e


# -- differential: the parser against Python's own evaluation ------------

_RATIONAL = re.compile(r"(?<![\^\d/])(\d+(?:/\d+)?)")


def python_eval(text: str, names: dict, scalar):
    """Evaluate ``text`` with Python's operators: ``^`` becomes ``**`` and
    each rational token (not an exponent) becomes ``scalar(Fraction(...))``."""
    code = _RATIONAL.sub(r"S(Fraction('\1'))", text).replace("^", "**")
    return eval(code, {"__builtins__": {}}, {**names, "Fraction": Fraction, "S": scalar})


def expressions(depth: int = 2):
    """Grammar-drawn text; exponents up to 3 in at most three nested levels."""
    rationals = st.builds(lambda n, d: f"{n}" if d == 1 else f"{n}/{d}",
                          st.integers(0, 9), st.integers(1, 4))
    atoms = rationals | st.sampled_from(("x", "y", "z"))
    if depth:
        atoms = atoms | expressions(depth - 1).map(lambda e: f"({e})")
    factors = st.tuples(atoms, st.none() | st.integers(0, 3)).map(
        lambda ae: ae[0] if ae[1] is None else f"{ae[0]}^{ae[1]}")
    terms = st.lists(factors, min_size=1, max_size=3).map("*".join)
    return st.builds(
        lambda lead, first, rest, space: space.join(
            [lead + first] + [f"{op} {t}" for op, t in rest]),
        st.sampled_from(("", "-")), terms,
        st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=3),
        st.sampled_from(("", " ")),
    )


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_parse_matches_python_in_the_gwa(text):
    alg = preset("sphere").gwa_algebra()
    atoms = _gwa_atoms(alg)
    assert parse(text, atoms, alg.from_scalar) == python_eval(text, atoms, alg.from_scalar), text


@settings(max_examples=100, deadline=None)
@given(expressions(), st.fractions(-3, 3, max_denominator=4),
       st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4))
def test_parse_matches_python_on_rationals(text, x, y, z):
    atoms = {"x": x, "y": y, "z": z}
    assert parse(text, atoms, Fraction) == python_eval(text, atoms, Fraction), text


def _bench_random_expr():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._random_expr


@pytest.mark.parametrize("name", ["sphere", "kleinian-demo"])
def test_parse_matches_python_on_bench_expressions(name):
    """The random expressions of the benchmark's single-shot CLI calls."""
    random_expr = _bench_random_expr()
    alg = preset(name).gwa_algebra()
    atoms = _gwa_atoms(alg)
    rng = Random(1)
    for _ in range(30):
        text = random_expr(rng)
        assert parse(text, atoms, alg.from_scalar) == python_eval(text, atoms, alg.from_scalar), text
