from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbundles.ambient import AmbientAlgebra
from weylbundles.config import PRESETS, Config, preset
from weylbundles.connection import MAX_LEVEL, idempotent_trace, idempotent_trace_recursive
from weylbundles.gwa import AlgebraMismatch, GwaAlgebra
from weylbundles.poly import UniPoly
from weylbundles.sampling import random_unipoly
from weylbundles.traces import (
    MAX_TRACE_BOUND,
    MAX_TRACE_PAIRS,
    CyclicTrace,
    chern_pairing,
    chern_pairings,
    verify_trace,
)

from drawn_configs import ambient_configs

P_SPHERE = UniPoly({1: 1, 2: -1})


def moment_oracle(q: Fraction, r: Fraction, zeta: Fraction, max_deg: int):
    """Values on z^n forced by the shift identity, solved degree by degree.

    The identity value(f(z)) - value(f(qz + r)) = f(zeta) - f(0) with
    value(1) = 0 determines value(z^n) uniquely when q^n != 1.
    """
    values = {0: Fraction(0)}
    for n in range(1, max_deg + 1):
        shifted = sum(
            comb(n, j) * q**j * r ** (n - j) * values[j] for j in range(n)
        )
        values[n] = (zeta**n + shifted) / (1 - q**n)
    return values


def recursion_coeffs(q: Fraction, r: Fraction, n: int, memo: dict) -> tuple[Fraction, ...]:
    """The moment coefficients by their recursion in r, memoised per (q, r).

    c_n = 1 and, counting down from the top index,

        c_{n-k} = sum_{i=1..k} C(n,i) r^i q^{n-i}/(1-q^{n-i}) * c'_{n-k},

    where c' is the coefficient vector at degree n-i.
    """
    if n not in memo:
        t = [Fraction(0)] * (n + 1)
        t[n] = Fraction(1)
        for k in range(1, n):
            j = n - k
            if r:
                t[j] = sum((comb(n, i) * r**i * q ** (n - i) / (1 - q ** (n - i))
                            * recursion_coeffs(q, r, n - i, memo)[j - 1]
                            for i in range(1, k + 1)), Fraction(0))
        memo[n] = tuple(t[1:])
    return memo[n]


def recursion_on_poly(q: Fraction, r: Fraction, zeta: Fraction, f: UniPoly) -> Fraction:
    """The trace value on f, assembled from the recursion's coefficients."""
    memo: dict = {}
    total = Fraction(0)
    for d, c in f.coeffs.items():
        if d:
            coeffs = recursion_coeffs(q, r, d, memo)
            total += c * sum((coeffs[i - 1] * zeta**i for i in range(1, d + 1)),
                             Fraction(0)) / (1 - q**d)
    return total


def assert_matches_recursion(q, r, zeta, f):
    trace = CyclicTrace(q, r, zeta)
    memo: dict = {}
    for n in range(1, (f.degree() or 0) + 1):
        assert trace.coeffs(n) == recursion_coeffs(trace.q, trace.r, n, memo)
    assert trace.on_poly(f) == recursion_on_poly(trace.q, trace.r, trace.zeta, f)


@pytest.mark.parametrize("q,r,zeta", [(4, 0, 1), (4, "1/2", 1), (-3, 2, "3/7"),
                                      ("2/5", "-1/3", -2), ("-7/2", "5/3", "1/9")])
def test_solve_matches_recursion(q, r, zeta):
    f = UniPoly({d: Fraction(d % 5 - 2, d % 3 + 1) for d in range(25)})
    assert_matches_recursion(q, r, zeta, f)


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(
    small_fractions.filter(lambda q: q not in (0, 1, -1)),
    small_fractions,
    small_fractions,
    st.dictionaries(st.integers(0, 24), small_fractions, max_size=8).map(UniPoly),
)
def test_solve_matches_recursion_on_draws(q, r, zeta, f):
    assert_matches_recursion(q, r, zeta, f)


@settings(max_examples=60, deadline=None)
@given(
    small_fractions.filter(lambda q: q not in (0, 1, -1)),
    st.one_of(st.just(Fraction(0)), small_fractions),
    small_fractions,
    st.dictionaries(st.integers(0, 10), small_fractions, max_size=6).map(UniPoly),
)
def test_fixed_point_solve_matches_shift_oracle(q, r, zeta, f):
    trace = CyclicTrace(q, r, zeta)
    oracle = moment_oracle(q, r, zeta, 10)
    value = trace.on_poly(f)
    assert value == sum((c * oracle[d] for d, c in f.coeffs.items()), Fraction(0))
    shifted = f.compose_linear(q, r)
    assert value - trace.on_poly(shifted) == f(zeta) - f(0)


def sympy_rational(sympy, x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


@pytest.mark.parametrize("q,r,zeta", [(4, "1/2", 1), (-3, 2, "3/7"), ("2/5", "-1/3", -2),
                                      ("-7/2", "5/3", "1/9"), ("1/3", 0, 2)])
def test_solve_matches_sympy(q, r, zeta):
    """F - F(qz + r) = f with F(0) = 0, solved by sympy as a linear system."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    trace = CyclicTrace(q, r, zeta)
    sq, sr, szeta = (sympy_rational(sympy, v) for v in (q, r, zeta))

    def solve(rhs, degree):
        a = sympy.symbols(f"a1:{degree + 1}")
        F = sum(ai * z**i for i, ai in enumerate(a, 1))
        residual = sympy.expand(F - F.subs(z, sq * z + sr) - rhs)
        return F.subs(sympy.solve([residual.coeff(z, i) for i in range(1, degree + 1)], a))

    for degree in range(1, 7):
        f = UniPoly({d: Fraction(d % 5 - 2, d % 3 + 1) for d in range(degree + 1)})
        fz = sum(sympy_rational(sympy, c) * z**d for d, c in f.coeffs.items())
        assert trace.on_poly(f) == Fraction(str(solve(fz, degree).subs(z, szeta)))
        moment = sympy.expand((1 - sq**degree) * solve(z**degree, degree))
        assert trace.coeffs(degree) == tuple(Fraction(str(moment.coeff(z, i)))
                                             for i in range(1, degree + 1))


@pytest.mark.parametrize("q,r", [(Fraction(4), Fraction(0)),
                                 (Fraction(4), Fraction(1, 2)),
                                 (Fraction(-3), Fraction(2)),
                                 (Fraction(2, 5), Fraction(-1, 3))])
def test_moments_match_shift_oracle(q, r):
    for zeta in (Fraction(1), Fraction(-2), Fraction(3, 7)):
        trace = CyclicTrace(q, r, zeta)
        oracle = moment_oracle(q, r, zeta, 8)
        for n in range(9):
            assert trace.on_poly(UniPoly({n: 1})) == oracle[n]


def test_coeff_examples():
    trace = CyclicTrace(Fraction(4), Fraction(1, 2), 1)
    for n in range(1, 6):
        assert trace.coeffs(n)[-1] == 1
    q, r = trace.q, trace.r
    assert trace.coeffs(2)[0] == 2 * r * q / (1 - q)
    zero_r = CyclicTrace(Fraction(4), 0, 1)
    for n in range(2, 6):
        assert all(c == 0 for c in zero_r.coeffs(n)[:-1])


def test_on_poly_examples():
    trace = CyclicTrace(4, 0, 1)
    assert trace.on_poly(UniPoly.one()) == 0
    for n in range(1, 6):
        assert trace.on_poly(UniPoly({n: 1})) == Fraction(1) / (1 - Fraction(4) ** n)


def test_admissibility():
    for bad_q in (0, 1, -1):
        with pytest.raises(ValueError):
            CyclicTrace(bad_q, 0, 1)


def test_for_algebra_validation():
    alg = GwaAlgebra(P_SPHERE, 4, 0)
    CyclicTrace.for_algebra(alg, 1)
    CyclicTrace.for_algebra(alg, 0)          # the zero root gives the zero map
    with pytest.raises(ValueError):
        CyclicTrace.for_algebra(alg, 2)
    no_zero_root = GwaAlgebra(UniPoly({0: 1, 1: -1}), 4, 0)
    with pytest.raises(ValueError):
        CyclicTrace.for_algebra(no_zero_root, 1)


def test_trace_values_on_elements():
    alg = GwaAlgebra(P_SPHERE, 4, 0)
    trace = CyclicTrace.for_algebra(alg, 1)
    assert trace(alg.x() * alg.from_poly(UniPoly({3: 1}))) == 0
    assert trace(alg.z()) == Fraction(-1, 3)
    assert trace(alg.one()) == 0
    other = GwaAlgebra(P_SPHERE, 4, Fraction(1, 2))
    with pytest.raises(AlgebraMismatch):
        trace(other.z())


def test_zero_root_trace_is_zero_map():
    alg = GwaAlgebra(P_SPHERE, 4, 0)
    trace = CyclicTrace.for_algebra(alg, 0)
    rng = Random(11)
    for _ in range(10):
        f = random_unipoly(rng, max_deg=6)
        assert trace.on_poly(f) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(0, 8),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3),
                    max_size=5).map(UniPoly),
    st.sampled_from([Fraction(0), Fraction(1, 2)]),
)
def test_shift_identity(f, r):
    trace = CyclicTrace(4, r, 1)
    shifted = f.compose_linear(trace.q, trace.r)
    assert trace.on_poly(f) - trace.on_poly(shifted) == f(trace.zeta) - f(0)


@pytest.mark.parametrize("cfg,zeta", [
    ("sphere", 1),
    ("kleinian-demo", 2),
])
def test_verify_trace_presets(cfg, zeta):
    alg = preset(cfg).gwa_algebra()
    trace = CyclicTrace.for_algebra(alg, zeta)
    records = verify_trace(trace, alg, bound=3, pairs=40, rng=Random(12))
    failures = [c for c in records if not c["pass"]]
    assert records and not failures, failures[:3]


def test_verify_trace_nonzero_r():
    alg = GwaAlgebra(P_SPHERE, 3, Fraction(1, 2))
    trace = CyclicTrace.for_algebra(alg, 1)
    records = verify_trace(trace, alg, bound=2, pairs=30, rng=Random(13))
    failures = [c for c in records if not c["pass"]]
    assert records and not failures, failures[:3]


@pytest.mark.parametrize("bound,pairs", [
    (MAX_TRACE_BOUND + 1, 0), (10**9, 0), (0, MAX_TRACE_PAIRS + 1), (0, 10**9),
])
def test_verify_trace_rejects_sizes_above_the_ceilings(bound, pairs):
    alg = GwaAlgebra(P_SPHERE, 4, 0)
    with pytest.raises(ValueError, match="must be <="):
        verify_trace(CyclicTrace.for_algebra(alg, 1), alg, bound=bound, pairs=pairs)


def test_chern_pairing_examples(sphere, kleinian):
    amb = sphere.ambient_algebra()
    assert chern_pairing(amb, 1, 1) == -1
    assert chern_pairing(amb, 1, 0) == 0
    lens = preset("lens(2,1,2)").ambient_algebra()
    assert chern_pairing(lens, 1, 3) == -3
    kle = kleinian.ambient_algebra()
    assert chern_pairing(kle, 2, -2) == 2


def test_chern_pairing_rejects_bad_zeta(sphere_amb):
    with pytest.raises(ValueError):
        chern_pairing(sphere_amb, 0, 1)
    with pytest.raises(ValueError):
        chern_pairing(sphere_amb, 3, 1)


def test_chern_pairings_build_once_for_every_root(monkeypatch):
    import weylbundles.traces as traces

    amb = AmbientAlgebra(UniPoly({1: 1}) * UniPoly({0: 1, 1: Fraction(-1, 2)})
                         * UniPoly({0: 1, 1: Fraction(1, 3)}), 2, 3)
    builds = []
    build = traces.idempotent_trace
    monkeypatch.setattr(traces, "idempotent_trace", lambda a, n: builds.append(n) or build(a, n))
    assert chern_pairings(amb, [2, -3], 2) == [-2, -2]
    assert builds == [2]
    assert chern_pairing(amb, -3, -1) == 1
    with pytest.raises(ValueError, match="not a root"):
        chern_pairings(amb, [2, 5], 1)
    assert builds == [2, -1]                   # a bad root is refused before the build


def test_chern_pairings_check_q_only_for_a_root():
    amb = AmbientAlgebra(P_SPHERE, 1, -1)                  # q = -1, a root of unity
    assert chern_pairings(amb, [], 2) == []
    with pytest.raises(ValueError, match="root of unity"):
        chern_pairings(amb, [1], 2)
    with pytest.raises(ValueError, match="root of unity"):  # before the build's level cap
        chern_pairings(amb, [1], MAX_LEVEL + 1)


@settings(max_examples=100, deadline=None)
@given(ambient_configs(), st.integers(1, 3))
def test_drawn_configs_trace_and_pairing(config, n):
    amb, roots = config
    direct = idempotent_trace(amb, n)
    assert direct == idempotent_trace_recursive(amb, n)
    assert direct(0) == 1
    for rho in roots:
        assert CyclicTrace(amb.q, 0, rho).on_poly(direct) == -n


def test_config_zeta_validation():
    with pytest.raises(ValueError):
        Config(name="bad", p=P_SPHERE, q_plus=2, q_minus=2, zetas=(Fraction(5),))


@pytest.mark.parametrize("name", PRESETS)
def test_deep_pairing_on_recursive_traces(name):
    cfg = preset(name)
    amb = cfg.ambient_algebra()
    for n in (5, 6, 7):
        assert idempotent_trace(amb, n) == idempotent_trace_recursive(amb, n)
    for n in (10, 20, 30, 40):
        e = idempotent_trace_recursive(amb, n)
        for zeta in cfg.nonzero_zetas():
            assert CyclicTrace(amb.q, 0, zeta).on_poly(e) == -n
