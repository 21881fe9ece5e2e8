"""The full verification sweep behind ``verify-all`` and the acceptance tests.

Each criterion function returns a list of check records; a record is a dict
with "check", "params", "expected", "got" and "pass" keys so the CLI can
emit them as JSON lines.  ``summarize`` turns one criterion's records into
its verdict, and a criterion with no checks does not pass.  Everything is
exact except the floating-point representation residuals of the last
criterion.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from fractions import Fraction
from random import Random

from .ambient import AmbientAlgebra, embed_degree_zero, project_degree_zero
from .config import PRESETS, Config, preset
from .connection import (
    check_connection,
    connection_power,
    connection_power_alt,
    idempotent,
    idempotent_trace,
    idempotent_trace_recursive,
    unit_in_degree,
)
from .gwa import GwaAlgebra
from .grading import (
    CompositionError,
    ambient_graded_view,
    compose_witnesses,
    induced_quotient_view,
    veronese_view,
    witness_search,
)
from .numrep import (
    SCALAR_TOLERANCE,
    TRUNCATED_TOLERANCE,
    one_dim_rep,
    one_dim_residuals,
    relation_residuals,
    truncated_rep,
)
from .poly import UniPoly, auto_shift_product
from .sampling import (
    random_gwa_elem,
    random_homogeneous_amb,
    random_unipoly,
)
from .traces import CyclicTrace, chern_pairings, record_check, verify_trace

LEVEL_RANGE = range(-4, 5)


def _record_bool(checks: list, name: str, params: dict, ok: bool, detail: str = "") -> None:
    record_check(checks, name, params, "true", "true" if ok else detail or "false")


# -- 1 ----------------------------------------------------------------
def criterion_index_pairing() -> list[dict]:
    """Pairing of the cyclic trace with every level idempotent equals -n."""
    checks: list[dict] = []
    for name in PRESETS:
        cfg = preset(name)
        amb = cfg.ambient_algebra()
        zetas = cfg.nonzero_zetas()
        pairings = {n: chern_pairings(amb, zetas, n) for n in LEVEL_RANGE}
        for i, zeta in enumerate(zetas):
            for n in LEVEL_RANGE:
                record_check(checks, "index-pairing",
                             {"preset": name, "zeta": str(zeta), "n": n},
                             Fraction(-n), pairings[n][i])
    return checks


# -- 2 ----------------------------------------------------------------
def criterion_strong_connection() -> list[dict]:
    """Every connection level multiplies out to 1; both recursions agree."""
    checks: list[dict] = []
    for name in PRESETS:
        amb = preset(name).ambient_algebra()
        for n in LEVEL_RANGE:
            t = connection_power(amb, n)
            _record_bool(checks, "connection-evaluates-to-one",
                         {"preset": name, "n": n}, check_connection(t))
            _record_bool(checks, "connection-recursions-agree",
                         {"preset": name, "n": n},
                         t == connection_power_alt(amb, n))
    return checks


# -- 3 ----------------------------------------------------------------
def criterion_idempotency() -> list[dict]:
    """E(n) squares to itself entry-wise; entries project to degree zero."""
    checks: list[dict] = []
    for name in PRESETS:
        amb = preset(name).ambient_algebra()
        for n in LEVEL_RANGE:
            mat = idempotent(amb, n)  # projection of every entry happens here
            record_check(checks, "idempotent-size", {"preset": name, "n": n},
                         2 ** abs(n), mat.size)
            _record_bool(checks, "idempotent-squares-to-itself",
                         {"preset": name, "n": n}, mat.is_idempotent())
    return checks


# -- 4 ----------------------------------------------------------------
def criterion_trace_oracle() -> list[dict]:
    """Tensor-built idempotent traces match the polynomial recursion."""
    checks: list[dict] = []
    for name in PRESETS:
        amb = preset(name).ambient_algebra()
        for n in range(1, 5):
            direct = idempotent_trace(amb, n)
            recursive = idempotent_trace_recursive(amb, n)
            record_check(checks, "idempotent-trace-oracle", {"preset": name, "n": n},
                         recursive, direct)
            record_check(checks, "idempotent-trace-at-zero", {"preset": name, "n": n},
                         Fraction(1), direct(0))
    return checks


# -- 5 ----------------------------------------------------------------
def criterion_trace_axioms() -> list[dict]:
    """Shift identity, commutator vanishing and cyclicity of the trace."""
    checks: list[dict] = []
    rng = Random(51)
    p = preset("sphere").p
    for r in (Fraction(0), Fraction(1, 2)):
        alg = GwaAlgebra(p, Fraction(4), r)
        trace = CyclicTrace.for_algebra(alg, 1)
        failures = 0
        for _ in range(100):
            f = random_unipoly(rng, max_deg=8, terms=5)
            shifted = f.compose_linear(alg.q, alg.r)
            if trace.on_poly(f) - trace.on_poly(shifted) != f(trace.zeta) - f(0):
                failures += 1
        record_check(checks, "shift-identity-failures", {"q": "4", "r": str(r), "samples": 100},
                     0, failures)
        (records,) = verify_trace([trace], alg, bound=3, pairs=100, rng=Random(52))
        failed = sum(not c["pass"] for c in records)
        _record_bool(checks, "trace-verification", {"q": "4", "r": str(r)},
                     failed == 0, detail=f"{failed} failures")
    return checks


# -- 6 ----------------------------------------------------------------
def _power_words(f: UniPoly, letters: tuple, scale=1) -> list[tuple[tuple, Fraction]]:
    """f(scale * w) as a combination of words, w the product of ``letters``."""
    return [(letters * d, c * scale**d) for d, c in f.coeffs.items()]


def _gwa_rules(alg: GwaAlgebra) -> dict:
    """y x -> p(z), x y -> p(qz + r), z x -> x (z - r)/q, z y -> y (qz + r)."""
    return {
        ("y", "x"): _power_words(alg.p, ("z",)),
        ("x", "y"): _power_words(alg.sigma.apply(1, alg.p), ("z",)),
        ("z", "x"): [(("x", "z"), 1 / alg.q), (("x",), -alg.r / alg.q)],
        ("z", "y"): [(("y", "z"), alg.q), (("y",), alg.r)],
    }


def _ambient_rules(amb: AmbientAlgebra) -> dict:
    """xp xm -> pt(zp zm), xm xp -> pt(q zp zm), zm zp -> zp zm,
    z(pm) xm -> 1/q(pm) xm z(pm) and z(pm) xp -> q(pm) xp z(pm)."""
    rules = {
        ("xp", "xm"): _power_words(amb.p_reduced, ("zp", "zm")),
        ("xm", "xp"): _power_words(amb.p_reduced, ("zp", "zm"), amb.q),
        ("zm", "zp"): [(("zp", "zm"), Fraction(1))],
    }
    for z, qz in (("zp", amb.q_plus), ("zm", amb.q_minus)):
        rules[(z, "xm")] = [(("xm", z), 1 / qz)]
        rules[(z, "xp")] = [(("xp", z), qz)]
    return rules


def _free_reduce(rules: dict, word: tuple[str, ...]) -> dict[tuple, Fraction]:
    """Normal form by naive leftmost single-relation rewriting.

    Each rule rewrites one adjacent pair of letters by a single defining
    relation; the words no rule applies to come back with their
    coefficients.  Independent of the product engine.
    """
    result: dict[tuple, Fraction] = {}
    stack = [(word, Fraction(1))]
    while stack:
        w, c = stack.pop()
        for i in range(len(w) - 1):
            replacement = rules.get((w[i], w[i + 1]))
            if replacement is not None:
                for body, factor in replacement:
                    if factor:
                        stack.append((w[:i] + body + w[i + 2:], c * factor))
                break
        else:
            result[w] = result.get(w, Fraction(0)) + c
    return result


def _oracle_mismatches(alg, gens: dict, rules: dict, basis, max_len: int) -> tuple[int, int]:
    """(mismatches, words) of engine products against the free-word oracle.

    Every word in ``gens`` of length 1..max_len is multiplied out by the
    engine and reduced by ``rules``; ``basis(word, c)`` reads an irreducible
    word as c times a basis element.
    """
    mismatches = total = 0
    for length in range(1, max_len + 1):
        for word in itertools.product(gens, repeat=length):
            total += 1
            engine = alg.one()
            for letter in word:
                engine = engine * gens[letter]
            oracle = alg.zero()
            for w, c in _free_reduce(rules, word).items():
                oracle = oracle + basis(w, c)
            if engine != oracle:
                mismatches += 1
    return mismatches, total


def criterion_gwa_engine() -> list[dict]:
    """Pair products, associativity and the free-word rewriting oracles."""
    checks: list[dict] = []
    algebras = [
        ("sphere", preset("sphere").gwa_algebra()),
        ("shifted", GwaAlgebra(preset("sphere").p, Fraction(3), Fraction(1, 2))),
    ]
    for label, alg in algebras:
        for n in range(5):
            s = auto_shift_product(alg.p, alg.sigma, n)
            record_check(checks, "ynxn-product", {"algebra": label, "n": n},
                         alg.from_poly(s), alg.y() ** n * alg.x() ** n)
            record_check(checks, "xnyn-product", {"algebra": label, "n": n},
                         alg.from_poly(alg.sigma.apply(n, s)), alg.x() ** n * alg.y() ** n)
    rng = Random(53)
    failures = 0
    for i in range(100):
        alg = algebras[i % 2][1]
        a, b, c = (random_gwa_elem(alg, rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            failures += 1
    record_check(checks, "associativity-failures", {"samples": 100}, 0, failures)
    for label, alg in algebras:
        mismatches, total = _oracle_mismatches(
            alg, {"x": alg.x(), "y": alg.y(), "z": alg.z()}, _gwa_rules(alg),
            lambda w, c: alg.monomial(
                w.count("x") - w.count("y"), UniPoly({w.count("z"): c})),
            5)
        record_check(checks, "free-reduction-mismatches",
                     {"algebra": label, "words": total}, 0, mismatches)
    for name in PRESETS:
        amb = preset(name).ambient_algebra()
        gens = {"xp": amb.x_plus(), "xm": amb.x_minus(),
                "zp": amb.z_plus(), "zm": amb.z_minus()}
        mismatches, total = _oracle_mismatches(
            amb, gens, _ambient_rules(amb),
            lambda w, c: amb.basis_elem(
                w.count("xm") - w.count("xp"), w.count("zp"), w.count("zm"), c),
            4)
        record_check(checks, "free-reduction-mismatches",
                     {"preset": name, "words": total}, 0, mismatches)
    return checks


# -- 7 ----------------------------------------------------------------
def criterion_degree_zero_part() -> list[dict]:
    """The degree-zero embedding is a homomorphism with two-sided inverse."""
    checks: list[dict] = []
    rng = Random(54)
    for name in PRESETS:
        cfg = preset(name)
        amb = cfg.ambient_algebra()
        gwa = amb.gwa()
        x, y, z = (embed_degree_zero(amb, e) for e in (gwa.x(), gwa.y(), gwa.z()))
        sigma = gwa.sigma
        for label, lhs, rhs in (
            ("yx=p", y * x, embed_degree_zero(amb, gwa.from_poly(gwa.p))),
            ("xy=p(qz+r)", x * y,
             embed_degree_zero(amb, gwa.from_poly(sigma.apply(1, gwa.p)))),
            ("xz=(qz+r)x", x * z,
             embed_degree_zero(amb, gwa.from_poly(sigma.apply(1, UniPoly.gen()))) * x),
            ("yz=inv(q)(z-r)y", y * z,
             embed_degree_zero(amb, gwa.from_poly(sigma.apply(-1, UniPoly.gen()))) * y),
        ):
            record_check(checks, "embedding-respects-relation",
                         {"preset": name, "relation": label}, rhs, lhs)
        hom_failures = 0
        round_failures = 0
        for _ in range(34):
            a = random_gwa_elem(gwa, rng)
            b = random_gwa_elem(gwa, rng)
            if embed_degree_zero(amb, a * b) != embed_degree_zero(amb, a) * embed_degree_zero(amb, b):
                hom_failures += 1
            if project_degree_zero(amb, embed_degree_zero(amb, a)) != a:
                round_failures += 1
            h = random_homogeneous_amb(amb, rng, 0)
            if embed_degree_zero(amb, project_degree_zero(amb, h)) != h:
                round_failures += 1
        record_check(checks, "embedding-homomorphism-failures",
                     {"preset": name, "samples": 34}, 0, hom_failures)
        record_check(checks, "embedding-roundtrip-failures",
                     {"preset": name, "samples": 68}, 0, round_failures)
    return checks


# -- 8 ----------------------------------------------------------------
def _chain_roundtrip(checks: list, name: str, amb: AmbientAlgebra, g: int) -> None:
    base = veronese_view(ambient_graded_view(amb), amb.k)
    halved = veronese_view(base, 2)
    class_witness = witness_search(induced_quotient_view(base, 2), g % 2, 4)
    ok, detail = False, "no class witness"
    if class_witness is not None:
        correctors = {-(base.degree_of(a) - g) // 2 for a, _, _ in class_witness.pairs} - {0}
        sub = {c: w for c in sorted(correctors) if (w := witness_search(halved, c, 8)) is not None}
        try:
            composed = compose_witnesses({g % 2: class_witness}, sub, g, view=base, k=2)
            ok = composed.check(base) and all(base.degree_of(a) == g for a, _, _ in composed.pairs)
            detail = "product or degree check failed"
        except CompositionError as exc:  # its message names the missing witness
            detail = str(exc)
    _record_bool(checks, "witness-composition", {"preset": name, "g": g}, ok, detail)


def criterion_grading_lab() -> list[dict]:
    """Witness searches: found where the grading is strong, absent where not."""
    checks: list[dict] = []
    for name in PRESETS:
        amb = preset(name).ambient_algebra()
        base = ambient_graded_view(amb)
        strong = veronese_view(base, amb.k)
        for g in (1, -1):
            w = witness_search(strong, g, 4)
            _record_bool(checks, "veronese-witness-found",
                         {"preset": name, "g": g, "bound": 4},
                         w is not None and w.check(strong),
                         "no witness within bound 4")
        if amb.k == 2:
            for g in (1, -1):
                _record_bool(checks, "ambient-witness-absent",
                             {"preset": name, "g": g, "bound": 10},
                             witness_search(base, g, 10) is None,
                             "unexpected witness")
            _record_bool(checks, "quotient-witness-absent",
                         {"preset": name, "class": 1, "bound": 8},
                         witness_search(induced_quotient_view(base, amb.k), 1, 8) is None,
                         "unexpected witness")
        for g in (1, 2):
            _chain_roundtrip(checks, name, amb, g)
    return checks


# -- 9 ----------------------------------------------------------------
def criterion_degenerate_case() -> list[dict]:
    """Only powers of z as defining polynomial: free modules, no pairing."""
    checks: list[dict] = []
    cfg = Config(name="degenerate", p=UniPoly({2: 1}), q_plus=2, q_minus=2)
    amb = cfg.ambient_algebra()
    for n in range(-3, 4):
        pair = unit_in_degree(amb, n)  # self-verifies the inverse
        _record_bool(checks, "unit-in-degree", {"n": n}, pair is not None,
                     "no unit returned")
    record_check(checks, "no-admissible-zeta", {"p": str(cfg.p)}, 0, len(cfg.nonzero_zetas()))
    for zeta in (1, -1, 2):
        try:
            CyclicTrace.for_algebra(cfg.gwa_algebra(), zeta)
            rejected = False
        except ValueError:
            rejected = True
        _record_bool(checks, "nonroot-zeta-rejected", {"zeta": zeta}, rejected,
                     "trace accepted a non-root")
    return checks


# -- 10 ---------------------------------------------------------------
def criterion_representations() -> list[dict]:
    """Matrix and scalar representation residuals at their tolerances."""
    checks: list[dict] = []
    p = preset("sphere").p
    alg = GwaAlgebra(p, Fraction(1, 4), Fraction(0))
    rep = truncated_rep(alg, 1, 16)
    report = relation_residuals(rep)
    for relation, value in report["relations"].items():
        _record_bool(checks, "truncated-rep-residual",
                     {"relation": relation, "dim": 16, "q": "1/4", "zeta": "1"},
                     value < TRUNCATED_TOLERANCE, f"residual {value:.3e}")
    sphere_alg = preset("sphere").gwa_algebra()
    for lam in (1, -1):
        scalar = one_dim_rep(sphere_alg, lam)
        for relation, value in one_dim_residuals(sphere_alg, scalar).items():
            _record_bool(checks, "one-dim-rep-residual",
                         {"relation": relation, "lam": lam},
                         value < SCALAR_TOLERANCE, f"residual {value:.3e}")
    return checks


CRITERIA: tuple[tuple[str, str, object], ...] = (
    ("1-index-pairing", "pairing with every level idempotent equals -n", criterion_index_pairing),
    ("2-strong-connection", "connection tensors multiply to 1, recursions agree", criterion_strong_connection),
    ("3-idempotency", "E(n)^2 = E(n) with degree-zero entries", criterion_idempotency),
    ("4-trace-oracle", "idempotent traces match the polynomial recursion", criterion_trace_oracle),
    ("5-trace-axioms", "shift identity, commutator vanishing, cyclicity", criterion_trace_axioms),
    ("6-gwa-engine", "pair products, associativity, free-word oracles", criterion_gwa_engine),
    ("7-degree-zero-part", "embedding and projection identify the degree-zero part", criterion_degree_zero_part),
    ("8-grading-lab", "witness searches and composition across the chain", criterion_grading_lab),
    ("9-degenerate-case", "units in every degree, no admissible zeta", criterion_degenerate_case),
    ("10-representations", "matrix and scalar representation residuals", criterion_representations),
)


def summarize(name: str, title: str, checks: list[dict]) -> dict:
    """One criterion's summary record; it passes only if it ran checks and none failed."""
    failed = [c for c in checks if not c["pass"]]
    return {"criterion": name, "title": title, "checks": len(checks), "failed": len(failed),
            "pass": bool(checks) and not failed, "failures": failed[:5]}


def run_all() -> Iterator[dict]:
    """Run every criterion, yielding its summary as soon as it finishes."""
    for name, title, func in CRITERIA:
        yield summarize(name, title, func())
