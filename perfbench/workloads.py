"""Seeded inputs, known answers and items of the four benchmark workloads.

Every item is a closure that calls the package's public API and records
each verdict against an answer the paper fixes: the index pairing of level
n is -n, connections multiply to 1, E(n) has size 2^|n| and squares to
itself, e_n(0) = 1, the shift identity of the cyclic trace, and a strong
grading witness exists exactly when the grading is strong.  The answers are
computed here, with this module's own polynomial arithmetic where a
polynomial is needed, never by the code under test.

This module imports only the standard library at import time; ``setup``
imports the package, so the set-up probe times that import.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb
from random import Random

WORKLOADS = ("idem-square", "deep-pairing", "witness-search", "cli-calls")

# Strata of the config generator: (k, number of nonzero roots).  One config
# per stratum is drawn on every run, so the cost of a run is comparable
# across seeds.
STRATA = tuple((k, r) for k in (1, 2, 3) for r in (1, 2))
# The seed picks signs and inversions of fixed magnitudes: root i is
# +-b_i^(+-1) with b = (2, 3), q_plus is +-2^(+-1) and q_minus is +-3^(+-1).
# Coefficient sizes, and with them the cost of exact arithmetic, then stay
# in one band across seeds, and q = q_plus q_minus never lies in {0, 1, -1}.
ROOT_BASES = (2, 3)
Q_PLUS_BASE, Q_MINUS_BASE = 2, 3

# Levels |n| <= 3; the (k = 3, two roots) stratum stops at 2, where its
# level-3 items alone would take 3 s of a pass.
IDEM_LEVEL = 3
IDEM_LEVEL_K3_R2 = 2
DEEP_LEVELS = (10, 20, 30, 40)
DEEP_MAX_DEGREE = 120
SHIFT_DEGREES = (24, 30, 36, 42, 48)
SHIFT_R = Fraction(1, 2)


# -- the benchmark's own polynomial arithmetic (oracle side) -----------------
# Polynomials are dicts degree -> Fraction without zero entries.

def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: Fraction(c) for d, c in out.items() if c}


def poly_from_roots(k: int, roots) -> dict:
    """z^k * prod (1 - z/rho), the normalized form of the paper."""
    p = {k: Fraction(1)}
    for rho in roots:
        p = poly_mul(p, {0: Fraction(1), 1: -1 / Fraction(rho)})
    return p


def poly_compose_affine(p: dict, a, b) -> dict:
    """p(a z + b) by binomial expansion."""
    out: dict = {}
    for d, c in p.items():
        for i in range(d + 1):
            out[i] = out.get(i, 0) + c * comb(d, i) * Fraction(a) ** i * Fraction(b) ** (d - i)
    return {d: Fraction(c) for d, c in out.items() if c}


def poly_eval(p: dict, x) -> Fraction:
    x = Fraction(x)
    return sum((c * x**d for d, c in p.items()), Fraction(0))


def parse_poly_text(text: str) -> dict:
    """Read a polynomial in z printed as ``(1/2*z - z^3)`` or ``0``."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.replace(" - ", " + -").strip()
    out: dict = {}
    if body == "0":
        return out
    for piece in body.split(" + "):
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        if "z" not in piece:
            coeff, deg = Fraction(piece), 0
        else:
            head, _, mono = piece.rpartition("*") if "*" in piece else ("", "", piece)
            coeff = Fraction(head) if head else Fraction(1)
            if mono == "z":
                deg = 1
            elif mono.startswith("z^"):
                deg = int(mono[2:])
            else:
                raise ValueError(f"not a polynomial in z: {text!r}")
        out[deg] = out.get(deg, 0) + sign * coeff
    return {d: c for d, c in out.items() if c}


def connection_leg_size(k: int, roots: int) -> int:
    """Largest basis-monomial size among the legs of the level-one connection.

    With p = z^k pt and deg h = deg pt - 1, the paper's lowering and raising
    tensors have legs z-^k h(qz)^k (size k(2 deg pt - 1)) and Q(z) x- with
    deg Q = (k-1) deg pt (size 1 + 2(k-1) deg pt).  A witness for the
    Veronese grading therefore exists within this size.
    """
    return max(k * (2 * roots - 1), 1 + 2 * (k - 1) * roots)


# -- configurations -----------------------------------------------------------

class Spec:
    """A configuration as the benchmark knows it: its parameters and answers."""

    def __init__(self, name, k, roots, q_plus, q_minus, p, generated):
        self.name = name
        self.k = k
        self.roots = tuple(Fraction(z) for z in roots)
        self.q_plus = Fraction(q_plus)
        self.q_minus = Fraction(q_minus)
        self.q = self.q_plus * self.q_minus
        self.p = p
        self.generated = generated

    def to_json(self) -> dict:
        """The config file format of the command-line interface."""
        top = max(self.p)
        return {
            "name": self.name,
            "p": {"coeffs": [str(self.p.get(d, Fraction(0))) for d in range(top + 1)]},
            "q_plus": str(self.q_plus),
            "q_minus": str(self.q_minus),
            "r": "0",
            "zetas": [str(z) for z in self.roots],
        }


def preset_specs() -> list[Spec]:
    return [
        Spec("sphere", 1, [1], 2, 2, poly_from_roots(1, [1]), False),
        Spec("lens(2,1,2)", 2, [1], 2, 2, poly_from_roots(2, [1]), False),
        # z^2 (1 - z)(2 - z) = 2 * z^2 (1 - z)(1 - z/2)
        Spec("kleinian-demo", 2, [1, 2], 3, 1,
             {d: 2 * c for d, c in poly_from_roots(2, [1, 2]).items()}, False),
    ]


def generate_specs(seed: int) -> list[Spec]:
    """One config per stratum, drawn from ``seed``.

    p = z^k prod (1 - z/rho_i) with distinct nonzero rational roots, and
    nonzero q_plus, q_minus whose product lies outside {0, 1, -1}.
    """
    rng = Random(seed)

    def draw(base: int) -> Fraction:
        return rng.choice((1, -1)) * Fraction(base) ** rng.choice((1, -1))

    specs = []
    for k, r in STRATA:
        roots = [draw(base) for base in ROOT_BASES[:r]]
        q_plus, q_minus = draw(Q_PLUS_BASE), draw(Q_MINUS_BASE)
        specs.append(Spec(f"gen-k{k}-r{r}", k, roots, q_plus, q_minus,
                          poly_from_roots(k, roots), True))
    return specs


def to_config(W, spec: Spec):
    """The package's Config for a spec; the package sees nothing else."""
    p = W.UniPoly(spec.p)
    return W.Config(name=spec.name, p=p, q_plus=spec.q_plus,
                    q_minus=spec.q_minus, zetas=spec.roots)


# -- items ----------------------------------------------------------------------

class Checks:
    """Verdicts of one item, plus the polynomials it produced."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []
        self.polys: list = []

    def expect(self, name: str, expected, got) -> None:
        self.count += 1
        if expected != got:
            self.failures.append(f"{name}: expected {expected}, got {got}")

    def result(self, poly) -> None:
        self.polys.append(poly)


class Item:
    def __init__(self, label: str, run):
        self.label = label
        self.run = run  # run(checks) -> None


def _idem_item(W, amb, spec: Spec, n: int) -> Item:
    def run(chk: Checks):
        t = W.connection_power(amb, n)
        chk.expect("connection-is-one", True, W.check_connection(t))
        chk.expect("recursions-agree", True, t == W.connection_power_alt(amb, n))
        mat = W.idempotent(amb, n)
        chk.expect("size", 2 ** abs(n), mat.size)
        chk.expect("E^2=E", True, mat.is_idempotent())
        trace = W.idempotent_trace(amb, n)
        chk.result(trace)
        if n >= 1:
            chk.expect("trace-oracle", W.idempotent_trace_recursive(amb, n), trace)
        chk.expect("e_n(0)", Fraction(1), trace(0))
        for zeta in spec.roots:
            chk.expect(f"pairing@{zeta}", Fraction(-n), W.chern_pairing(amb, zeta, n))
    return Item(f"{spec.name} n={n}", run)


def _deep_item(W, amb, spec: Spec, n: int) -> Item:
    def run(chk: Checks):
        e = W.idempotent_trace_recursive(amb, n)
        chk.result(e)
        for zeta in spec.roots:
            got = W.CyclicTrace(amb.q, 0, zeta).on_poly(e)
            chk.expect(f"pairing@{zeta}", Fraction(-n), got)
    return Item(f"{spec.name} n={n}", run)


def _shift_item(W, spec: Spec, coeffs: dict, degree: int) -> Item:
    def run(chk: Checks):
        alg = W.GwaAlgebra(W.UniPoly(spec.p), spec.q, SHIFT_R)
        trace = W.CyclicTrace.for_algebra(alg, spec.roots[0])
        f = W.UniPoly(coeffs)
        shifted = f.compose_linear(alg.q, alg.r)
        chk.result(shifted)
        expected = poly_eval(coeffs, spec.roots[0]) - poly_eval(coeffs, 0)
        chk.expect("shift-identity", expected, trace.on_poly(f) - trace.on_poly(shifted))
    return Item(f"shift {spec.name} deg={degree}", run)


def _witness_items(W, amb, spec: Spec) -> list[Item]:
    strong = spec.k == 1  # the plain Z-grading is strong exactly when k = 1
    bound_v = max(4, connection_leg_size(spec.k, len(spec.roots)))
    # bound 8 as criterion 8 has it on the presets; 7 on generated configs,
    # where bound 8 would double the pass (absence holds at every bound)
    bound_q = 7 if spec.generated else 8
    items = []

    def veronese(g):
        def run(chk: Checks):
            view = W.veronese_view(W.ambient_graded_view(amb), amb.k)
            w = W.witness_search(view, g, bound_v)
            chk.expect("veronese-found", True, w is not None)
            if w is not None:
                chk.expect("witness-check", True, w.check(view))
        return Item(f"{spec.name} veronese g={g} bound={bound_v}", run)

    def plain(g):
        def run(chk: Checks):
            view = W.ambient_graded_view(amb)
            w = W.witness_search(view, g, 10)
            chk.expect("plain-found", strong, w is not None)
            if w is not None:
                chk.expect("witness-check", True, w.check(view))
        return Item(f"{spec.name} plain g={g} bound=10", run)

    def quotient():
        def run(chk: Checks):
            view = W.induced_quotient_view(W.ambient_graded_view(amb), amb.k)
            w = W.witness_search(view, 1, bound_q)
            chk.expect("quotient-found", strong, w is not None)
            if w is not None:
                chk.expect("witness-check", True, w.check(view))
        return Item(f"{spec.name} quotient class=1 bound={bound_q}", run)

    def chain(g):
        # criterion 8 of the acceptance sweep: class witness mod 2 at bound 4,
        # subgroup witnesses of the doubled Veronese grading at bound 8
        def run(chk: Checks):
            base = W.veronese_view(W.ambient_graded_view(amb), amb.k)
            quotient_view = W.induced_quotient_view(base, 2)
            halved = W.veronese_view(base, 2)
            cls = W.witness_search(quotient_view, g % 2, 4)
            chk.expect("class-witness-found", True, cls is not None)
            if cls is None:
                return
            correctors = sorted({-(base.degree_of(a) - g) // 2 for a, _, _ in cls.pairs} - {0})
            sub = {}
            for c in correctors:
                w = W.witness_search(halved, c, 8)
                chk.expect(f"subgroup-witness-found@{c}", True, w is not None)
                if w is None:
                    return
                sub[c] = w
            composed = W.compose_witnesses({g % 2: cls}, sub, g, view=base, k=2)
            chk.expect("composed-degrees", True,
                       all(base.degree_of(a) == g for a, _, _ in composed.pairs))
            chk.expect("composed-check", True, composed.check(base))
        return Item(f"{spec.name} chain g={g}", run)

    items += [veronese(1), veronese(-1), plain(1), plain(-1), quotient()]
    # For k = 3 the fixed chain bounds lie below the size of the level-two
    # and level-four connections the correctors need, so the paper fixes no
    # answer there; the chain runs where criterion 8 runs it, k <= 2.
    if spec.k <= 2:
        items += [chain(1), chain(2)]
    return items


def _random_expr(rng: Random) -> str:
    terms = []
    for _ in range(rng.randint(2, 3)):
        factors = [f"{rng.randint(1, 5)}/{rng.randint(1, 3)}"]
        for gen in rng.sample(("x", "y", "z"), rng.randint(1, 3)):
            e = rng.randint(1, 3)
            factors.append(gen if e == 1 else f"{gen}^{e}")
        terms.append("*".join(factors))
    out = terms[0]
    for t in terms[1:]:
        out += f" {rng.choice('+-')} {t}"
    return out


class CliCall:
    """One single-shot command line and the answer it must give."""

    def __init__(self, label: str, src: list[str], command: list[str],
                 expect_poly: dict | None = None):
        self.label = label
        self.argv = src + command
        self.prints_result = command[0] in ("normalize", "mul")
        self.expect_poly = expect_poly

    def verdict(self, code: int, stdout: str, chk: Checks) -> None:
        chk.expect("exit", 0, code)
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        chk.expect("records", True, bool(records))
        for rec in records:
            if "pass" in rec:
                chk.expect("pass", True, rec["pass"])
        if self.prints_result:
            results = [rec.get("result") for rec in records]
            chk.expect("result", True, bool(results) and all(r is not None for r in results))
            if self.expect_poly is not None and results and results[0] is not None:
                chk.expect("normal-form", self.expect_poly, parse_poly_text(results[0]))


def cli_calls(specs: list[Spec], seed: int, config_dir: str) -> list[CliCall]:
    """The fixed, seeded list of command lines.

    Every config gets its normal forms of y*x or x*y checked; each other
    command runs once, on a preset the seed picks, and every generated
    config gets one pairing.
    """
    rng = Random(seed * 7919 + 17)
    calls = []
    sources = {}
    for spec in specs:
        if spec.generated:
            path = os.path.join(config_dir, f"{spec.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec.to_json(), fh)
            sources[spec.name] = ["--config", path]
        else:
            sources[spec.name] = ["--preset", spec.name]
    for spec in specs:
        src = sources[spec.name]
        # y x = p(z) and x y = p(q z + r), here with r = 0
        if not spec.generated:
            calls.append(CliCall(f"{spec.name} y*x", src, ["normalize", "y*x"], spec.p))
        calls.append(CliCall(f"{spec.name} x*y", src, ["normalize", "x*y"],
                             poly_compose_affine(spec.p, spec.q, 0)))
        if spec.generated:
            calls.append(CliCall(f"{spec.name} chern", src, ["chern", "--n", "1"]))
    presets = [spec for spec in specs if not spec.generated]
    commands = [
        ["normalize", _random_expr(rng)],
        ["mul", _random_expr(rng), _random_expr(rng)],
        ["chern", "--n", str(rng.choice((-2, -1, 1, 2)))],
        ["connection", "--n", "1"],
        ["idempotent", "--n", "1"],
        ["trace-check", "--bound", "1", "--pairs", "4"],
    ]
    for command in commands:
        spec = rng.choice(presets)
        calls.append(CliCall(f"{spec.name} {command[0]}", sources[spec.name], command))
    spec = rng.choice(presets)
    calls.append(CliCall(f"{spec.name} grading-check", sources[spec.name],
                         ["grading-check", "--degree", "1", "--bound", "4",
                          "--veronese", str(spec.k)]))
    spec = rng.choice(presets)
    calls.append(CliCall(f"{spec.name} rep-check", sources[spec.name],
                         ["rep-check", "--zeta", str(spec.roots[0]), "--dim", "16"]))
    return calls


def _shift_coeffs(rng: Random, degree: int) -> dict:
    coeffs = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in range(degree)}
    coeffs[degree] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return {d: c for d, c in coeffs.items() if c}


def setup(workload: str, seed: int, config_dir: str):
    """Import the package and build configs, algebras and the item list.

    For ``cli-calls`` the items are ``CliCall``s.
    """
    import weylbundles as W

    specs = preset_specs() + generate_specs(seed)
    if workload == "cli-calls":
        os.makedirs(config_dir, exist_ok=True)
        return cli_calls(specs, seed, config_dir)
    configs = [to_config(W, spec) for spec in specs]
    ambs = [cfg.ambient_algebra() for cfg in configs]
    for cfg in configs:
        cfg.gwa_algebra()
    items: list[Item] = []
    if workload == "idem-square":
        for spec, amb in zip(specs, ambs):
            top = IDEM_LEVEL_K3_R2 if (spec.k, len(spec.roots)) == (3, 2) else IDEM_LEVEL
            items += [_idem_item(W, amb, spec, n) for n in range(-top, top + 1)]
    elif workload == "deep-pairing":
        for spec, amb in zip(specs, ambs):
            per_level = spec.k * len(spec.roots)  # degree of e_n is n * k * deg pt
            items += [_deep_item(W, amb, spec, n) for n in DEEP_LEVELS
                      if n * per_level <= DEEP_MAX_DEGREE]
        rng = Random(seed)
        presets = [spec for spec in specs if not spec.generated]
        for i, degree in enumerate(SHIFT_DEGREES):
            spec = presets[i % len(presets)]
            items.append(_shift_item(W, spec, _shift_coeffs(rng, degree), degree))
    elif workload == "witness-search":
        for spec, amb in zip(specs, ambs):
            items += _witness_items(W, amb, spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
