"""Cyclic traces on the generalized Weyl algebra and the index pairing.

For every root zeta of p (with 0 also a root and q not a root of unity,
i.e. q outside {0, 1, -1} over the rationals) there is a trace that kills
all x/y monomials and all constants.  On polynomials in z it is fixed by
the shift identity tau(f) - tau(f(qz + r)) = f(zeta) - f(0), so
tau(f) = F(zeta) - F(0) for any F with F - F(qz + r) = f up to constants.
About the fixed point z0 = r/(1 - q) of z -> qz + r the shift is w -> qw,
and the solve is one division per coefficient.  Pairing the trace with the
idempotent traces of :mod:`weylbundles.connection` yields the integer -n at
level n.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Optional

from .ambient import AmbientAlgebra
from .connection import idempotent_trace
from .gwa import AlgebraMismatch, GwaAlgebra, GwaElem, commutator_closed_form
from .poly import UniPoly, frac
from .sampling import random_gwa_elem


def _antidifference(q: Fraction, r: Fraction, f: UniPoly) -> UniPoly:
    """The F with F(0) = 0 and F - F(qz + r) - f constant.

    In w = z - z0, for z0 = r/(1 - q) the fixed point of z -> qz + r, the
    shift is w -> qw, so the w^i coefficient of F is that of f divided by
    1 - q^i, nonzero for i >= 1 because q is not a root of unity.  For
    r = 0 the fixed point is 0 and no substitution runs.
    """
    z0 = r / (1 - q)
    if not z0:
        return UniPoly._make({i: c / (1 - q**i) for i, c in f.coeffs.items() if i})
    F = _antidifference(q, Fraction(0), f.compose_linear(1, z0)).compose_linear(1, -z0)
    return UniPoly._make({i: c for i, c in F.coeffs.items() if i})


class CyclicTrace:
    """The trace determined by (q, r) and a root zeta of p.

    ``on_poly`` is the linear functional on polynomials in z that vanishes
    on constants and satisfies the shift identity; ``__call__`` extends it
    to algebra elements by killing every term carrying an x or y power.
    """

    def __init__(self, q, r, zeta):
        self.q = frac(q)
        self.r = frac(r)
        self.zeta = frac(zeta)
        # a rational is a root of unity exactly when it is 1 or -1
        if self.q in (0, 1, -1):
            raise ValueError(f"q = {self.q} is zero or a root of unity")

    @classmethod
    def for_algebra(cls, alg: GwaAlgebra, zeta) -> "CyclicTrace":
        """Validating constructor: 0 and zeta must both be roots of p."""
        zeta = frac(zeta)
        if alg.p.constant_term != 0:
            raise ValueError("the defining polynomial must have 0 as a root")
        if alg.p(zeta) != 0:
            raise ValueError(f"zeta = {zeta} is not a root of the defining polynomial")
        return cls(alg.q, alg.r, zeta)

    def coeffs(self, n: int) -> tuple[Fraction, ...]:
        """Coefficient vector (c_1, ..., c_n) of the degree-n moment.

        The value on z^n is sum_i c_i zeta^i / (1 - q^n), so c is (1 - q^n)
        times the solution of F - F(qz + r) = z^n; c_n = 1, and for r = 0
        only c_n survives.
        """
        if n < 1:
            raise ValueError("moment coefficients are defined for n >= 1")
        scale = 1 - self.q**n
        solve = _antidifference(self.q, self.r, UniPoly({n: 1})).coeffs
        return tuple(scale * solve.get(i, Fraction(0)) for i in range(1, n + 1))

    def on_poly(self, f: UniPoly) -> Fraction:
        """Value on a polynomial in z: F(zeta), F the solve for f with F(0) = 0."""
        return _antidifference(self.q, self.r, f)(self.zeta)

    def __call__(self, e: GwaElem) -> Fraction:
        if e.alg.q != self.q or e.alg.r != self.r:
            raise AlgebraMismatch("element algebra does not match the trace parameters")
        return self.on_poly(e.poly_part())

    def __repr__(self) -> str:
        return f"CyclicTrace(q={self.q}, r={self.r}, zeta={self.zeta})"


def record_check(checks: list[dict], name: str, params: dict, expected, got) -> dict:
    """Append one check record (the JSON-line shape the CLI emits) and return it.

    The record's "pass" is the one carrier of its verdict.
    """
    record = {"check": name, "params": params, "expected": str(expected), "got": str(got),
              "pass": expected == got}
    checks.append(record)
    return record


# the largest sizes :func:`verify_trace` takes: it evaluates (bound + 1)^3
# closed-form commutators and traces 2 * pairs random products
MAX_TRACE_BOUND = 8
MAX_TRACE_PAIRS = 1000


def verify_trace(trace: CyclicTrace, alg: GwaAlgebra, bound: int = 3,
                 pairs: int = 50, rng: Optional[Random] = None) -> list[dict]:
    """Check the trace property on the closed-form commutators and random pairs.

    Evaluates the trace on the commutator spanning set for all n, k, l up to
    the bound, then on a * b - b * a for random degree-bounded pairs; returns
    one check record per evaluation.  Raises ValueError unless
    0 <= bound <= MAX_TRACE_BOUND and 0 <= pairs <= MAX_TRACE_PAIRS.
    """
    if bound < 0 or pairs < 0:
        raise ValueError(f"bound and pairs must be >= 0, got {bound} and {pairs}")
    if bound > MAX_TRACE_BOUND or pairs > MAX_TRACE_PAIRS:
        raise ValueError(f"bound must be <= {MAX_TRACE_BOUND} and pairs <= {MAX_TRACE_PAIRS}, "
                         f"got {bound} and {pairs}")
    rng = rng or Random(20260809)
    checks: list[dict] = []
    for n in range(bound + 1):
        for k in range(bound + 1):
            for l in range(bound + 1):
                got = trace(commutator_closed_form(alg, n, k, l))
                record_check(checks, "commutator-span-vanishes",
                             {"n": n, "k": k, "l": l}, Fraction(0), got)
    for i in range(pairs):
        a = random_gwa_elem(alg, rng)
        b = random_gwa_elem(alg, rng)
        got = trace(a * b) - trace(b * a)
        record_check(checks, "cyclicity", {"sample": i}, Fraction(0), got)
    return checks


def chern_pairings(amb: AmbientAlgebra, zetas, n: int) -> list[Fraction]:
    """Trace of the level-n idempotent under the cyclic trace at each zeta.

    The trace at every zeta is built first, which checks that zeta is a
    nonzero root of p and that q is admissible; then the level-n trace
    polynomial is built once and each trace evaluates it.  Each value is
    the integer index of the level-n module (equal to -n).
    """
    alg = amb.gwa()
    traces = []
    for zeta in map(frac, zetas):
        if zeta == 0:
            raise ValueError("the pairing needs a nonzero root of p")
        traces.append(CyclicTrace.for_algebra(alg, zeta))
    e = idempotent_trace(amb, n)
    return [t.on_poly(e) for t in traces]


def chern_pairing(amb: AmbientAlgebra, zeta, n: int) -> Fraction:
    """The one-root case of :func:`chern_pairings`."""
    return chern_pairings(amb, [zeta], n)[0]
