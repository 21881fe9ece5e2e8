"""Cyclic traces on the generalized Weyl algebra and the index pairing.

For every root zeta of p (with 0 also a root and q not a root of unity,
i.e. q outside {0, 1, -1} over the rationals) there is a trace that kills
all x/y monomials and all constants.  On polynomials in z it is fixed by
the shift identity tau(f) - tau(f(qz + r)) = f(zeta) - f(0): solving
F - F(qz + r) = f up to constants by one triangular back substitution
gives tau(f) = F(zeta) - F(0).  Pairing it with the idempotent traces of
:mod:`weylbundles.connection` yields the integer -n at level n.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random
from typing import Optional

from .ambient import AmbientAlgebra
from .connection import idempotent_trace
from .gwa import AlgebraMismatch, GwaAlgebra, GwaElem, commutator_closed_form
from .poly import UniPoly, frac
from .sampling import random_gwa_elem


def _check_q_admissible(q: Fraction):
    # a rational is a root of unity exactly when it is 1 or -1
    if q in (0, 1, -1):
        raise ValueError(f"q = {q} is zero or a root of unity")


def _shift_antidifference(q: Fraction, r: Fraction, f: dict[int, Fraction]) -> list[Fraction]:
    """Coefficients [0, a_1, ..., a_d] of an F with F - F(qz + r) - f constant.

    The z^i coefficient of F - F(qz + r) is (1 - q^i) a_i minus the sum over
    j > i of C(j, i) q^i r^(j-i) a_j: a triangular system whose diagonal is
    nonzero for i >= 1 because q is not a root of unity.  It is solved from
    the top degree down; for r = 0 it is diagonal.
    """
    d = max(f, default=0)
    a = [Fraction(0)] * (d + 1)
    r_pows = [r**k for k in range(d + 1)] if r else None
    for i in range(d, 0, -1):
        rhs = f.get(i, Fraction(0))
        if r:
            rhs += q**i * sum((comb(j, i) * r_pows[j - i] * a[j] for j in range(i + 1, d + 1)),
                              Fraction(0))
        a[i] = rhs / (1 - q**i)
    return a


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
        _check_q_admissible(self.q)

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
        solve = _shift_antidifference(self.q, self.r, {n: Fraction(1)})
        return tuple(scale * a for a in solve[1:])

    def on_poly(self, f: UniPoly) -> Fraction:
        """Value on a polynomial in z: F(zeta) - F(0), F the solve for f, by Horner."""
        total = Fraction(0)
        for a in reversed(_shift_antidifference(self.q, self.r, f.coeffs)[1:]):
            total = (total + a) * self.zeta
        return total

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

    Every zeta must be a nonzero root of p, and all are checked before the
    level-n trace polynomial is built, once for all of them.  Each value is
    the integer index of the level-n module (equal to -n).
    """
    zetas = [frac(zeta) for zeta in zetas]
    for zeta in zetas:
        if zeta == 0:
            raise ValueError("the pairing needs a nonzero root of p")
        if amb.p(zeta) != 0:
            raise ValueError(f"zeta = {zeta} is not a root of the defining polynomial")
    e = idempotent_trace(amb, n)
    return [CyclicTrace(amb.q, 0, zeta).on_poly(e) for zeta in zetas]


def chern_pairing(amb: AmbientAlgebra, zeta, n: int) -> Fraction:
    """The one-root case of :func:`chern_pairings`."""
    return chern_pairings(amb, [zeta], n)[0]
