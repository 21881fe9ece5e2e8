"""Strong-connection tensors, line-bundle idempotents and their traces.

A strongly graded algebra admits tensors in degree (-1, +1) and (+1, -1)
whose multiplication evaluates to 1; iterating them produces a tensor for
every level n, the matrix of leg products is an idempotent over the
degree-zero part, and its trace is a polynomial in z whose pairing with the
cyclic trace computes an integer index.

Degrees here are counted in Veronese units: level n means ambient degree
n*k on the right legs and -n*k on the left legs.

Two fixed caps bound the cost of a level.  The level-n tensor has 2^|n|
pairs, so :func:`connection_power` and :func:`connection_power_alt` (and
with them :func:`idempotent_trace` and the index pairing) take
|n| <= MAX_LEVEL.  The idempotent matrix has 4^|n| entries and squaring it
forms 8^|n| products, so :func:`idempotent` takes |n| <= MAX_IDEMPOTENT_LEVEL.
A level beyond its cap raises ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .ambient import AmbientAlgebra, AmbientElem, project_degree_zero
from .gwa import GwaElem
from .poly import PairPoly, UniPoly, _integer_terms

# the largest levels whose tensor, and whose idempotent square, take seconds
# rather than minutes (see the module docstring for the growth of each)
MAX_LEVEL = 7
MAX_IDEMPOTENT_LEVEL = 5


@dataclass(frozen=True)
class Tensor2:
    """A formal sum of left (x) right leg pairs with homogeneous legs.

    ``bidegree`` records the Veronese degrees of the (left, right) legs.
    Equality is structural on the canonical form, which expands both legs
    into basis monomials and merges equal pairs.
    """

    alg: AmbientAlgebra
    pairs: tuple[tuple[AmbientElem, AmbientElem], ...]
    bidegree: tuple[int, int]

    def __post_init__(self):
        kept = []
        dl, dr = self.bidegree
        k = self.alg.k
        for left, right in self.pairs:
            if left.is_zero() or right.is_zero():
                continue
            if not left.is_homogeneous(dl * k) or not right.is_homogeneous(dr * k):
                raise ValueError("tensor legs must be homogeneous of the recorded degrees")
            kept.append((left, right))
        object.__setattr__(self, "pairs", tuple(kept))

    def canonical(self) -> dict:
        """Monomial-level expansion keyed by (left monomial, right monomial)."""
        out: dict[tuple, Fraction] = {}
        for left, right in self.pairs:
            for ml, cl in left.monomials().items():
                for mr, cr in right.monomials().items():
                    key = (ml, mr)
                    v = out.get(key, Fraction(0)) + cl * cr
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Tensor2):
            return self.alg == other.alg and self.canonical() == other.canonical()
        return NotImplemented


def _geometric_sum(amb: AmbientAlgebra) -> UniPoly:
    """G(z) = sum_{i<k} (z h(z))^i pt(0)^(k-1-i), so pt(0)^k - (z h(z))^k = pt(z) G(z)."""
    pt0, zh = amb.p_reduced.constant_term, UniPoly.gen() * amb.p_tail
    return sum((zh**i * pt0 ** (amb.k - 1 - i) for i in range(amb.k)), UniPoly.zero())


def _level_one(amb: AmbientAlgebra, sign: int) -> Tensor2:
    """The level-one connection tensor, legs in degrees (-sign, sign).

    With p = z^k pt, pt(z) = pt(0) - z h(z), q = q_plus q_minus and z
    standing for z+ z-, the lowering tensor (sign 1) is

        (1/pt(0)^k) [ q^k h(qz)^k z-^k  (x)  z+^k
                      + x-  (x)  G(z) x+ ]

    where G(z) = sum_{i<k} z^i h(z)^i pt(0)^{k-1-i}, and the raising
    tensor (sign -1) is

        (1/pt(0)^k) [ h(z)^k z+^k  (x)  z-^k
                      + x+  (x)  Q(z) x- ]

    with Q = (pt(0)^k - q^k z^k h(qz)^k) / pt(qz) = G(qz): with a = pt(0)
    and u = pt(qz) = a - qz h(qz), a^k - (a - u)^k = u sum_{i<k} a^(k-1-i) (a - u)^i.
    """
    k, q = amb.k, amb.q
    scale = amb.p_reduced.constant_term ** (-k)
    geo = _geometric_sum(amb)
    if sign > 0:
        h, c, (a, b) = amb.p_tail.compose_linear(q, 0), q**k, (0, k)
        x_left, x_right = amb.x_minus(), amb.x_plus()
    else:
        h, c, (a, b), geo = amb.p_tail, 1, (k, 0), geo.compose_linear(q, 0)
        x_left, x_right = amb.x_plus(), amb.x_minus()
    left1 = amb.from_pair(PairPoly.diagonal(h**k * (c * scale)) * PairPoly.monomial(a, b))
    right1 = amb.basis_elem(0, b, a)
    pairs = ((left1, right1), (x_left * scale, amb.from_z_poly(geo) * x_right))
    return Tensor2(amb, pairs, (-sign, sign))


def _check_level(n: int, cap: int, base: int, what: str):
    if abs(n) > cap:
        raise ValueError(f"level {n} needs {base}^{abs(n)} {what}; the cap is |n| <= {cap}")


def _wrap_levels(amb: AmbientAlgebra, n: int, inner_level, wrap) -> Tensor2:
    """The level-n tensor: ``wrap(step, inner)`` lists the products of the
    level-one pairs and the pairs of ``inner_level(amb, n -+ 1)``.

    ``inner_level`` is the public caller itself, so each level is one call
    of it, as perfbench's traced run counts them.
    """
    _check_level(n, MAX_LEVEL, 2, "tensor pairs")
    if n == 0:
        return Tensor2(amb, ((amb.one(), amb.one()),), (0, 0))
    sign = 1 if n > 0 else -1
    step = _level_one(amb, sign)
    inner = inner_level(amb, n - sign)
    return Tensor2(amb, wrap(step.pairs, inner.pairs), (-n, n))


def connection_power(amb: AmbientAlgebra, n: int) -> Tensor2:
    """The level-n tensor built by wrapping the level-one legs outside.

    Level 0 is 1 (x) 1; positive levels wrap the lowering tensor, negative
    levels the raising one.  The pair count doubles with each level.
    """
    return _wrap_levels(amb, n, connection_power, lambda step, inner: tuple(
        (wl * left, right * wr) for wl, wr in step for left, right in inner))


def connection_power_alt(amb: AmbientAlgebra, n: int) -> Tensor2:
    """The level-n tensor built by wrapping the level-one legs inside.

    Equal to :func:`connection_power` as a canonical tensor; computing both
    and comparing is a consistency check on the recursion.
    """
    return _wrap_levels(amb, n, connection_power_alt, lambda step, inner: tuple(
        (left * wl, wr * right) for left, right in inner for wl, wr in step))


def check_connection(t: Tensor2) -> bool:
    """True iff the sum of leg products is exactly 1."""
    out = t.alg.zero()
    for left, right in t.pairs:
        out = out + left * right
    return out == t.alg.one()


@dataclass(frozen=True)
class IdemMatrix:
    """Matrix of right-leg times left-leg products over the degree-zero part."""

    n: int
    entries: tuple[tuple[GwaElem, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def matmul(self, other: "IdemMatrix") -> "IdemMatrix":
        mat, n = other.entries, other.size
        rows = tuple(
            tuple(sum((row[l] * mat[l][j] for l in range(1, n)), row[0] * mat[0][j])
                  for j in range(n))
            for row in self.entries
        )
        return IdemMatrix(self.n, rows)

    def is_idempotent(self) -> bool:
        return self.matmul(self).entries == self.entries

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "size": self.size,
            "entries": [[str(e) for e in row] for row in self.entries],
        }


def idempotent(amb: AmbientAlgebra, n: int) -> IdemMatrix:
    """The idempotent presenting the level-n module over the degree-zero part.

    Entry (i, j) is the projection of right leg i times left leg j; the
    connection identity at level n makes the matrix square to itself.
    """
    _check_level(n, MAX_IDEMPOTENT_LEVEL, 4, "idempotent entries")
    t = connection_power(amb, n)
    rows = tuple(
        tuple(project_degree_zero(amb, right_i * left_j) for left_j, _ in t.pairs)
        for _, right_i in t.pairs
    )
    return IdemMatrix(n, rows)


def idempotent_trace(amb: AmbientAlgebra, n: int) -> UniPoly:
    """Trace of the level-n idempotent as a polynomial in z = z+ z-.

    Computed as the sum of right-leg times left-leg diagonal products; the
    result lies in the base ring and is diagonal in z+, z-, anything else
    indicates a bug.
    """
    t = connection_power(amb, n)
    acc = amb.zero()
    for left, right in t.pairs:
        acc = acc + right * left
    if not acc.is_poly():
        raise RuntimeError("internal error: idempotent trace has generator terms")
    return acc.poly_part().as_diagonal()


def idempotent_trace_recursive(amb: AmbientAlgebra, n: int) -> UniPoly:
    """The trace polynomial by pure polynomial recursion, levels n >= 1.

    With c = pt(0)^k, h the tail of pt and q the grading parameter, put

        A(z) = 1 - h(z)^k z^k / c,    B(z) = q^k h(qz)^k z^k / c.

    Then e_0 = 1 and e_{m+1}(z) = A(z) e_m(z/q) + B(z) e_m(z), so that
    e_1 = A + B.  The levels run fraction-free: e_m is kept as integer
    numerators N_d over one denominator den.  With q = qn/qd and top the
    highest index kept, e_m(z/q) and e_m both lie over den * qn^top, with
    numerators N_d qd^d qn^(top-d) and N_d qn^top; one pass convolves them
    with the fixed integer numerators of A and B.  Only the result is
    normalized, one ``Fraction`` per coefficient.

    Independent of the tensor machinery; serves as its oracle.
    """
    if n < 1:
        raise ValueError("recursive trace is defined for n >= 1")
    k = amb.k
    c = amb.p_reduced.constant_term**k
    hz = amb.p_tail**k * UniPoly({k: 1 / c})
    a_terms, a_den = _integer_terms((UniPoly.one() - hz).coeffs)
    b_terms, b_den = _integer_terms(hz.compose_linear(amb.q, 0).coeffs)
    ab_den = lcm(a_den, b_den)
    a_terms = [(i, v * (ab_den // a_den)) for i, v in a_terms]
    b_terms = [(i, v * (ab_den // b_den)) for i, v in b_terms]
    width = max(i for i, _ in a_terms + b_terms) + 1
    qn, qd = amb.q.numerator, amb.q.denominator
    nums, den = [1], 1
    for _ in range(n):
        top = len(nums) - 1
        b_level = [(i, w * qn**top) for i, w in b_terms]
        out = [0] * (top + width)
        for d, v in enumerate(nums):
            shifted = v * (qd**d * qn ** (top - d))
            for i, w in a_terms:
                out[i + d] += w * shifted
            for i, w in b_level:
                out[i + d] += w * v
        nums, den = out, den * qn**top * ab_den
    return UniPoly({d: Fraction(v, den) for d, v in enumerate(nums) if v})


def unit_in_degree(amb: AmbientAlgebra, n: int
                   ) -> Optional[tuple[AmbientElem, AmbientElem]]:
    """A verified unit of Veronese degree n, when p has no nonzero root.

    In that case pt is a nonzero constant c, so x+ x- = x- x+ = c and
    x+^n is a unit with inverse x-^n / c^n.  Returns (unit, inverse) or
    None when pt is not constant; absence of a unit is not decided here.
    """
    if n == 0:
        return amb.one(), amb.one()
    if amb.p_reduced.degree() != 0:
        return None
    c = amb.p_reduced.constant_term
    u = amb.x_plus() ** n if n > 0 else amb.x_minus() ** (-n)
    u_inv = (amb.x_minus() ** n if n > 0 else amb.x_plus() ** (-n)) * c ** (-abs(n))
    if u * u_inv != amb.one() or u_inv * u != amb.one():
        raise RuntimeError("internal error: constructed unit failed verification")
    return u, u_inv
