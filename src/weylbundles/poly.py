"""Exact scalars, sparse polynomials and the affine line automorphism.

Everything here is immutable after construction and every operation is a
pure function, so values are safe to share across threads.  The coefficient
field is the rationals, realized as :class:`fractions.Fraction` (always in
lowest terms, positive denominator, parses and prints as ``"a/b"``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

# the highest power of z an input may ask for: an exponent in an expression
# (``expr``) or the degree of p (``config``); cost grows steeply above it
MAX_EXPONENT = 64


def frac(x) -> Fraction:
    """Coerce an int, Fraction or string like ``"3/4"`` to an exact rational.

    Floats are rejected: the engines are exact end to end.  A string with a
    zero denominator is malformed input and raises ``ValueError``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def _format_terms(pieces: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial) pieces as ``"a - 3*b + c"``."""
    out: list[str] = []
    for coeff, mono in pieces:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(out) if out else "0"


class _SparsePoly:
    """Arithmetic shared by the sparse polynomial types.

    ``coeffs`` maps exponent keys to nonzero coefficients and ``_UNIT`` is
    the key of the constant monomial.  Each subclass keeps its own
    ``__init__`` (key validation) and product loop (key addition), the two
    places where the key type matters.
    """

    __slots__ = ("coeffs",)
    _UNIT: object

    @classmethod
    def _make(cls, data: dict) -> "_SparsePoly":
        """Wrap an already normalized key -> coefficient dict."""
        out = cls.__new__(cls)
        out.coeffs = data
        return out

    @classmethod
    def zero(cls):
        return cls._make({})

    @classmethod
    def one(cls):
        return cls._make({cls._UNIT: Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = data.get(k, Fraction(0)) + c
            if v:
                data[k] = v
            else:
                data.pop(k, None)
        return self._make(data)

    def __neg__(self):
        return self._make({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def _scale(self, other):
        c = frac(other)
        return self._make({} if not c else {k: v * c for k, v in self.coeffs.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class UniPoly(_SparsePoly):
    """Sparse polynomial in one variable ``z`` with rational coefficients.

    Stored as a degree -> coefficient map with no explicit zeros.  The zero
    polynomial has ``degree() is None``.
    """

    __slots__ = ()
    _UNIT = 0

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        data: dict[int, Fraction] = {}
        if coeffs:
            for d, c in coeffs.items():
                c = frac(c)
                if c:
                    d = int(d)
                    if d < 0:
                        raise ValueError("polynomial exponents must be >= 0")
                    data[d] = data.get(d, Fraction(0)) + c
                    if not data[d]:
                        del data[d]
        self.coeffs = data

    # -- constructors -------------------------------------------------
    @classmethod
    def gen(cls) -> "UniPoly":
        return cls({1: 1})

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls({0: frac(c)})

    @classmethod
    def from_coeff_list(cls, coeffs: Iterable[object]) -> "UniPoly":
        """Build from ascending coefficients, ``[c0, c1, ...]``."""
        return cls({d: c for d, c in enumerate(coeffs)})

    # -- structure ----------------------------------------------------
    def degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    # -- arithmetic ---------------------------------------------------
    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return self._scale(other)
        data: dict[int, Fraction] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                v = data.get(d, Fraction(0)) + c1 * c2
                if v:
                    data[d] = v
                else:
                    del data[d]
        return UniPoly._make(data)

    def __call__(self, x) -> Fraction:
        x = frac(x)
        return sum((c * x**d for d, c in self.coeffs.items()), Fraction(0))

    def compose_linear(self, a, b) -> "UniPoly":
        """Substitute ``z -> a*z + b``: by the binomial theorem ``c*z^d`` becomes
        ``c * sum_i C(d, i) a^i b^(d-i) z^i``, the one term ``c*a^d*z^d`` if b = 0."""
        a, b = frac(a), frac(b)
        if not b:
            return UniPoly._make({d: v for d, c in self.coeffs.items() if (v := c * a**d)})
        data: dict[int, Fraction] = {}
        for d, c in self.coeffs.items():
            for i in range(d + 1):
                data[i] = data.get(i, Fraction(0)) + c * comb(d, i) * a**i * b ** (d - i)
        return UniPoly._make({i: v for i, v in data.items() if v})

    def shift_down(self, k: int) -> "UniPoly":
        """Exact division by ``z^k``; requires every exponent >= k."""
        if any(d < k for d in self.coeffs):
            raise ValueError(f"not divisible by z^{k}")
        return UniPoly({d - k: c for d, c in self.coeffs.items()})

    # -- output ---------------------------------------------------------
    def __str__(self) -> str:
        pieces = []
        for d in sorted(self.coeffs):
            mono = "" if d == 0 else ("z" if d == 1 else f"z^{d}")
            pieces.append((self.coeffs[d], mono))
        return _format_terms(pieces)


def poly_divmod(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division over the rationals; returns (quotient, remainder)."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quo: dict[int, Fraction] = {}
    rem = UniPoly(dict(num.coeffs))
    dd = den.degree()
    lead = den.coeffs[dd]
    while rem and rem.degree() >= dd:
        rd = rem.degree()
        c = rem.coeffs[rd] / lead
        quo[rd - dd] = c
        rem = rem - den * UniPoly({rd - dd: c})
    return UniPoly(quo), rem


@dataclass(frozen=True)
class AffineAuto:
    """The automorphism z -> q*z + r of the polynomial ring, with its powers."""

    q: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", frac(self.q))
        object.__setattr__(self, "r", frac(self.r))
        if self.q == 0:
            raise ValueError("automorphism needs q != 0")

    def power_image(self, j: int) -> tuple[Fraction, Fraction]:
        """Coefficients (a, b) with the j-th power sending z to a*z + b."""
        a = self.q**j
        if self.q == 1:
            b = j * self.r
        else:
            b = self.r * (a - 1) / (self.q - 1)
        return a, b

    def apply(self, j: int, f: UniPoly) -> UniPoly:
        """f composed with the j-th power of the automorphism (j may be negative)."""
        return f.compose_linear(*self.power_image(j))


def auto_shift_product(p: UniPoly, auto: AffineAuto, n: int) -> UniPoly:
    """Product of the first n backward shifts of p.

    Term m of the product is p composed with the (-m)-th automorphism power,
    m = 0..n-1; the empty product (n = 0) is 1.  This is the polynomial value
    of y^n x^n in the generalized Weyl algebra.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    result = UniPoly.one()
    for m in range(n):
        result = result * auto.apply(-m, p)
    return result


def factor_zero_root(p: UniPoly) -> tuple[int, UniPoly]:
    """Split off the root at zero: p = z^k * cofactor with cofactor(0) != 0."""
    if not p:
        raise ValueError("undefined factorization: zero polynomial")
    k = min(p.coeffs)
    return k, p.shift_down(k)


def tail_decompose(pt: UniPoly) -> UniPoly:
    """The tail h of pt, defined by pt(z) = pt(0) - z*h(z)."""
    return UniPoly({d - 1: -c for d, c in pt.coeffs.items() if d >= 1})


class PairPoly(_SparsePoly):
    """Sparse polynomial in the commuting pair z+, z- over the rationals.

    Keys are (a, b) exponent pairs of z+^a z-^b, both >= 0.
    """

    __slots__ = ()
    _UNIT = (0, 0)

    def __init__(self, coeffs: Mapping[tuple[int, int], object] | None = None):
        data: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (a, b), c in coeffs.items():
                c = frac(c)
                if c:
                    a, b = int(a), int(b)
                    if a < 0 or b < 0:
                        raise ValueError("exponents must be >= 0")
                    key = (a, b)
                    data[key] = data.get(key, Fraction(0)) + c
                    if not data[key]:
                        del data[key]
        self.coeffs = data

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "PairPoly":
        return cls({(a, b): c})

    @classmethod
    def diagonal(cls, f: UniPoly) -> "PairPoly":
        """Image of a one-variable polynomial under z -> z+ z-."""
        return cls({(d, d): c for d, c in f.coeffs.items()})

    def as_diagonal(self) -> UniPoly:
        """Inverse of :meth:`diagonal`; fails on off-diagonal monomials."""
        for a, b in self.coeffs:
            if a != b:
                raise ValueError(f"monomial zp^{a}*zm^{b} is not a power of zp*zm")
        return UniPoly({a: c for (a, _), c in self.coeffs.items()})

    def twist(self, u, v) -> "PairPoly":
        """Rescale generators: z+ -> u*z+, z- -> v*z-."""
        u, v = frac(u), frac(v)
        return PairPoly({(a, b): c * u**a * v**b for (a, b), c in self.coeffs.items()})

    def __mul__(self, other) -> "PairPoly":
        if not isinstance(other, PairPoly):
            return self._scale(other)
        data: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                k = (a1 + a2, b1 + b2)
                v = data.get(k, Fraction(0)) + c1 * c2
                if v:
                    data[k] = v
                else:
                    del data[k]
        return PairPoly._make(data)

    def __str__(self) -> str:
        pieces = []
        for a, b in sorted(self.coeffs, key=lambda k: (k[0] + k[1], k[0], k[1])):
            parts = []
            if a:
                parts.append("zp" if a == 1 else f"zp^{a}")
            if b:
                parts.append("zm" if b == 1 else f"zm^{b}")
            pieces.append((self.coeffs[(a, b)], "*".join(parts)))
        return _format_terms(pieces)
