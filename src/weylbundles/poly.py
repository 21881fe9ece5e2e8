"""Exact scalars, sparse polynomials and the affine line automorphism.

Everything here is immutable after construction and every operation is a
pure function, so values are safe to share across threads.  The coefficient
field is the rationals, realized as :class:`fractions.Fraction` (always in
lowest terms, positive denominator, parses and prints as ``"a/b"``).

Storage stays ``Fraction``, but products and :meth:`UniPoly.compose_linear`
run fraction-free, in the layout of FLINT's ``fmpq_poly``: each operand is
brought to integer numerators over one common denominator, the inner loop
adds and multiplies plain ints, and each output coefficient is normalized
once, as ``Fraction(numerator, denominator)``.  A shift with no constant
term maps each coefficient to one and stays a ``Fraction`` product.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping

# the highest power of z an input may ask for: an exponent in an expression
# (``expr``) or the degree of p (``config``); cost grows steeply above it
MAX_EXPONENT = 64


def frac(x) -> Fraction:
    """Coerce an int, Fraction or string like ``"3/4"`` to an exact rational.

    Floats and booleans are rejected: the engines are exact end to end.  A
    string with a zero denominator is malformed input and raises ``ValueError``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def _integer_terms(coeffs: Mapping) -> tuple[list, int]:
    """``coeffs`` as integer numerators over the lcm ``den`` of its denominators:
    ``(terms, den)`` with ``coeffs[k] == n / den`` for each ``(k, n)`` in ``terms``."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    return [(k, c.numerator * (den // c.denominator)) for k, c in coeffs.items()], den


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
    places where the key type matters.  Both product loops run on the integer
    numerators of :func:`_integer_terms` and drop a key as soon as its running
    sum cancels, so ``coeffs`` keeps the key order of a plain ``Fraction`` loop
    (``numrep`` sums floats in that order).
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
        left, den1 = _integer_terms(self.coeffs)
        right, den2 = _integer_terms(other.coeffs)
        data: dict[int, int] = {}
        for d1, n1 in left:
            for d2, n2 in right:
                d = d1 + d2
                v = data.get(d, 0) + n1 * n2
                if v:
                    data[d] = v
                else:
                    del data[d]
        den = den1 * den2
        return UniPoly._make({d: Fraction(v, den) for d, v in data.items()})

    def __call__(self, x) -> Fraction:
        x = frac(x)
        return sum((c * x**d for d, c in self.coeffs.items()), Fraction(0))

    def compose_linear(self, a, b) -> "UniPoly":
        """Substitute ``z -> a*z + b``: by the binomial theorem ``c*z^d`` becomes
        ``c * sum_i C(d, i) a^i b^(d-i) z^i``, the one term ``c*a^d*z^d`` if b = 0.

        The expansion runs on ints: with ``a = an/ad`` and ``b = bn/bd``, every
        term lies over ``den * (ad*bd)^top``, for ``den`` the common denominator
        of the coefficients and top the degree, and ``a^i b^j`` contributes
        ``an^i ad^(top-i) bn^j bd^(top-j)`` to the numerator.  For b = 0 nothing
        accumulates, and the ``Fraction`` product's two cross gcds are cheaper
        on large coefficients than one gcd of the integer products."""
        a, b = frac(a), frac(b)
        if not b:
            return UniPoly._make({d: v for d, c in self.coeffs.items() if (v := c * a**d)})
        terms, den = _integer_terms(self.coeffs)
        top = max(self.coeffs, default=0)
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        bpow = [bn**j * bd ** (top - j) for j in range(top + 1)]
        data: dict[int, int] = {}
        for d, n in terms:
            for i in range(d + 1):
                data[i] = data.get(i, 0) + n * comb(d, i) * bpow[d - i]
        den *= (ad * bd) ** top
        return UniPoly._make({i: Fraction(w, den) for i, v in data.items()
                              if (w := v * an**i * ad ** (top - i))})

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
    return k, UniPoly({d - k: c for d, c in p.coeffs.items()})


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
        left, den1 = _integer_terms(self.coeffs)
        right, den2 = _integer_terms(other.coeffs)
        data: dict[tuple[int, int], int] = {}
        for (a1, b1), n1 in left:
            for (a2, b2), n2 in right:
                k = (a1 + a2, b1 + b2)
                v = data.get(k, 0) + n1 * n2
                if v:
                    data[k] = v
                else:
                    del data[k]
        den = den1 * den2
        return PairPoly._make({k: Fraction(v, den) for k, v in data.items()})

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
