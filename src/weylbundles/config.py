"""Run configurations and named presets.

A configuration fixes the defining polynomial p, the two grading parameters
q_plus and q_minus (q is their product), the shift r of the line
automorphism and the admissible nonzero roots of p used by the pairing.
Roots are listed explicitly; no root finding is ever performed.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .ambient import AmbientAlgebra
from .gwa import GwaAlgebra
from .poly import MAX_EXPONENT, UniPoly, frac

# the presets the acceptance sweep and the tests run on
PRESETS = ("sphere", "lens(2,1,2)", "kleinian-demo")


def _check_degree(degree: int) -> None:
    """Reject p above the one degree limit, before the cost of building it."""
    if degree > MAX_EXPONENT:
        raise ValueError(f"p has degree {degree}, larger than {MAX_EXPONENT}")


@dataclass(frozen=True)
class Config:
    name: str
    p: UniPoly
    q_plus: Fraction
    q_minus: Fraction
    r: Fraction = Fraction(0)
    zetas: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "q_plus", frac(self.q_plus))
        object.__setattr__(self, "q_minus", frac(self.q_minus))
        object.__setattr__(self, "r", frac(self.r))
        object.__setattr__(self, "zetas", tuple(frac(v) for v in self.zetas))
        if not self.p:
            raise ValueError("configuration needs p != 0")
        _check_degree(self.p.degree())
        for zeta in self.zetas:
            if self.p(zeta) != 0:
                raise ValueError(f"zeta = {zeta} is not a root of p")

    @property
    def q(self) -> Fraction:
        return self.q_plus * self.q_minus

    def gwa_algebra(self) -> GwaAlgebra:
        return GwaAlgebra(self.p, self.q, self.r)

    def ambient_algebra(self) -> AmbientAlgebra:
        if self.r != 0:
            raise ValueError("the graded ambient algebra needs r = 0")
        return AmbientAlgebra(self.p, self.q_plus, self.q_minus)

    def nonzero_zetas(self) -> tuple[Fraction, ...]:
        return tuple(z for z in self.zetas if z != 0)


def _integer(value) -> int:
    """An int, or a string of one; floats and booleans are rejected, as in ``frac``."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _array(value, key: str) -> list:
    """``value`` if it is a JSON array; nothing else is read as one."""
    if not isinstance(value, list):
        raise ValueError(f'config "{key}" must be a JSON array, got {type(value).__name__}')
    return value


def poly_from_roots(roots: list) -> UniPoly:
    """Build p from (root, multiplicity) pairs.

    Nonzero roots contribute normalized factors (1 - z/root)^mult and the
    root 0 contributes z^mult, so [[0, k], [rho, 1], ...] yields
    z^k * prod (1 - z/rho).  The multiplicities sum to the degree of p.
    """
    factors = [(frac(root), _integer(mult)) for root, mult in roots]
    if any(mult < 0 for _, mult in factors):
        raise ValueError("multiplicities must be >= 0")
    _check_degree(sum(mult for _, mult in factors))
    p = UniPoly.one()
    for root, mult in factors:
        if root == 0:
            factor = UniPoly.gen()
        else:
            factor = UniPoly({0: 1, 1: -1 / root})
        p = p * factor**mult
    return p


def config_from_dict(data: dict, name: str = "custom") -> Config:
    """Build a configuration from parsed JSON; a malformed one raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("q_plus", "q_minus") if key not in data]
    if missing:
        raise ValueError(f"config is missing {', '.join(missing)}")
    p_data = data.get("p")
    if not isinstance(p_data, dict) or ("roots" in p_data) == ("coeffs" in p_data):
        raise ValueError('config "p" must carry exactly one of "roots" or "coeffs"')
    zetas = data.get("zetas")
    if zetas is None:
        zeta = data.get("zeta")
        zetas = [zeta] if zeta is not None else []
    try:
        if "roots" in p_data:
            roots = _array(p_data["roots"], "roots")
            if not all(isinstance(pair, list) and len(pair) == 2 for pair in roots):
                raise ValueError('config "roots" must hold [root, multiplicity] arrays')
            p = poly_from_roots(roots)
        else:
            p = UniPoly.from_coeff_list([frac(c) for c in _array(p_data["coeffs"], "coeffs")])
        return Config(
            name=data.get("name", name),
            p=p,
            q_plus=frac(data["q_plus"]),
            q_minus=frac(data["q_minus"]),
            r=frac(data.get("r", "0")),
            zetas=tuple(frac(z) for z in _array(zetas, "zetas")),
        )
    except TypeError as exc:  # a float, a boolean, or an array where a number belongs
        raise ValueError(f"malformed config value: {exc}") from None


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh), name=path)


_LENS = re.compile(r"^lens\(\s*(\d+)\s*,\s*(\d+)\s*,\s*([0-9/]+)\s*\)$")


def preset(name: str) -> Config:
    """Named configurations.

    ``lens(k,l,q)``: p = z^k prod_{i<l} (1 - z/q^{2i}), grading parameters
    q^l on both sides (so the base parameter is q^{2l}), zetas q^{2i}.
    ``sphere``: ``lens(1,1,2)``, so p = z(1-z), q_plus = q_minus = 2, zeta = 1.
    ``kleinian-demo``: p = z^2 (1-z)(2-z), q_plus = 3, q_minus = 1,
    zetas 1 and 2.
    """
    if name == "sphere":
        return replace(preset("lens(1,1,2)"), name="sphere")
    match = _LENS.match(name)
    if match:
        k, l, q_str = int(match.group(1)), int(match.group(2)), match.group(3)
        base = frac(q_str)
        if k < 1 or l < 1:
            raise ValueError("lens preset needs k >= 1 and l >= 1")
        _check_degree(k + l)
        if base**(2 * l) in (0, 1, -1):
            raise ValueError("lens preset needs q with q^(2l) not 0 or a root of unity")
        roots = [["0", k]] + [[str(base ** (2 * i)), 1] for i in range(l)]
        return Config(
            name=name,
            p=poly_from_roots(roots),
            q_plus=base**l,
            q_minus=base**l,
            zetas=tuple(base ** (2 * i) for i in range(l)),
        )
    if name == "kleinian-demo":
        # z^2 (1 - z)(2 - z) expanded; not of the normalized roots form
        return Config(
            name="kleinian-demo",
            p=UniPoly.from_coeff_list([0, 0, 2, -3, 1]),
            q_plus=Fraction(3),
            q_minus=Fraction(1),
            zetas=(Fraction(1), Fraction(2)),
        )
    raise ValueError(
        f"unknown preset {name!r}; available: sphere, lens(k,l,q) such as "
        f"lens(2,1,2), kleinian-demo"
    )
