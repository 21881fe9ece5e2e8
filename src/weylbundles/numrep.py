"""Floating-point matrix realizations of the defining relations.

These are finite truncations of the infinite-dimensional representation
attached to a root zeta of p (for 0 < q < 1, r = 0), kept as bands, plus the
scalar one-dimensional representations at the fixed point of the line
automorphism.  The truncation breaks the relations on the last basis
vectors, so residuals are reported over interior indices only.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .gwa import GwaAlgebra
from .poly import frac


def _p_float(coeffs: Mapping[int, Fraction], v: float) -> float:
    """p(v) in floating point, term by term in the order of ``coeffs``."""
    return sum(float(c) * v**d for d, c in coeffs.items())


# the largest relation residual that passes, for the scalar and the
# truncated representations
SCALAR_TOLERANCE = 1e-12
TRUNCATED_TOLERANCE = 1e-10


def one_dim_rep(alg: GwaAlgebra, lam: int = 1) -> dict[str, float]:
    """Scalar representation at the fixed point z = r/(1-q); lam is +1 or -1.

    The radicand p(r/(1-q)) is checked exactly and must be >= 0.
    """
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    if alg.q == 1:
        raise ValueError("one-dimensional representation needs q != 1")
    z0 = alg.r / (1 - alg.q)
    radicand = alg.p(z0)
    if radicand < 0:
        raise ValueError(f"p({z0}) = {radicand} < 0: no real representation")
    x = lam * math.sqrt(float(radicand))
    return {"z": float(z0), "x": x, "y": x}


def one_dim_residuals(alg: GwaAlgebra, rep: dict[str, float]) -> dict[str, float]:
    """Absolute defect of each defining relation on a scalar representation."""
    q, r = float(alg.q), float(alg.r)
    x, y, z = rep["x"], rep["y"], rep["z"]
    return {
        "xy": abs(x * y - _p_float(alg.p.coeffs, q * z + r)),
        "yx": abs(y * x - _p_float(alg.p.coeffs, z)),
        "xz": abs(x * z - (q * z + r) * x),
        "yz": abs(y * z - (z - r) / q * y),
    }


@dataclass(eq=False)
class TruncatedRep:
    """Bands of x, y, z on the orbit q^j zeta, j = 0..dim-1: ``z[j]`` is entry
    (j, j) of z, ``x[j]`` entry (j-1, j) of x with ``x[0] = 0.0``, and y = x^T."""

    dim: int
    q: Fraction
    p_coeffs: dict[int, Fraction]
    x: list[float]
    z: list[float]

    def p_at(self, v: float) -> float:
        return _p_float(self.p_coeffs, v)


# the largest truncation :func:`truncated_rep` builds: it forms q^j zeta exactly
# for every j up to dim, and a CSV dump is three dense dim x dim files
MAX_DIM = 1024


def truncated_rep(alg: GwaAlgebra, zeta, dim: int) -> TruncatedRep:
    """Bands with z diagonal on the orbit and x lowering the index.

    Requires r = 0, 0 < q < 1, 3 <= dim <= MAX_DIM, a root zeta of p and
    p(q^j zeta) > 0 for j = 1..dim, all checked exactly: at a non-root,
    yx = p(z) fails on the first basis vector, which the interior residuals
    never see.  Only finitely many positivity conditions are checked, which
    the report records.
    """
    if alg.r != 0:
        raise ValueError("truncated representation needs r = 0")
    if not (0 < alg.q < 1):
        raise ValueError(f"truncated representation needs q in (0, 1), got {alg.q}")
    if dim < 3:
        raise ValueError(f"dimension must be >= 3 so the truncation has an interior "
                         f"index, got {dim}")
    if dim > MAX_DIM:
        raise ValueError(f"dimension must be <= {MAX_DIM}, got {dim}: q^j zeta is "
                         "formed exactly for every j up to dim")
    zeta = frac(zeta)
    orbit = [alg.q**j * zeta for j in range(dim + 1)]
    values = [alg.p(w) for w in orbit]
    if values[0] != 0:
        raise ValueError(f"zeta = {zeta} is not a root of p: p(zeta) = {values[0]}")
    for j in range(1, dim + 1):
        if values[j] <= 0:
            raise ValueError(f"p(q^{j} zeta) = {values[j]} <= 0 at index {j}")
    return TruncatedRep(
        dim=dim, q=alg.q, p_coeffs=dict(alg.p.coeffs),
        x=[0.0] + [math.sqrt(float(v)) for v in values[1:dim]],
        z=[float(w) for w in orbit[:dim]],
    )


def dump_matrices_csv(rep: TruncatedRep, directory: str) -> list[str]:
    """Write the dense x, y, z matrices as CSV files of "%.18e" floats; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    n = rep.dim
    bands = {"x": {(j - 1, j): rep.x[j] for j in range(1, n)},
             "y": {(j, j - 1): rep.x[j] for j in range(1, n)},
             "z": {(j, j): rep.z[j] for j in range(n)}}
    paths = []
    for name, band in bands.items():
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(",".join("%.18e" % band.get((i, k), 0.0) for k in range(n)) + "\n")
        paths.append(path)
    return paths


def relation_residuals(rep: TruncatedRep) -> dict:
    """Max column norms of the four relation defects over interior indices.

    Interior means basis vectors 1..dim-2; the boundary columns are excluded
    because the truncation breaks the relations there by construction.  Each
    defect has one nonzero entry per column, so that entry's size is the column
    norm; it is computed in the float order of dense ``x @ z - (q * z) @ x`` etc.
    """
    q = float(rep.q)
    x, z = rep.x, rep.z
    entries = {
        "xy": lambda j: x[j + 1] * x[j + 1] - rep.p_at(q * z[j]),
        "yx": lambda j: x[j] * x[j] - rep.p_at(z[j]),
        "xz": lambda j: x[j] * z[j] - (q * z[j - 1]) * x[j],
        "yz": lambda j: x[j + 1] * z[j] - ((1 / q) * z[j + 1]) * x[j + 1],
    }
    interior = range(1, rep.dim - 1)
    return {
        "relations": {name: max(abs(entry(j)) for j in interior)
                      for name, entry in entries.items()},
        "interior_indices": [1, rep.dim - 2],
        "positivity_checked_upto": rep.dim,
    }
