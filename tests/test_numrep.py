import math
import subprocess
import sys
from fractions import Fraction

import pytest

from weylbundles.config import PRESETS, preset
from weylbundles.gwa import GwaAlgebra
from weylbundles.numrep import (
    MAX_DIM,
    dump_matrices_csv,
    one_dim_rep,
    one_dim_residuals,
    relation_residuals,
    truncated_rep,
)
from weylbundles.poly import UniPoly

P_SPHERE = UniPoly({1: 1, 2: -1})


@pytest.fixture
def np():
    """numpy is a test-only oracle: the package itself never imports it."""
    return pytest.importorskip("numpy")


def dense(np, rep):
    """x, y, z as dense matrices, rebuilt from the bands."""
    x = np.zeros((rep.dim, rep.dim))
    for j in range(1, rep.dim):
        x[j - 1, j] = rep.x[j]
    return x, x.T.copy(), np.diag(rep.z)


def test_package_does_not_import_numpy():
    # nor any other package of the test extra: the runtime needs only the standard library
    code = ("import sys, weylbundles, weylbundles.cli, weylbundles.acceptance, "
            "weylbundles.numrep; "
            "sys.exit(sorted({'numpy', 'sympy', 'hypothesis'} & set(sys.modules)) or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_one_dim_rep_sphere():
    alg = GwaAlgebra(P_SPHERE, 4, 0)
    rep = one_dim_rep(alg, 1)
    assert rep == {"z": 0.0, "x": 0.0, "y": 0.0}
    assert max(one_dim_residuals(alg, rep).values()) < 1e-12


def test_one_dim_rep_fixed_point():
    alg = GwaAlgebra(UniPoly({2: 1, 1: -2}), Fraction(1, 2), 1)   # p = (z - 2) z
    for lam in (1, -1):
        rep = one_dim_rep(alg, lam)
        assert rep["z"] == 2.0 and rep["x"] == 0.0
        assert max(one_dim_residuals(alg, rep).values()) < 1e-12


def test_one_dim_rep_nonzero_value():
    alg = GwaAlgebra(UniPoly({0: 4}), 3, 0)       # p constant 4, fixed point 0
    rep = one_dim_rep(alg, -1)
    assert rep["x"] == -2.0
    assert max(one_dim_residuals(alg, rep).values()) < 1e-12


def test_one_dim_rep_errors():
    with pytest.raises(ValueError):
        one_dim_rep(GwaAlgebra(P_SPHERE, 1, 0), 1)
    negative = GwaAlgebra(UniPoly({0: -1, 1: 1}), 4, 0)   # p(0) = -1
    with pytest.raises(ValueError):
        one_dim_rep(negative, 1)
    with pytest.raises(ValueError):
        one_dim_rep(GwaAlgebra(P_SPHERE, 4, 0), 2)


@pytest.fixture
def sphere_rep():
    alg = GwaAlgebra(P_SPHERE, Fraction(1, 4), 0)
    return truncated_rep(alg, 1, 16)


def test_truncated_rep_matrices(sphere_rep):
    rep = sphere_rep
    q = 0.25
    assert len(rep.z) == len(rep.x) == 16
    for j in range(16):
        assert rep.z[j] == pytest.approx(q**j, abs=1e-15)
    # lowering action: x e_k = sqrt(p(q^k)) e_{k-1}, and e_0 is killed
    assert rep.x[0] == 0
    for j in range(1, 16):
        assert rep.x[j] == pytest.approx(math.sqrt(q**j * (1 - q**j)), abs=1e-15)


def test_truncated_rep_spectrum(np, sphere_rep):
    expected = sorted(0.25**j for j in range(16))
    got = sorted(np.linalg.eigvalsh(dense(np, sphere_rep)[2]))
    assert np.allclose(got, expected, atol=1e-12)


def test_truncated_rep_lowering_raising_products(np, sphere_rep):
    rep = sphere_rep
    x, y, _ = dense(np, rep)
    yx = y @ x
    for j in range(15):
        assert yx[j, j] == pytest.approx(rep.p_at(0.25**j), abs=1e-10)


def test_relation_residuals_small(sphere_rep):
    report = relation_residuals(sphere_rep)
    assert report["interior_indices"] == [1, 14]
    assert all(v < 1e-10 for v in report["relations"].values())
    assert report["positivity_checked_upto"] == 16


def test_relation_residuals_flag_perturbation(sphere_rep):
    sphere_rep.x[4] += 1e-3
    report = relation_residuals(sphere_rep)
    assert report["relations"]["yx"] > 1e-6


def test_truncation_dimension_is_capped():
    alg = GwaAlgebra(P_SPHERE, Fraction(1, 4), 0)
    assert truncated_rep(alg, 1, MAX_DIM).dim == MAX_DIM
    with pytest.raises(ValueError, match=str(MAX_DIM)):
        truncated_rep(alg, 1, MAX_DIM + 1)


@pytest.mark.parametrize("dim", [-1, 0, 1, 2])
def test_truncation_without_interior_is_rejected(dim):
    alg = GwaAlgebra(P_SPHERE, Fraction(1, 4), 0)
    with pytest.raises(ValueError, match=f"has an interior index, got {dim}"):
        truncated_rep(alg, 1, dim)


def test_dump_matrices_csv(np, sphere_rep, tmp_path):
    paths = dump_matrices_csv(sphere_rep, str(tmp_path / "mats"))
    assert [p.rsplit("/", 1)[1] for p in paths] == ["x.csv", "y.csv", "z.csv"]
    x, y, z = (np.loadtxt(path, delimiter=",") for path in paths)
    for got, want in zip((x, y, z), dense(np, sphere_rep)):
        assert np.array_equal(got, want)   # "%.18e" round-trips every float
    assert np.array_equal(y, x.T)


@pytest.mark.parametrize("name", PRESETS)
def test_relation_residuals_match_dense_products(np, name):
    cfg = preset(name)
    alg = GwaAlgebra(cfg.p, cfg.q if cfg.q < 1 else 1 / cfg.q, 0)
    for zeta in cfg.nonzero_zetas():
        for dim in range(3, 41):
            rep = truncated_rep(alg, zeta, dim)
            q = float(rep.q)
            x, y, z = dense(np, rep)
            diag = np.diag(z)
            p_diag = np.diag([rep.p_at(v) for v in diag])
            p_shift = np.diag([rep.p_at(q * v) for v in diag])
            defects = {"xy": x @ y - p_shift, "yx": y @ x - p_diag,
                       "xz": x @ z - q * z @ x, "yz": y @ z - (1 / q) * z @ y}
            expected = {rel: max(float(np.linalg.norm(m[:, j])) for j in range(1, dim - 1))
                        for rel, m in defects.items()}
            assert relation_residuals(rep)["relations"] == expected, (zeta, dim)


def test_truncated_rep_preconditions():
    with pytest.raises(ValueError, match="q in"):
        truncated_rep(GwaAlgebra(P_SPHERE, 4, 0), 1, 8)
    with pytest.raises(ValueError, match="r = 0"):
        truncated_rep(GwaAlgebra(P_SPHERE, Fraction(1, 4), 1), 1, 8)
    # at the root 0 the orbit stays at 0, so p(q * 0) = 0 fails first: the index is named
    with pytest.raises(ValueError, match="index 1"):
        truncated_rep(GwaAlgebra(P_SPHERE, Fraction(1, 2), 0), 0, 8)


@pytest.mark.parametrize("zeta", [2, 3, Fraction(1, 2)])
def test_truncated_rep_needs_a_root(zeta):
    # yx = p(z) fails on basis vector 0 by p(zeta), outside the interior residuals
    with pytest.raises(ValueError, match=f"not a root of p: p\\(zeta\\) = {P_SPHERE(zeta)}"):
        truncated_rep(GwaAlgebra(P_SPHERE, Fraction(1, 4), 0), zeta, 8)
