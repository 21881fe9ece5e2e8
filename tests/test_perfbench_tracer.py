"""The benchmark's tracer wraps package names from outside; a rename breaks it.

Its own suite under ``perfbench/tests`` is not collected here, so this test
keeps a renamed method or function from passing unnoticed.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_with_tracer(script: str):
    """Run ``script`` in a fresh interpreter that imports the package and the tracer."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_on_the_package():
    run_with_tracer("from tracer import Tracer; Tracer().install()")


READ_COEFFS = """
from fractions import Fraction
from tracer import Tracer
from weylbundles.poly import UniPoly
from worker import poly_size

f, g = UniPoly({0: Fraction(1, 3), 3: 1}), UniPoly({0: Fraction(1, 3), 3: -1})
product = f * g                                          # 1/9 - z^6
image = UniPoly({2: 1}).compose_linear(Fraction(1, 1000), -3)  # z^2/10^6 - 3/500*z + 9
for h in (product, image):
    assert all(type(c) is Fraction for c in h.coeffs.values()), h.coeffs
assert poly_size([product]) == (6, 4), poly_size([product])
assert poly_size([image]) == (2, 20), poly_size([image])
tracer = Tracer()
tracer.install()
f * g
assert tracer.counts["poly.mul.coeff_mults"] == 4, tracer.counts
"""


def test_benchmark_reads_coeffs_as_fractions():
    """``worker.poly_size`` and the ``poly.mul`` counter read ``.coeffs`` of products."""
    run_with_tracer(READ_COEFFS)


COUNT_VIEW_PRODUCTS = """
from tracer import Tracer

tracer = Tracer()
tracer.install()
from weylbundles import grading
from weylbundles.config import preset

amb = preset("lens(2,1,2)").ambient_algebra()
base = grading.veronese_view(grading.ambient_graded_view(amb), amb.k)
assert grading.witness_search(grading.induced_quotient_view(base, 2), 1, 4) is not None
assert grading.witness_search(grading.veronese_view(base, 2), 1, 8) is not None
assert tracer.counts["grading.products"] == 62, tracer.counts
"""


def test_derived_views_keep_the_counted_product():
    """The tracer swaps ``multiply`` on the plain view; views built from it keep the swap."""
    run_with_tracer(COUNT_VIEW_PRODUCTS)


COUNT_TENSOR_PAIRS = """
from tracer import Tracer

tracer = Tracer()
tracer.install()
from weylbundles import connection, traces
from weylbundles.config import preset

amb = preset("kleinian-demo").ambient_algebra()
connection.connection_power(amb, 3)
connection.connection_power_alt(amb, -2)
traces.chern_pairing(amb, 2, 2)
assert tracer.counts["connection.tensor_pairs"] == 29, tracer.counts
"""


def test_tracer_reads_the_level_by_position():
    """The ``power`` hooks read ``(amb, n)`` from the positional arguments of each call."""
    run_with_tracer(COUNT_TENSOR_PAIRS)


COUNT_PAIRING_EVALUATIONS = """
from tracer import Tracer

tracer = Tracer()
tracer.install()
from weylbundles import traces
from weylbundles.config import preset

amb = preset("kleinian-demo").ambient_algebra()
assert traces.chern_pairings(amb, [1, 2], 2) == [-2, -2]
assert tracer.stats()["traces.on_poly"]["calls"] == 2, tracer.stats()
"""


def test_tracer_sees_each_pairing_evaluation():
    """``chern_pairings`` evaluates every root through the traced ``CyclicTrace.on_poly``."""
    run_with_tracer(COUNT_PAIRING_EVALUATIONS)
