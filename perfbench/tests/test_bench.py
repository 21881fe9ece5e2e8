"""Self-checks of the benchmark: exact counts repeat, oracles and inputs hold.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT, PER_LAYER  # noqa: E402

# A small slice of each workload: the first items of its list.
SLICES = {"idem-square": 6, "deep-pairing": 4, "witness-search": 7, "cli-calls": 4}


def traced_slice(workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", "traced", "--limit", str(SLICES[workload])]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    first, second = traced_slice(workload, 3), traced_slice(workload, 3)
    assert all(not rec["failures"] for rec in first["records"] + second["records"])
    assert {name: first["metrics"][name] for name in EXACT} == \
        {name: second["metrics"][name] for name in EXACT}
    assert any(first["metrics"][name] for name in EXACT if name.endswith(".calls"))


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "cpu_s", "verdict_cpu_ms.p50", "verdict_cpu_ms.tail", "setup_s", "peak_rss_mb"}


def test_oracle_polynomials():
    sphere, lens, kleinian = workloads.preset_specs()
    assert sphere.p == {1: 1, 2: -1}
    assert lens.p == {2: 1, 3: -1}
    assert kleinian.p == {2: 2, 3: -3, 4: 1}
    # x y = p(q z) on the sphere, q = 4: 4z - 16z^2
    assert workloads.poly_compose_affine(sphere.p, 4, 0) == {1: 4, 2: -16}
    assert workloads.parse_poly_text("(z - z^2)") == {1: 1, 2: -1}
    assert workloads.parse_poly_text("(-1/2 + 3*z^2 - 2/3*z^5)") == {
        0: Fraction(-1, 2), 2: 3, 5: Fraction(-2, 3)}
    assert workloads.parse_poly_text("0") == {}


def test_generated_configs_are_stratified_and_seeded():
    specs = workloads.generate_specs(5)
    assert [(s.k, len(s.roots)) for s in specs] == list(workloads.STRATA)
    for s in specs:
        assert s.q not in (0, 1, -1)
        assert len(set(s.roots)) == len(s.roots) and 0 not in s.roots
        assert all(workloads.poly_eval(s.p, z) == 0 for z in s.roots)
        assert min(s.p) == s.k
    again = workloads.generate_specs(5)
    assert [(s.roots, s.q_plus, s.q_minus) for s in specs] == \
        [(s.roots, s.q_plus, s.q_minus) for s in again]


def test_tail_keeps_ten_items_beyond():
    worst = run.tail([float(i) for i in range(1, 41)])
    assert worst["value"] == 30.0 and worst["percentile"] == 75.0 and worst["items"] == 40
    assert run.tail([1.0, 2.0])["value"] == 2.0
