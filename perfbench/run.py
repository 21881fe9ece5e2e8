"""Benchmark of the exact engine: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each run builds its inputs from ``--seed``, checks every
verdict against the answer the paper fixes, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures, with tracing off, the end-to-end metrics: the set-up
time (median over fresh interpreters), and the pass wall time, per-item time
to verdict and peak memory of a fresh worker interpreter.  ``--trace 1``
runs the same workload and seed twice in fresh interpreters, untraced and
traced, and reports the per-layer metrics and the tracing overhead.  The
line before the last one holds the record without its per-item list; the
whole record is written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("idem-square", "deep-pairing", "witness-search", "cli-calls")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code a result measured."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "weylbundles")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def worker(args, mode: str, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its report."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    # a session of its own, so a timeout ends the worker's children too
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded the run's time limit") from exc
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}):\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def verdicts(records: list) -> dict:
    failed = [r for r in records if r["failures"]]
    checks = sum(r["checks"] for r in records)
    if not records or checks == 0:
        raise BenchError("the workload attempted no checks")
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "checks": checks,
        "failures": [{"item": r["item"], "pass": r["pass"], "failures": r["failures"]}
                     for r in failed],
    }


def tail(times: list) -> dict:
    """The highest percentile with at least ten items beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "items": n, "beyond": 0}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "items": n, "beyond": 10}


def timed(args, deadline: float) -> tuple[dict, dict]:
    worker(args, "setup", deadline)  # writes bytecode caches; not counted
    probes = [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES - 1)]
    report = worker(args, "timed", deadline)
    probes.append(report["setup_s"])
    cpu_tail, wall_tail = tail(report["item_cpu_ms"]), tail(report["item_ms"])
    metrics = {
        "cpu_s": {"value": report["cpu_s"], "unit": "s"},
        "verdict_cpu_ms.p50": {"value": statistics.median(report["item_cpu_ms"]), "unit": "ms"},
        "verdict_cpu_ms.tail": {"value": cpu_tail["value"], "unit": "ms"},
        "setup_s": {"value": statistics.median(probes), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }
    wall = {
        "wall_s": {"value": report["wall_s"], "unit": "s"},
        "verdict_ms.p50": {"value": statistics.median(report["item_ms"]), "unit": "ms"},
        "verdict_ms.tail": {"value": wall_tail["value"], "unit": "ms"},
    }
    record = {
        "metrics": metrics,
        "ungated_metrics": wall,
        "tail": cpu_tail,
        "passes_wall_cpu_s": report["passes"],
        "setup_probes_s": probes,
        "records": report["records"],
    }
    return metrics, record


# Where each workload should spend its traced self time on the seed commit:
# (workload, claim, span-name prefixes of the group, prefixes it is compared to).
EXPECTED_SHARES = (
    ("idem-square", "gwa.mul + connection.matmul self time is the largest share",
     ("gwa.mul", "connection.matmul"), ("poly", "ambient", "connection", "traces", "grading")),
    ("deep-pairing", "poly.* self time is the largest share",
     ("poly",), ("gwa", "ambient", "connection", "traces", "grading")),
    ("witness-search", "grading.search + ambient.mul self time is the largest share",
     ("grading.search", "ambient.mul"), ("poly", "gwa", "ambient", "connection", "grading")),
)


def shares(self_s: dict, wall: float) -> dict:
    layers: dict = {}
    for name, seconds in self_s.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return {layer: seconds / wall for layer, seconds in sorted(layers.items())}


def check_shares(workload: str, self_s: dict, metrics: dict, p50_ms: float) -> list:
    """Evaluate the expected layer separation; a miss is reported, not hidden."""
    out = []
    for name, claim, group, others in EXPECTED_SHARES:
        if name != workload:
            continue
        def in_group(span, group=group):
            return any(span == g or span.startswith(g + ".") for g in group)

        group_s = sum(s for span, s in self_s.items() if in_group(span))
        rivals = {}
        for layer in others:
            rivals[layer] = sum(s for span, s in self_s.items()
                                if span.split(".", 1)[0] == layer and not in_group(span))
        out.append({"claim": claim, "group_s": group_s, "rivals_s": rivals,
                    "holds": all(group_s > s for s in rivals.values())})
    if workload in ("deep-pairing", "witness-search"):
        out.append({"claim": "gwa.mul.calls = 0", "value": metrics["gwa.mul.calls"],
                    "holds": metrics["gwa.mul.calls"] == 0})
    if workload == "cli-calls":
        out.append({"claim": "cli.import_s is more than half of verdict_ms.p50",
                    "import_ms": metrics["cli.import_s"] * 1e3, "p50_ms": p50_ms,
                    "holds": metrics["cli.import_s"] * 1e3 > p50_ms / 2})
    return out


def traced(args, deadline: float) -> tuple[dict, dict]:
    from tracer import PER_LAYER

    plain = worker(args, "timed", deadline)
    report = worker(args, "traced", deadline)
    values = dict(report["metrics"])
    values["trace.overhead_s"] = report["wall_s"] - plain["wall_s"]
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}
    p50 = statistics.median(plain["item_ms"])
    record = {
        "metrics": metrics,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": report["wall_s"],
        "spans": report["spans"],
        "spans_file": report["spans_file"],
        "layer_shares": shares(report["self_s"], report["wall_s"]),
        "expected_shares": check_shares(args.workload, report["self_s"], values, p50),
        "records": report["records"],
        "untraced_records": plain["records"],
    }
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "weylbundles", "__init__.py")):
        print(f"error: no package source at {SRC}/weylbundles; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    sys.path.insert(0, HERE)
    try:
        if args.trace:
            metrics, record = traced(args, deadline)
            outcome = verdicts(record["records"] + record["untraced_records"])
        else:
            metrics, record = timed(args, deadline)
            outcome = verdicts(record["records"])
            record["ungated_metrics"]["failed_frac"] = {"value": outcome["failed_frac"],
                                                     "unit": "ratio"}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "verdicts": outcome,
    })
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {key: value for key, value in record.items()
               if key not in ("records", "untraced_records")}
    summary["verdicts"] = {k: v for k, v in outcome.items() if k != "failures"}
    summary["failures"] = outcome["failures"][:20]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
