"""One workload in a fresh interpreter: set up, run whole passes, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,timed,traced} [--limit K]

``setup`` times the import of the package plus building configs, algebras
and items.  ``timed`` runs whole passes over the item list, with tracing off,
until the next pass would end after ``--seconds``; it runs at least one, and
an item's time is its median over the passes.

Each span of work is timed twice: wall-clock, and as CPU time of this
process plus its waited-for children.  The program is single-threaded and
never waits, so on a dedicated machine the two agree; on a shared virtual
machine the CPU time leaves out the time the host ran someone else.
``traced`` runs one pass with every layer boundary wrapped.  ``--limit``
keeps the first K items of the list.  The report is one JSON object on the
last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
CLI_TIMEOUT_S = 60

sys.path.insert(0, SRC)

import workloads  # noqa: E402  (after the path of the package is set)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_time() -> float:
    """CPU seconds of this process and of its children waited for so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def timed_setup(args):
    start = cpu_time()
    items = workloads.setup(args.workload, args.seed,
                                   os.path.join(RESULTS, f"configs-{args.seed}"))
    elapsed = cpu_time() - start
    import weylbundles

    if os.path.dirname(os.path.dirname(os.path.abspath(weylbundles.__file__))) != SRC:
        raise RuntimeError(f"weylbundles imported from outside {SRC}")
    if args.limit:
        items = items[:args.limit]
    return items, elapsed


def run_item(item, chk) -> None:
    try:
        item.run(chk)
    except Exception as exc:  # a raise is a failed verdict, recorded with its type
        chk.failures.append(f"raised {type(exc).__name__}: {exc}")


def run_call(call, chk, traced: bool):
    """One command line in a fresh interpreter; returns the traced child's report."""
    if traced:
        argv = [sys.executable, os.path.join(HERE, "cli_child.py"), *call.argv]
    else:
        argv = [sys.executable, "-m", "weylbundles", *call.argv]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        chk.failures.append(f"timed out after {CLI_TIMEOUT_S} s")
        return None
    report = None
    stdout = proc.stdout
    if traced and proc.returncode == 0 and stdout.strip():
        report = json.loads(stdout.strip().splitlines()[-1])
        code, stdout = report["code"], report["stdout"]
    else:
        code = proc.returncode
    try:
        call.verdict(code, stdout, chk)
    except (ValueError, KeyError) as exc:
        chk.failures.append(f"unreadable output: {exc}")
    return report


def one_pass(items, is_cli: bool, records: list, pass_no: int, tracer=None,
             imports: list | None = None) -> tuple[float, float]:
    """One pass over the items; returns its (wall, CPU) seconds."""
    start, start_cpu = perf_counter(), cpu_time()
    for idx, item in enumerate(items):
        chk = workloads.Checks()
        if tracer is not None:
            tracer.item = idx
        t0, c0 = perf_counter(), cpu_time()
        if is_cli:
            report = run_call(item, chk, tracer is not None)
            if report is not None:
                tracer.merge(report["trace"], idx)
                imports.append(report["import_s"])
        elif tracer is not None:
            tracer.wrap("bench.item", run_item)(item, chk)
        else:
            run_item(item, chk)
        ms, cpu_ms = (perf_counter() - t0) * 1e3, (cpu_time() - c0) * 1e3
        records.append({"item": item.label, "pass": pass_no, "ms": ms, "cpu_ms": cpu_ms,
                        "checks": chk.count, "failures": chk.failures})
        if tracer is not None:
            records[-1]["degree"], records[-1]["bits"] = poly_size(chk.polys)
    return perf_counter() - start, cpu_time() - start_cpu


def peak_rss_mb(is_cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def poly_size(polys) -> tuple[int, int]:
    degree = bits = 0
    for f in polys:
        if f.coeffs:
            degree = max(degree, max(f.coeffs))
            bits = max(bits, max(max(c.numerator.bit_length(), c.denominator.bit_length())
                                 for c in f.coeffs.values()))
    return degree, bits


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--limit", type=int, default=0)
    args = parser.parse_args()
    is_cli = args.workload == "cli-calls"

    items, setup_s = timed_setup(args)
    report: dict = {"setup_s": setup_s, "items": len(items)}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    records: list = []
    if args.mode == "timed":
        passes = []
        start = perf_counter()
        while True:
            passes.append(one_pass(items, is_cli, records, len(passes)))
            if perf_counter() + passes[-1][0] > start + args.seconds:
                break

        def item_median(key):
            return [statistics.median(r[key] for r in records[i::len(items)])
                    for i in range(len(items))]

        report.update(wall_s=statistics.median(p[0] for p in passes),
                      cpu_s=statistics.median(p[1] for p in passes), passes=passes,
                      peak_rss_mb=peak_rss_mb(is_cli), records=records,
                      item_ms=item_median("ms"), item_cpu_ms=item_median("cpu_ms"))
        print(json.dumps(report))
        return 0

    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    if not is_cli:
        tracer.install()
    imports: list = []
    wall, _ = one_pass(items, is_cli, records, 0, tracer, imports)
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["poly.result.max_degree"] = max((rec.get("degree", 0) for rec in records), default=0)
    metrics["poly.result.max_coeff_bits"] = max((rec.get("bits", 0) for rec in records), default=0)
    stats = tracer.stats()
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.csv.gz")
    tracer.write_spans(spans_path)
    report.update(wall_s=wall, records=records, metrics=metrics, spans=len(tracer.span_start),
                  spans_file=os.path.relpath(spans_path, ROOT),
                  self_s={name: rec["self_s"] for name, rec in stats.items()})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
