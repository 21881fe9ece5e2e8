#!/usr/bin/env python3
"""Sweep the index pairing across presets and levels, with timings.

Prints the trace polynomial of each level idempotent and its pairing value
for every admissible root, so the -n pattern is visible at a glance.

Usage: python3 scripts/index_pairing_sweep.py [--max-level N]
"""
import argparse
import time

from weylbundles.config import PRESETS, preset
from weylbundles.connection import idempotent_trace
from weylbundles.traces import chern_pairing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-level", type=int, default=4)
    args = parser.parse_args()
    levels = range(-args.max_level, args.max_level + 1)

    for name in PRESETS:
        cfg = preset(name)
        amb = cfg.ambient_algebra()
        print(f"\n{name}: p = {cfg.p}, q = {cfg.q}, "
              f"roots = {[str(z) for z in cfg.nonzero_zetas()]}")
        start = time.perf_counter()
        for n in levels:
            trace_poly = idempotent_trace(amb, n, max_level=args.max_level)
            pairings = ", ".join(
                f"tau_{zeta}: {chern_pairing(amb, zeta, n, max_level=args.max_level)}"
                for zeta in cfg.nonzero_zetas()
            )
            shown = str(trace_poly)
            if len(shown) > 60:
                shown = shown[:57] + "..."
            print(f"  n = {n:3d}   {pairings}   trace = {shown}")
        print(f"  ({time.perf_counter() - start:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
