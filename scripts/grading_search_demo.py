#!/usr/bin/env python3
"""Strong-grading witness searches on the three gradings of each preset.

For every preset this runs the bounded witness search on the plain integer
grading of the ambient algebra, its quotient grading mod k, and the k-th
Veronese re-grading, then prints what was found.  For k >= 2 only the
Veronese grading is strong, and the searches reflect that: the other two
come back empty because no bounded product of candidate monomials ever
reaches the unit monomial.

Usage: python3 scripts/grading_search_demo.py [--bound D]
"""
import argparse
import time

from weylbundles.config import PRESETS, preset
from weylbundles.grading import (
    ambient_graded_view,
    induced_quotient_view,
    veronese_view,
    witness_search,
)


def report(label, view, g, bound):
    start = time.perf_counter()
    witness = witness_search(view, g, bound)
    elapsed = time.perf_counter() - start
    if witness is None:
        print(f"  {label:<22} g={g:2d}  D={bound:2d}  none within bound   ({elapsed:.2f}s)")
    else:
        ok = witness.check(view)
        pairs = ", ".join(f"({a}, {b}, {c})" for a, b, c in witness.pairs[:3])
        more = "" if len(witness.pairs) <= 3 else f" ... {len(witness.pairs)} pairs"
        print(f"  {label:<22} g={g:2d}  D={bound:2d}  witness, verified={ok}: "
              f"{pairs}{more}   ({elapsed:.2f}s)")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--bound", type=int, default=8)
    args = parser.parse_args()

    for name in PRESETS:
        amb = preset(name).ambient_algebra()
        print(f"\n{name}: k = {amb.k}")
        base = ambient_graded_view(amb)
        report("integer grading", base, 1, args.bound)
        report("quotient mod k", induced_quotient_view(base, amb.k), 1,
               min(args.bound, 8))
        report("veronese", veronese_view(base, amb.k), 1, 4)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
