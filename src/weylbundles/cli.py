"""Command-line verification interface.

Reports go to stdout as JSON lines (``--text`` switches to human-readable
lines).  Exit codes: 0 all checks passed, 1 a verification failed, 2 usage
or configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import acceptance
from .config import Config, load_config, preset
from .connection import (
    DEFAULT_LEVEL_CAP,
    check_connection,
    connection_power,
    connection_power_alt,
    idempotent,
)
from .expr import (
    AMBIENT_GENERATORS,
    GWA_GENERATORS,
    ParseError,
    evaluate,
    gens_used,
    parse,
)
from .grading import ambient_graded_view, induced_quotient_view, veronese_view, witness_search
from .gwa import GwaAlgebra
from .poly import frac
from .traces import CyclicTrace, chern_pairing, verify_trace

PASS, FAIL, USAGE = 0, 1, 2


class _Reporter:
    def __init__(self, text: bool):
        self.text = text

    def emit(self, record: dict):
        if self.text:
            status = ""
            if "pass" in record:
                status = "PASS " if record["pass"] else "FAIL "
            body = ", ".join(f"{k}={v}" for k, v in record.items() if k != "pass")
            print(f"{status}{body}")
        else:
            print(json.dumps(record))


def _eval_element(cfg: Config, text: str):
    node = parse(text)
    used = gens_used(node)
    if used <= set(GWA_GENERATORS):
        alg = cfg.gwa_algebra()
        atoms = {"x": alg.x(), "y": alg.y(), "z": alg.z()}
        return "gwa", evaluate(node, atoms, alg.from_scalar)
    if used <= set(AMBIENT_GENERATORS):
        amb = cfg.ambient_algebra()
        atoms = {
            "xp": amb.x_plus(), "xm": amb.x_minus(),
            "zp": amb.z_plus(), "zm": amb.z_minus(),
        }
        return "ambient", evaluate(node, atoms, lambda c: amb.one() * c)
    raise ParseError(f"mixed or unknown generators: {sorted(used)}", 0)


def _cmd_normalize(cfg: Config, args, out: _Reporter) -> int:
    kind, value = _eval_element(cfg, args.expr)
    out.emit({"command": "normalize", "algebra": kind, "input": args.expr,
              "result": str(value)})
    return PASS


def _cmd_mul(cfg: Config, args, out: _Reporter) -> int:
    kind1, e1 = _eval_element(cfg, args.left)
    kind2, e2 = _eval_element(cfg, args.right)
    if kind1 != kind2:
        raise ParseError("factors live in different algebras", 0)
    out.emit({"command": "mul", "algebra": kind1, "left": args.left,
              "right": args.right, "result": str(e1 * e2)})
    return PASS


def _cmd_connection(cfg: Config, args, out: _Reporter) -> int:
    amb = cfg.ambient_algebra()
    t = connection_power(amb, args.n, max_level=args.max_level)
    ok = check_connection(t)
    agree = t == connection_power_alt(amb, args.n, max_level=args.max_level)
    out.emit({
        "command": "connection", "n": args.n,
        "pairs": [[str(l), str(r)] for l, r in t.pairs],
        "evaluates_to_one": ok, "recursions_agree": agree,
        "pass": ok and agree,
    })
    return PASS if ok and agree else FAIL


def _cmd_idempotent(cfg: Config, args, out: _Reporter) -> int:
    amb = cfg.ambient_algebra()
    mat = idempotent(amb, args.n, max_level=args.max_level)
    ok = mat.is_idempotent()
    record = mat.to_json()
    record.update({"command": "idempotent", "squares_to_itself": ok, "pass": ok})
    out.emit(record)
    return PASS if ok else FAIL


def _cmd_chern(cfg: Config, args, out: _Reporter) -> int:
    amb = cfg.ambient_algebra()
    zetas = [frac(args.zeta)] if args.zeta else list(cfg.nonzero_zetas())
    if not zetas:
        raise ValueError("no nonzero root available for the pairing")
    code = PASS
    for zeta in zetas:
        got = chern_pairing(amb, zeta, args.n, max_level=args.max_level)
        ok = got == -args.n
        out.emit({"check": "chern", "params": {"n": args.n, "zeta": str(zeta)},
                  "expected": str(-args.n), "got": str(got), "pass": ok})
        if not ok:
            code = FAIL
    return code


def _cmd_trace_check(cfg: Config, args, out: _Reporter) -> int:
    alg = cfg.gwa_algebra()
    zetas = [frac(args.zeta)] if args.zeta else list(cfg.zetas)
    if not zetas:
        raise ValueError("no root listed for the trace")
    code = PASS
    for zeta in zetas:
        trace = CyclicTrace.for_algebra(alg, zeta)
        report = verify_trace(trace, alg, bound=args.bound, pairs=args.pairs)
        for record in report.failures():
            out.emit(record)
        out.emit({"check": "trace-axioms", "params": {"zeta": str(zeta),
                  "bound": args.bound, "pairs": args.pairs},
                  "expected": "no failures",
                  "got": f"{len(report.failures())} failures",
                  "pass": report.passed})
        if not report.passed:
            code = FAIL
    return code


def _cmd_grading_check(cfg: Config, args, out: _Reporter) -> int:
    amb = cfg.ambient_algebra()
    view = ambient_graded_view(amb)
    label = "ambient"
    if args.quotient is not None:
        view = induced_quotient_view(view, args.quotient)
        label = f"quotient mod {args.quotient}"
    elif args.veronese is not None:
        view = veronese_view(view, args.veronese)
        label = f"veronese {args.veronese}"
    witness = witness_search(view, args.degree, args.bound)
    record = {
        "check": "grading-witness",
        "params": {"view": label, "degree": args.degree, "bound": args.bound},
    }
    if witness is None:
        record.update({
            "found": False,
            "note": (
                f"none within bound {args.bound}; no product of the enumerated "
                "degree pairs reaches the unit monomial, but larger sizes are "
                "not ruled out"
            ),
            "pass": True,
        })
        out.emit(record)
        return PASS
    verified = witness.check(view)
    record.update({"found": True, "witness": witness.to_json(),
                   "verified": verified, "pass": verified})
    out.emit(record)
    return PASS if verified else FAIL


def _cmd_rep_check(cfg: Config, args, out: _Reporter) -> int:
    from . import numrep  # numpy loads only for this command

    zeta = frac(args.zeta)
    alg = cfg.gwa_algebra()
    code = PASS
    for lam in (1, -1):
        rep = numrep.one_dim_rep(alg, lam)
        residuals = numrep.one_dim_residuals(alg, rep)
        worst = max(residuals.values())
        ok = worst < 1e-12
        out.emit({"check": "one-dim-rep", "params": {"lam": lam, "rep": rep},
                  "expected": "< 1e-12", "got": f"{worst:.3e}", "pass": ok})
        code = code if ok else FAIL
    if cfg.r != 0:
        raise ValueError("the truncated representation needs r = 0")
    q = cfg.q if 0 < cfg.q < 1 else 1 / cfg.q
    trunc_alg = GwaAlgebra(cfg.p, q, Fraction(0))
    rep = numrep.truncated_rep(trunc_alg, zeta, args.dim)
    if args.dump_csv:
        out.emit({"command": "rep-check", "csv": numrep.dump_matrices_csv(rep, args.dump_csv)})
    report = numrep.relation_residuals(rep)
    worst = max(report["relations"].values())
    ok = worst < 1e-10
    out.emit({"check": "truncated-rep",
              "params": {"zeta": args.zeta, "dim": args.dim, "q": str(q)},
              "relations": report["relations"],
              "interior_indices": report["interior_indices"],
              "positivity_checked_upto": report["positivity_checked_upto"],
              "expected": "< 1e-10", "got": f"{worst:.3e}", "pass": ok})
    return code if ok else FAIL


def _cmd_verify_all(cfg: Config, args, out: _Reporter) -> int:
    ok, summaries = acceptance.run_all()
    for summary in summaries:
        out.emit(summary)
    out.emit({"command": "verify-all", "pass": ok})
    return PASS if ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbundles",
        description="Exact verification of graded algebra and index-pairing identities",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON configuration file")
    source.add_argument("--preset", default="sphere",
                        help="named preset: sphere, lens(k,l,q), kleinian-demo")
    parser.add_argument("--text", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--n", type=int, required=True)
    level.add_argument("--max-level", type=int, default=DEFAULT_LEVEL_CAP,
                       help="pair count grows as 2^|n|; raise deliberately")

    p = sub.add_parser("normalize", help="print the normal form of an expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("mul", help="multiply two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("connection", parents=[level],
                       help="print and check the level-n connection tensor")
    p.set_defaults(func=_cmd_connection)

    p = sub.add_parser("idempotent", parents=[level],
                       help="print and check the level-n idempotent")
    p.set_defaults(func=_cmd_idempotent)

    p = sub.add_parser("chern", parents=[level],
                       help="pair the cyclic trace with the level-n idempotent")
    p.add_argument("--zeta", help="nonzero root of p (default: all listed roots)")
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("trace-check", help="verify the trace property")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--zeta")
    p.set_defaults(func=_cmd_trace_check)

    p = sub.add_parser("grading-check", help="search for a strong-grading witness")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--bound", type=int, default=6)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quotient", type=int, help="re-grade by classes mod k")
    group.add_argument("--veronese", type=int, help="restrict to degrees divisible by k")
    p.set_defaults(func=_cmd_grading_check)

    p = sub.add_parser("rep-check", help="residuals of the matrix representations")
    p.add_argument("--zeta", required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--dump-csv", metavar="DIR", help="also write x/y/z matrices as CSV")
    p.set_defaults(func=_cmd_rep_check)

    p = sub.add_parser("verify-all", help="run the full verification sweep")
    p.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Reporter(args.text)
    try:
        cfg = load_config(args.config) if args.config else preset(args.preset)
        return args.func(cfg, args, out)
    except (ParseError, ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
