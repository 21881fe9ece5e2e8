"""Command-line verification interface.

Reports go to stdout as JSON lines (``--text`` switches to human-readable
lines).  The records alone carry the verdicts, and ``main`` alone picks
the exit code: 0 no record failed, 1 some record has ``"pass": false``,
2 usage or configuration error (one ``{"error": ...}`` line on stderr),
3 internal error (a traceback and one ``{"error": ..., "kind": "internal"}``
line on stderr).  ``verify-all`` streams one summary per criterion as it
finishes; a criterion that ran no checks fails.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import acceptance, numrep
from .config import PRESETS, Config, load_config, preset
from .connection import check_connection, connection_power, connection_power_alt, idempotent
from .expr import AMBIENT_GENERATORS, GWA_GENERATORS, ParseError, generators, parse
from .grading import (
    ambient_graded_view,
    induced_quotient_view,
    veronese_view,
    witness_search,
)
from .gwa import GwaAlgebra
from .poly import frac
from .traces import CyclicTrace, chern_pairings, record_check, verify_trace

PASS, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


class _Reporter:
    """Prints records and remembers whether any of them failed."""

    def __init__(self, text: bool):
        self.text = text
        self.failed = False

    def emit(self, record: dict):
        self.failed |= not record.get("pass", True)
        if self.text:
            status = ""
            if "pass" in record:
                status = "PASS " if record["pass"] else "FAIL "
            body = ", ".join(f"{k}={v}" for k, v in record.items() if k != "pass")
            line = f"{status}{body}"
        else:
            line = json.dumps(record)
        print(line, flush=True)  # a piped verify-all shows each summary as it is made


def _eval_elements(cfg: Config, *texts: str):
    """The algebra the generators of all ``texts`` name together, and each text's value in it."""
    used = set().union(*map(generators, texts))
    if used <= set(GWA_GENERATORS):
        alg = cfg.gwa_algebra()
        atoms = {"x": alg.x(), "y": alg.y(), "z": alg.z()}
        return "gwa", [parse(text, atoms, alg.from_scalar) for text in texts]
    if used <= set(AMBIENT_GENERATORS):
        amb = cfg.ambient_algebra()
        atoms = {
            "xp": amb.x_plus(), "xm": amb.x_minus(),
            "zp": amb.z_plus(), "zm": amb.z_minus(),
        }
        return "ambient", [parse(text, atoms, lambda c: amb.one() * c) for text in texts]
    raise ParseError(f"mixed or unknown generators: {sorted(used)}", 0)


def _cmd_normalize(cfg: Config, args, out: _Reporter) -> None:
    kind, (value,) = _eval_elements(cfg, args.expr)
    out.emit({"command": "normalize", "algebra": kind, "input": args.expr,
              "result": str(value)})


def _cmd_mul(cfg: Config, args, out: _Reporter) -> None:
    kind, (e1, e2) = _eval_elements(cfg, args.left, args.right)
    out.emit({"command": "mul", "algebra": kind, "left": args.left,
              "right": args.right, "result": str(e1 * e2)})


def _cmd_connection(cfg: Config, args, out: _Reporter) -> None:
    amb = cfg.ambient_algebra()
    t = connection_power(amb, args.n)
    ok = check_connection(t)
    agree = t == connection_power_alt(amb, args.n)
    out.emit({
        "command": "connection", "n": args.n,
        "pairs": [[str(l), str(r)] for l, r in t.pairs],
        "evaluates_to_one": ok, "recursions_agree": agree,
        "pass": ok and agree,
    })


def _cmd_idempotent(cfg: Config, args, out: _Reporter) -> None:
    amb = cfg.ambient_algebra()
    mat = idempotent(amb, args.n)
    ok = mat.is_idempotent()
    record = mat.to_json()
    record.update({"command": "idempotent", "squares_to_itself": ok, "pass": ok})
    out.emit(record)


def _cmd_chern(cfg: Config, args, out: _Reporter) -> None:
    amb = cfg.ambient_algebra()
    zetas = [frac(args.zeta)] if args.zeta is not None else list(cfg.nonzero_zetas())
    if not zetas:
        raise ValueError("no nonzero root available for the pairing")
    checks: list[dict] = []
    for zeta, got in zip(zetas, chern_pairings(amb, zetas, args.n)):
        out.emit(record_check(checks, "chern", {"n": args.n, "zeta": str(zeta)}, -args.n, got))


def _cmd_trace_check(cfg: Config, args, out: _Reporter) -> None:
    alg = cfg.gwa_algebra()
    zetas = [frac(args.zeta)] if args.zeta is not None else list(cfg.nonzero_zetas())
    if not zetas:
        raise ValueError("no nonzero root listed for the trace")
    if 0 in zetas:
        raise ValueError("the trace at the root 0 is the zero map; give a nonzero root")
    traces = [CyclicTrace.for_algebra(alg, zeta) for zeta in zetas]
    checks = verify_trace(traces, alg, bound=args.bound, pairs=args.pairs)
    for zeta, records in zip(zetas, checks):
        failures = [c for c in records if not c["pass"]]
        for record in failures:
            out.emit(record)
        out.emit({"check": "trace-axioms",
                  "params": {"zeta": str(zeta), "bound": args.bound, "pairs": args.pairs},
                  "expected": "no failures", "got": f"{len(failures)} failures",
                  "pass": not failures})


def _cmd_grading_check(cfg: Config, args, out: _Reporter) -> None:
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
                f"none within bound {args.bound}; no rational combination of the "
                "products of the enumerated degree pairs equals 1, but larger "
                "sizes are not ruled out"
            ),
            "pass": True,
        })
    else:
        verified = witness.check(view)
        record.update({"found": True, "witness": witness.to_json(),
                       "verified": verified, "pass": verified})
    out.emit(record)


def _cmd_rep_check(cfg: Config, args, out: _Reporter) -> None:
    # every input, the CSV directory included, is checked before the first record
    zeta = frac(args.zeta)
    alg = cfg.gwa_algebra()
    q = 1 / cfg.q if cfg.q > 1 else cfg.q
    trunc = numrep.truncated_rep(GwaAlgebra(cfg.p, q, cfg.r), zeta, args.dim)
    csv_paths = numrep.dump_matrices_csv(trunc, args.dump_csv) if args.dump_csv else None
    for lam in (1, -1):
        rep = numrep.one_dim_rep(alg, lam)  # raises, if at all, already for lam = 1
        worst = max(numrep.one_dim_residuals(alg, rep).values())
        out.emit({"check": "one-dim-rep", "params": {"lam": lam, "rep": rep},
                  "expected": f"< {numrep.SCALAR_TOLERANCE}", "got": f"{worst:.3e}",
                  "pass": worst < numrep.SCALAR_TOLERANCE})
    if csv_paths is not None:
        out.emit({"command": "rep-check", "csv": csv_paths})
    report = numrep.relation_residuals(trunc)
    worst = max(report["relations"].values())
    out.emit({"check": "truncated-rep",
              "params": {"zeta": args.zeta, "dim": args.dim, "q": str(q)},
              "relations": report["relations"],
              "interior_indices": report["interior_indices"],
              "positivity_checked_upto": report["positivity_checked_upto"],
              "expected": f"< {numrep.TRUNCATED_TOLERANCE}", "got": f"{worst:.3e}",
              "pass": worst < numrep.TRUNCATED_TOLERANCE})


def _cmd_verify_all(cfg: None, args, out: _Reporter) -> None:
    for summary in acceptance.run_all():
        out.emit(summary)
    out.emit({"command": "verify-all", "pass": not out.failed})


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line like any other usage error; subparsers
    are made of this class too."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="weylbundles",
        description="Exact verification of graded algebra and index-pairing identities",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON configuration file")
    source.add_argument("--preset",
                        help="named preset: sphere (default), lens(k,l,q), kleinian-demo")
    parser.add_argument("--text", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--n", type=int, required=True)

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
    p.add_argument("--zeta", help="nonzero root of p (default: all listed nonzero roots)")
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


def _config(args) -> Config | None:
    """The configuration of the command; ``verify-all`` sweeps its own presets."""
    if args.command == "verify-all":
        if args.config is not None or args.preset is not None:
            raise ValueError(f"verify-all sweeps the presets {', '.join(PRESETS)} "
                             "and takes no --preset or --config")
        return None
    if args.config is not None:
        return load_config(args.config)
    return preset("sphere" if args.preset is None else args.preset)


def main(argv=None) -> int:
    """Run one command; the only place an exit code is chosen.

    An exact result may print an integer longer than Python's default cap on
    int-to-str conversion, so the cap is lifted once the configuration is
    read (a config file has no size bound and stays under it) and restored
    on the way out.
    """
    set_digits = getattr(sys, "set_int_max_str_digits", None)  # no cap before 3.10.7
    digits = sys.get_int_max_str_digits() if set_digits else 0
    try:
        args = build_parser().parse_args(argv)
        out = _Reporter(args.text)
        cfg = _config(args)
        if set_digits:
            set_digits(0)
        args.func(cfg, args, out)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return USAGE
    except Exception as exc:
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}),
              file=sys.stderr)
        return INTERNAL
    finally:
        if set_digits:
            set_digits(digits)
    return FAIL if out.failed else PASS


if __name__ == "__main__":
    sys.exit(main())
