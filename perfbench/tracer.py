"""Spans around the package's layer boundaries, installed from outside.

``Tracer.install`` replaces each boundary with a wrapper: class methods on
their class, module functions in every ``weylbundles`` module that binds
them by name.  A wrapper records one span (name, start, end, parent, item)
in flat arrays and updates exact counters.  Nothing under ``src/`` changes.

Self time of a span is its duration minus the durations of its direct
child spans.  No layer of the package waits: there is no queue, lock or
I/O wait in it, so busy time is all there is to record.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

LAYERS = ("poly", "gwa", "ambient", "connection", "traces", "grading", "numrep", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self._stack: list[int] = []
        self.item = -1
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._errors: dict[str, set] = {layer: set() for layer in LAYERS}
        self._search_depth = 0

    # -- recording ------------------------------------------------------------
    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def see(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def error(self, layer: str, exc: BaseException) -> None:
        # an exception crossing nested boundaries of one layer counts once
        self._errors.setdefault(layer, set()).add(id(exc))

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording a span named ``name`` around ``fn``.

        ``count(args, kwargs, result)`` runs after a normal return.
        """
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        layer = name.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_item.append(self.item)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error(layer, exc)
                raise
            finally:
                self.span_end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------
    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def patch_function(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self.replace(original, self.wrap(name, original, count))

    @staticmethod
    def replace(original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every package module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "weylbundles":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)

    def install(self) -> None:
        """Wrap every layer boundary of the imported package."""
        import dataclasses

        import weylbundles.cli as cli
        from weylbundles import ambient, config, connection, expr, grading, gwa, numrep, poly, traces

        def poly_mul(args, kwargs, result):
            a, b = args
            self.add("poly.mul.coeff_mults",
                     len(a.coeffs) * (len(b.coeffs) if isinstance(b, poly.UniPoly) else 1))

        def auto_apply(args, kwargs, result):
            auto, j, f = args
            self.see("poly.auto_apply", hash((auto, j, f)))

        def term_pairs(key, cls):
            def count(args, kwargs, result):
                a, b = args
                if isinstance(b, cls):
                    self.add(key, len(a.terms) * len(b.terms))
            return count

        def power(args, kwargs, result):
            amb, n = args[0], args[1]
            self.see("connection.power", hash((amb, n)))
            self.add("connection.tensor_pairs", len(result.pairs))

        def power_alt(args, kwargs, result):
            self.add("connection.tensor_pairs", len(result.pairs))

        def coeffs(args, kwargs, result):
            trace, n = args
            self.see("traces.coeffs", hash((trace.q, trace.r, trace.zeta, n)))

        def search(args, kwargs, result):
            if result is not None:
                self.add("grading.witness_pairs", len(result.pairs))

        # grading.products counts the view products a search forms; the
        # quotient and Veronese views reuse the multiply of the view they
        # are built from, so counting on the base view counts each once.
        base_view = grading.ambient_graded_view
        search_fn = grading.witness_search

        def counted_view(amb):
            view = base_view(amb)
            multiply = view.multiply

            def counted(a, b):
                if self._search_depth:
                    self.add("grading.products", 1)
                return multiply(a, b)
            return dataclasses.replace(view, multiply=counted)

        def searching(*args, **kwargs):
            self._search_depth += 1
            try:
                return search_fn(*args, **kwargs)
            finally:
                self._search_depth -= 1

        self.replace(base_view, functools.wraps(base_view)(counted_view))
        self.replace(search_fn, self.wrap("grading.search", functools.wraps(search_fn)(searching), search))

        self.patch_method(poly.UniPoly, "__mul__", "poly.mul", poly_mul)
        self.patch_method(poly.UniPoly, "compose_linear", "poly.compose_linear")
        self.patch_method(poly.PairPoly, "__mul__", "poly.pair_mul")
        self.patch_function(poly, "poly_divmod", "poly.divmod")
        self.patch_method(poly.AffineAuto, "apply", "poly.auto_apply", auto_apply)
        self.patch_method(gwa.GwaElem, "__mul__", "gwa.mul", term_pairs("gwa.mul.term_pairs", gwa.GwaElem))
        self.patch_method(ambient.AmbientElem, "__mul__", "ambient.mul",
                          term_pairs("ambient.mul.term_pairs", ambient.AmbientElem))
        self.patch_function(ambient, "project_degree_zero", "ambient.project")
        self.patch_function(ambient, "embed_degree_zero", "ambient.embed")
        self.patch_function(connection, "connection_power", "connection.power", power)
        self.patch_function(connection, "connection_power_alt", "connection.power_alt", power_alt)
        self.patch_function(connection, "idempotent", "connection.idempotent")
        self.patch_method(connection.IdemMatrix, "matmul", "connection.matmul")
        self.patch_method(connection.IdemMatrix, "is_idempotent", "connection.check")
        self.patch_function(connection, "check_connection", "connection.check")
        self.patch_method(connection.Tensor2, "__eq__", "connection.check")
        self.patch_function(connection, "idempotent_trace", "connection.trace")
        self.patch_function(connection, "idempotent_trace_recursive", "connection.trace_recursive")
        self.patch_method(traces.CyclicTrace, "coeffs", "traces.coeffs", coeffs)
        self.patch_method(traces.CyclicTrace, "on_poly", "traces.on_poly")
        self.patch_function(traces, "verify_trace", "traces.verify")
        self.patch_method(grading.Witness, "check", "grading.check")
        self.patch_function(grading, "compose_witnesses", "grading.compose")
        for fn in ("truncated_rep", "one_dim_rep"):
            self.patch_function(numrep, fn, "numrep.build")
        for fn in ("relation_residuals", "one_dim_residuals"):
            self.patch_function(numrep, fn, "numrep.residuals")
        self.patch_function(expr, "parse", "cli.parse")
        self.patch_function(config, "preset", "cli.config")
        self.patch_function(config, "load_config", "cli.config")
        self.patch_function(cli, "main", "cli.main")

    # -- results --------------------------------------------------------------------
    def stats(self) -> dict[str, dict]:
        """Per span name: calls and self time in seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        names, ids = self.names, self.span_name
        for i in range(n):
            rec = out[names[ids[i]]]
            rec["calls"] += 1
            rec["self_s"] += end[i] - start[i] - child[i]
        return out

    def errors(self) -> dict[str, int]:
        return {layer: len(ids) for layer, ids in self._errors.items()}

    def merge(self, other: dict, item: int) -> None:
        """Add the spans and counters a traced child process reported."""
        offset = len(self.span_start)
        for name, start, end, parent in other["spans"]:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent + offset if parent >= 0 else -1)
            self.span_item.append(item)
        for key, n in other["counts"].items():
            self.add(key, n)
        for key, values in other["distinct"].items():
            self.distinct.setdefault(key, set()).update(values)
        for layer, n in other["errors"].items():
            self._errors.setdefault(layer, set()).update((item, i) for i in range(n))

    def export(self) -> dict:
        """Everything ``merge`` needs, as JSON-ready data."""
        return {
            "spans": [
                [self.names[self.span_name[i]], self.span_start[i], self.span_end[i],
                 self.span_parent[i]]
                for i in range(len(self.span_start))
            ],
            "counts": self.counts,
            "distinct": {key: sorted(values) for key, values in self.distinct.items()},
            "errors": self.errors(),
        }

    def write_spans(self, path: str) -> None:
        """All spans as gzipped CSV: name, start, end, parent, item."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,item\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{i},{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_item[i]}\n")


# Per-layer metrics of the traced run, as (name, unit, better).  Counts and
# ratios repeat exactly across traced runs with one seed; times do not.
_SELF = ("s", "lower")
_COUNT = ("count", "lower")
PER_LAYER = (
    ("poly.mul.calls", *_COUNT), ("poly.mul.self_s", *_SELF),
    ("poly.mul.coeff_mults", *_COUNT),
    ("poly.compose_linear.calls", *_COUNT), ("poly.compose_linear.self_s", *_SELF),
    ("poly.pair_mul.calls", *_COUNT), ("poly.pair_mul.self_s", *_SELF),
    ("poly.divmod.calls", *_COUNT), ("poly.divmod.self_s", *_SELF),
    ("poly.auto_apply.calls", *_COUNT), ("poly.auto_apply.distinct_ratio", "ratio", "higher"),
    ("poly.result.max_degree", *_COUNT), ("poly.result.max_coeff_bits", "bits", "lower"),
    ("poly.errors", *_COUNT),
    ("gwa.mul.calls", *_COUNT), ("gwa.mul.self_s", *_SELF), ("gwa.mul.term_pairs", *_COUNT),
    ("gwa.errors", *_COUNT),
    ("ambient.mul.calls", *_COUNT), ("ambient.mul.self_s", *_SELF),
    ("ambient.mul.term_pairs", *_COUNT),
    ("ambient.project.calls", *_COUNT), ("ambient.project.self_s", *_SELF),
    ("ambient.embed.calls", *_COUNT), ("ambient.embed.self_s", *_SELF),
    ("ambient.errors", *_COUNT),
    ("connection.power.calls", *_COUNT), ("connection.power.self_s", *_SELF),
    ("connection.power.distinct_ratio", "ratio", "higher"),
    ("connection.power_alt.calls", *_COUNT), ("connection.power_alt.self_s", *_SELF),
    ("connection.tensor_pairs", *_COUNT),
    ("connection.idempotent.self_s", *_SELF), ("connection.matmul.self_s", *_SELF),
    ("connection.check.self_s", *_SELF), ("connection.trace.self_s", *_SELF),
    ("connection.trace_recursive.self_s", *_SELF),
    ("connection.errors", *_COUNT),
    ("traces.coeffs.calls", *_COUNT), ("traces.coeffs.self_s", *_SELF),
    ("traces.coeffs.distinct_ratio", "ratio", "higher"),
    ("traces.on_poly.self_s", *_SELF), ("traces.verify.self_s", *_SELF),
    ("traces.errors", *_COUNT),
    ("grading.search.calls", *_COUNT), ("grading.search.self_s", *_SELF),
    ("grading.products", *_COUNT), ("grading.useful_ratio", "ratio", "higher"),
    ("grading.check.self_s", *_SELF), ("grading.compose.self_s", *_SELF),
    ("grading.errors", *_COUNT),
    ("numrep.build.self_s", *_SELF), ("numrep.residuals.self_s", *_SELF),
    ("numrep.errors", *_COUNT),
    ("cli.import_s", *_SELF), ("cli.main.self_s", *_SELF),
    ("cli.parse.self_s", *_SELF), ("cli.config.self_s", *_SELF),
    ("cli.errors", *_COUNT),
    ("trace.overhead_s", *_SELF),
)

# The metrics that must repeat exactly across two traced runs with one seed.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "ratio", "bits"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived per-layer metrics (all but results, import and overhead)."""
    stats = tracer.stats()
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, measure = name.rpartition(".")
        if measure in ("calls", "self_s"):
            out[name] = stats.get(head, {}).get(measure, 0)
        elif measure == "distinct_ratio":
            calls = stats.get(head, {}).get("calls", 0)
            out[name] = len(tracer.distinct.get(head, ())) / calls if calls else 0.0
        elif measure == "errors":
            out[name] = tracer.errors()[head]
        elif name in ("poly.mul.coeff_mults", "gwa.mul.term_pairs", "ambient.mul.term_pairs",
                      "connection.tensor_pairs", "grading.products"):
            out[name] = tracer.counts.get(name, 0)
    products = tracer.counts.get("grading.products", 0)
    out["grading.useful_ratio"] = (
        tracer.counts.get("grading.witness_pairs", 0) / products if products else 0.0
    )
    return out
