"""Span tracing of qgrass from outside the package.

The tracer wraps public qgrass functions and methods with span recorders.
It never edits qgrass source: it rebinds module attributes and class
methods for the duration of a traced pass and restores them afterwards.
Several qgrass modules import names by value (``catalog`` binds
``integrate_graded``, ``entanglement_report``, ``solve_weight`` and
``tensor``; ``qstate`` and ``suites`` bind ``normal_order``; ``cli`` binds
``catalog_construct``, ``solve_weight`` and ``run_suites``), so a function
is rebound in every ``qgrass.*`` module whose attribute is the original
object, not only in the module that defines it.

A span is ``[name, start, end, parent, op]``: parent is the index of the
enclosing span in ``Tracer.spans`` (-1 at the root) and op is the id the
harness gives each operation, shared by every span inside it.
``normal_order`` runs about 200k times per solve pass, so it gets a call
counter and no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _size(obj) -> int:
    terms = getattr(obj, "terms", None)
    return len(terms) if terms is not None else 1


def _mul_measure(args, kwargs, result):
    if not hasattr(result, "terms"):
        return ()
    return (("algebra.mul.pairs", _size(args[0]) * _size(args[1])),
            ("algebra.mul.terms_out", len(result.terms)))


def _left_multiply_measure(args, kwargs, result):
    return (("qstate.left_multiply.pairs", len(args[0].terms) * len(args[1].terms)),
            ("qstate.left_multiply.terms_out", len(result.terms)))


def _multi_integrate_measure(args, kwargs, result):
    return (("qstate.multi_integrate.terms_in", len(args[0].terms)),
            ("qstate.multi_integrate.terms_out", len(result.terms)))


def _tensor_measure(args, kwargs, result):
    pairs = 1
    for state in args[0]:
        pairs *= len(state.terms)
    return (("qstate.tensor.pairs", pairs), ("qstate.tensor.terms_out", len(result.terms)))


def _solve_weight_measure(args, kwargs, result):
    return (
        ("entangle.solve_weight.columns", len(result.basis)),
        ("entangle.solve_weight.rank", result.rank),
        ("entangle.solve_weight.weight_terms", len(result.weight.terms)),
    )


def _report_measure(args, kwargs, result):
    return (("entangle.entanglement_report.cuts", len(result.bipartition_schmidt)),)


def _construct_measure(args, kwargs, result):
    return (("catalog.match." + result.match, 1),)


# (module, attribute or Class.method, span name, measure); a measure maps
# (args, kwargs, result) to (metric, increment) pairs.
SPANNED = [
    ("algebra", "AlgebraElement.__mul__", "algebra.mul", _mul_measure),
    ("algebra", "AlgebraElement.conjugate", "algebra.conjugate", None),
    ("algebra", "AlgebraElement.berezin_integrate", "algebra.integrate", None),
    ("qstate", "GradedState.left_multiply", "qstate.left_multiply", _left_multiply_measure),
    ("qstate", "GradedState.multi_integrate", "qstate.multi_integrate", _multi_integrate_measure),
    ("qstate", "tensor", "qstate.tensor", _tensor_measure),
    ("entangle", "integrate_graded", "entangle.integrate_graded", None),
    ("entangle", "solve_weight", "entangle.solve_weight", _solve_weight_measure),
    ("entangle", "entanglement_report", "entangle.entanglement_report", _report_measure),
    ("entangle", "bipartition_spectrum", "entangle.bipartition_spectrum", None),
    ("entangle", "reduced_density", "entangle.reduced_density", None),
    ("catalog", "compare_states", "catalog.compare_states", None),
    ("catalog", "build_recipe", "catalog.build_recipe", None),
    ("catalog", "catalog_construct", "catalog.catalog_construct", _construct_measure),
    ("suites", "run_suites", "suites.run_suites", None),
    ("suites", "oracle_reorder", "suites.oracle_reorder", None),
    ("suites", "suite_algebra", "suites.algebra", None),
    ("suites", "suite_closure", "suites.closure", None),
    ("suites", "suite_catalog", "suites.catalog", None),
    ("suites", "suite_boson", "suites.boson", None),
    ("cli", "main", "cli.main", None),
]
# Every public function defined in these modules gets a span "<module>.<name>".
SPANNED_MODULES = ["boson"]
COUNTED = [("algebra", "normal_order", "algebra.normal_order")]

LAYERS = ["algebra", "qstate", "entangle", "catalog", "suites", "boson", "cli"]

# (metric, unit, better) reported by a traced run, one value per pass.
PER_LAYER = (
    [("algebra.normal_order.calls", "count", "lower")]
    + [(f"algebra.mul.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("pairs", "count"), ("terms_out", "count"))]
    + [("algebra.conjugate.calls", "count", "lower"), ("algebra.conjugate.self_s", "s", "lower")]
    + [("algebra.integrate.calls", "count", "lower"), ("algebra.integrate.self_s", "s", "lower")]
    + [(f"qstate.left_multiply.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("pairs", "count"), ("terms_out", "count"))]
    + [("qstate.left_multiply.survival", "ratio", "higher")]
    + [(f"qstate.multi_integrate.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("terms_in", "count"), ("terms_out", "count"))]
    + [(f"qstate.tensor.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("pairs", "count"), ("terms_out", "count"),
        ("setup_s", "s"))]
    + [("entangle.integrate_graded.calls", "count", "lower"),
       ("entangle.integrate_graded.total_s", "s", "lower")]
    + [(f"entangle.solve_weight.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("columns", "count"), ("rank", "count"),
        ("weight_terms", "count"), ("pipeline_runs", "count"))]
    + [(f"entangle.entanglement_report.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("total_s", "s"), ("cuts", "count"))]
    + [(f"entangle.{f}.{m}", u, "lower") for f in ("bipartition_spectrum", "reduced_density")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"catalog.compare_states.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("total_s", "s"), ("reports", "count"))]
    + [("catalog.build_recipe.total_s", "s", "lower"), ("catalog.build_recipe.setup_s", "s", "lower")]
    + [(f"catalog.catalog_construct.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"), ("total_s", "s"))]
    + [("catalog.match.exact", "count", "higher")]
    + [(f"catalog.match.{m}", "count", "lower") for m in ("global_phase", "signature", "mismatch")]
    + [("suites.oracle_reorder.calls", "count", "lower"), ("suites.oracle_reorder.self_s", "s", "lower")]
    + [(f"suites.{s}.total_s", "s", "lower") for s in ("algebra", "closure", "catalog", "boson")]
    + [("boson.calls", "count", "lower"), ("boson.total_s", "s", "lower"), ("cli.main.self_s", "s", "lower")]
    + [(f"{layer}.raised", "count", "lower") for layer in LAYERS]
    + [("workload.total_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
       ("host.probe_s", "s", "lower")]
)


def _qgrass_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qgrass" or name.startswith("qgrass."))]


def _targets():
    """Yield (owner, attribute, original, span name, measure, counted)."""
    modules = {name: importlib.import_module(f"qgrass.{name}") for name in LAYERS}
    for module, path, name, measure in SPANNED:
        owner = modules[module]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        yield owner, attr, owner.__dict__[attr], name, measure, False
    for module in SPANNED_MODULES:
        mod = modules[module]
        for attr, obj in sorted(vars(mod).items()):
            if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield mod, attr, obj, f"{module}.{attr}", None, False
    for module, attr, name in COUNTED:
        mod = modules[module]
        yield mod, attr, getattr(mod, attr), name, None, True


class Tracer:
    """In-memory span recorder; wrappers are active only inside ``installed()``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    @contextmanager
    def operation(self, name: str):
        """A root-level op: its spans, and every span inside it, share a new op id."""
        self.op += 1
        with self.span("op." + name) as rec:
            yield rec

    def _spanned(self, name: str, fn, measure):
        spans, stack, counts = self.spans, self.stack, self.counts
        raised = name.split(".", 1)[0] + ".raised"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[raised] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if measure is not None:
                for key, value in measure(args, kwargs, result):
                    counts[key] += value
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        raised = name.split(".", 1)[0] + ".raised"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[raised] += 1
                raise

        return counted

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every traced qgrass name to its wrapper; restore on exit."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            targets = list(_targets())  # imports every layer before the scan
            modules = _qgrass_modules()
            for owner, attr, orig, name, measure, counted in targets:
                wrapper = self._counted(name, orig) if counted else self._spanned(name, orig, measure)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapper)
            yield self
        finally:
            while self._patches:
                owner, attr, orig = self._patches.pop()
                setattr(owner, attr, orig)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(spans: list[list], base: int, counts: dict) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[base:]`` plus the counters.

    self_s is a span's duration minus the time its children cover; total_s
    sums the spans of a name that have no ancestor of the same name, so
    recursion is not counted twice.  ``<module>.calls`` and
    ``<module>.total_s`` count the spans entered from another module.
    """
    part = spans[base:]
    child = [0.0] * len(part)
    for rec in part:
        if rec[3] >= base:
            child[rec[3] - base] += rec[2] - rec[1]
    values: Counter = Counter(counts)

    def name_of(parent: int) -> str:
        return spans[parent][0] if parent >= 0 else ""

    for i, (name, start, end, parent, _op) in enumerate(part):
        dur = end - start
        values[name + ".calls"] += 1
        values[name + ".self_s"] += dur - child[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            values[name + ".total_s"] += dur
        parent_name = name_of(parent)
        module = _module(name)
        if module in LAYERS and _module(parent_name) != module:
            values[module + ".calls"] += 1
            values[module + ".total_s"] += dur
        if name == "entangle.integrate_graded" and parent_name == "entangle.solve_weight":
            values["entangle.solve_weight.pipeline_runs"] += 1
        if name == "entangle.entanglement_report" and parent_name == "catalog.compare_states":
            values["catalog.compare_states.reports"] += 1
    pairs = values["qstate.left_multiply.pairs"]
    values["qstate.left_multiply.survival"] = (
        values["qstate.left_multiply.terms_out"] / pairs if pairs else 0.0
    )
    return dict(values)
