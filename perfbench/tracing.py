"""Spans around calls into poslog's modules, from outside the package.

``install`` replaces each traced function in every ``poslog.*`` namespace
that holds it, so that calls through module attributes and through names
imported with ``from ... import`` are both recorded.  The callables stored
in ``SetFunctor`` and ``BAFunctor`` fields are wrapped by wrapping the
factories that build them, and the ``verify`` checks by wrapping the
entries of ``SUITES``.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, request)`` with ``parent`` the index
of the enclosing span (or -1).  Spans stay in memory; ``layer_metrics``
reduces them to the per-layer metrics listed in ``METRICS``.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict

FUNCTORS = ("pow", "nb", "mnb", "bag", "poly")
STEPS = ("pow", "mnb", "bag", "poly")
CLOSED_FORMS = {"posetify_powerset": "pow", "posetify_mnb": "mnb",
                "posetify_nb": "nb", "posetify_analytic": "analytic"}
# The checks of the suites that verify-quick runs (see workloads.VERIFY_SUITES).
VERIFY_CHECKS = (
    "closure-laws", "quotient-poset", "comparable-pairs", "connected-components",
    "duality-round-trip", "free-boolean-algebra", "family-term-translation",
    "boolean-kernel", "envelope-collapse", "ordered-double",
    "inserter-presentation", "reflexive-pairs-symmetric", "dual-composition")

# (module, function) -> span name, for plain functions.
SPANS = {
    ("poslog.cli", "main"): "cli.main",
    ("poslog.io", "read_json"): "io.load",
    ("poslog.io", "load_poset"): "io.load",
    ("poslog.io", "load_lattice"): "io.load",
    ("poslog.io", "load_coalgebra"): "io.load",
    ("poslog.io", "load_valuation"): "io.load",
    ("poslog.io", "poset_to_dict"): "io.poset_to_dict",
    ("poslog.functors", "lift_relation_generic"): "functors.lift_relation_generic",
    ("poslog.order", "transitive_closure"): "order.transitive_closure",
    ("poslog.order", "poset_quotient"): "order.poset_quotient",
    ("poslog.order", "cotensor2"): "order.cotensor2",
    ("poslog.order", "poset_isomorphism"): "order.poset_isomorphism",
    ("poslog.order", "connected_components"): "order.connected_components",
    ("poslog.algebra", "ba_inserter"): "algebra.ba_inserter",
    ("poslog.algebra", "assert_sublattice"): "algebra.assert_sublattice",
    ("poslog.algebra", "lattice_from_elements"): "algebra.lattice_from_elements",
    ("poslog.algebra", "kernel_K"): "algebra.kernel_K",
    ("poslog.algebra", "free_ba"): "algebra.free_ba",
    ("poslog.algebra", "prime_filter_poset"): "algebra.prime_filter_poset",
    ("poslog.posetify", "posetify_generic"): "posetify.posetify_generic",
    ("poslog.posetify", "cross_check"): "posetify.cross_check",
    ("poslog.positivize", "positivize"): "positivize.positivize",
    ("poslog.positivize", "closed_form_dunn"): "positivize.closed_form_dunn",
    ("poslog.positivize", "closed_form_fu"): "positivize.closed_form_fu",
    ("poslog.semantics", "interpret_positive"): "semantics.interpret_positive",
    ("poslog.semantics", "interpret_boolean"): "semantics.interpret_boolean",
    ("poslog.semantics", "check_positive_coalgebra"): "semantics.check_positive_coalgebra",
    ("poslog.semantics", "delta_prime"): "semantics.delta_prime",
    ("poslog.semantics", "delta_pow"): "semantics.delta_pow",
    ("poslog.semantics", "parse_formula"): "semantics.parse_formula",
    ("poslog.verify", "run_suite"): "verify.run_suite",
}
SPANS.update({("poslog.posetify", fn): f"posetify.closed_form.{key}"
              for fn, key in CLOSED_FORMS.items()})

SET_FUNCTOR_FACTORIES = ("pow_functor", "nb_functor", "mnb_functor",
                         "multiset_functor", "poly_functor")
SYNTAX_FACTORIES = ("semantic_l", "free_l")


# Counts taken from a call's arguments and result: span name -> function
# (args, result) -> [(counter, increment)].
def _count_pairs(args, result):
    return [("functors.lift_relation_generic.pairs", len(result.rel))]


def _count_quotient(args, result):
    return [("order.poset_quotient.classes", len(result[0])),
            ("order.poset_quotient.carrier", len(args[0].carrier))]


def _count_inserter(args, result):
    return [("algebra.ba_inserter.sweep", 1 << len(args[0].source.atoms)),
            ("algebra.ba_inserter.members", len(result))]


def _count_sublattice(args, result):
    return [("algebra.assert_sublattice.pairs", len(args[0]) ** 2)]


def _count_cross_check(args, result):
    return [("posetify.cross_check.comparisons", len(result.generic.result) ** 2)]


COUNTERS = {
    "functors.lift_relation_generic": _count_pairs,
    "order.poset_quotient": _count_quotient,
    "algebra.ba_inserter": _count_inserter,
    "algebra.assert_sublattice": _count_sublattice,
    "posetify.cross_check": _count_cross_check,
}


def _metric_table() -> list:
    """Every per-layer metric as ``(name, unit, kind, source)``.

    kinds: ``self`` (self time of a span name), ``total`` (duration of a
    span name), ``calls`` (number of spans), ``count`` (a counter),
    ``ratio`` (counter over counter), ``pass`` (a value the worker reports
    for the whole pass)."""
    t = [("cli.main.self_s", "s", "self", "cli.main"),
         ("cli.stdout_bytes", "bytes", "pass", "cli.stdout_bytes"),
         ("cli.refused.count", "count", "pass", "cli.refused.count"),
         ("cli.refused.s", "s", "pass", "cli.refused.s"),
         ("io.load.self_s", "s", "self", "io.load"),
         ("io.poset_to_dict.self_s", "s", "self", "io.poset_to_dict")]
    for fn in FUNCTORS:
        t.append((f"functors.on_obj.{fn}.self_s", "s", "self", f"functors.on_obj.{fn}"))
        t.append((f"functors.on_obj.{fn}.items", "count", "count",
                  f"functors.on_obj.{fn}.items"))
    t.append(("functors.on_mor.self_s", "s", "self", "functors.on_mor"))
    for fn in STEPS:
        t.append((f"functors.step_relation.{fn}.self_s", "s", "self",
                  f"functors.step_relation.{fn}"))
    t += [("functors.lift_relation_generic.self_s", "s", "self",
           "functors.lift_relation_generic"),
          ("functors.lift_relation_generic.pairs", "count", "count",
           "functors.lift_relation_generic.pairs"),
          ("functors.powerset.hit_ratio", "ratio", "pass", "functors.powerset.hit_ratio"),
          ("order.transitive_closure.self_s", "s", "self", "order.transitive_closure"),
          ("order.poset_quotient.self_s", "s", "self", "order.poset_quotient"),
          ("order.poset_quotient.class_ratio", "ratio", "ratio",
           ("order.poset_quotient.classes", "order.poset_quotient.carrier")),
          ("order.cotensor2.self_s", "s", "self", "order.cotensor2"),
          ("order.poset_isomorphism.self_s", "s", "self", "order.poset_isomorphism"),
          ("order.poset_isomorphism.calls", "count", "calls", "order.poset_isomorphism"),
          ("order.connected_components.self_s", "s", "self", "order.connected_components"),
          ("algebra.ba_inserter.self_s", "s", "self", "algebra.ba_inserter"),
          ("algebra.ba_inserter.sweep", "count", "count", "algebra.ba_inserter.sweep"),
          ("algebra.ba_inserter.member_ratio", "ratio", "ratio",
           ("algebra.ba_inserter.members", "algebra.ba_inserter.sweep")),
          ("algebra.assert_sublattice.self_s", "s", "self", "algebra.assert_sublattice"),
          ("algebra.assert_sublattice.pairs", "count", "count",
           "algebra.assert_sublattice.pairs"),
          ("algebra.lattice_from_elements.self_s", "s", "self",
           "algebra.lattice_from_elements"),
          ("algebra.kernel_K.self_s", "s", "self", "algebra.kernel_K"),
          ("algebra.free_ba.self_s", "s", "self", "algebra.free_ba"),
          ("algebra.prime_filter_poset.self_s", "s", "self", "algebra.prime_filter_poset"),
          ("posetify.posetify_generic.self_s", "s", "self", "posetify.posetify_generic")]
    for key in CLOSED_FORMS.values():
        t.append((f"posetify.closed_form.{key}.self_s", "s", "self",
                  f"posetify.closed_form.{key}"))
    t += [("posetify.cross_check.self_s", "s", "self", "posetify.cross_check"),
          ("posetify.cross_check.comparisons", "count", "count",
           "posetify.cross_check.comparisons"),
          ("positivize.positivize.self_s", "s", "self", "positivize.positivize"),
          ("positivize.closed_form_dunn.self_s", "s", "self", "positivize.closed_form_dunn"),
          ("positivize.closed_form_fu.self_s", "s", "self", "positivize.closed_form_fu"),
          ("positivize.syntax_functor.self_s", "s", "self", "positivize.syntax_functor"),
          ("semantics.interpret_positive.self_s", "s", "self",
           "semantics.interpret_positive"),
          ("semantics.interpret_positive.calls", "count", "calls",
           "semantics.interpret_positive"),
          ("semantics.interpret_boolean.self_s", "s", "self", "semantics.interpret_boolean"),
          ("semantics.check_positive_coalgebra.self_s", "s", "self",
           "semantics.check_positive_coalgebra"),
          ("semantics.delta_prime.self_s", "s", "self", "semantics.delta_prime"),
          ("semantics.delta_pow.self_s", "s", "self", "semantics.delta_pow"),
          ("semantics.parse_formula.self_s", "s", "self", "semantics.parse_formula")]
    t += [(f"verify.{c}.s", "s", "total", f"verify.{c}") for c in VERIFY_CHECKS]
    t.append(("verify.run_suite.self_s", "s", "self", "verify.run_suite"))
    return t


METRICS = _metric_table()


class Tracer:
    """Records spans and counters for one pass.

    Spans are kept column-wise in arrays, about 30 bytes each, because an
    exhaustive verify suite makes millions of traced calls."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.requests: list = []
        self.name_col = array("I")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.stack: list = []
        self.counts: dict = defaultdict(int)

    def begin(self, request: str) -> None:
        """Tag the spans that follow with ``request``."""
        self.requests.append(request)
        self.stack.clear()

    def wrap(self, name: str, fn, counter=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, requests = self.parent_col, self.request_col
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(len(self.requests) - 1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, result):
                    counts[key] += amount
            return result

        return traced

    def spans(self) -> "SpanView":
        return SpanView(self)


class SpanView:
    """The spans of a tracer as a sequence of
    ``(name, start, end, parent, request)``, built on access."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __len__(self) -> int:
        return len(self.tracer.start_col)

    def __getitem__(self, i: int) -> tuple:
        t = self.tracer
        request = t.request_col[i]
        return (t.names[t.name_col[i]], t.start_col[i], t.end_col[i], t.parent_col[i],
                t.requests[request] if request >= 0 else None)


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "poslog" or modname.startswith("poslog.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _functor_key(name: str) -> str:
    return "bag" if name.startswith("bag:") else name.split(":")[0]


def install(tracer: Tracer) -> None:
    """Wrap every traced function of an imported ``poslog`` package."""
    for (modname, attr), name in SPANS.items():
        original = getattr(sys.modules[modname], attr)
        _replace_everywhere(original, tracer.wrap(name, original, COUNTERS.get(name)))

    def items(key):
        return lambda args, result: [(f"functors.on_obj.{key}.items", len(result))]

    def traced_set_functor(factory):
        def build(*args, **kwargs):
            t = factory(*args, **kwargs)
            key = _functor_key(t.name)
            step = t.step_relation
            return dataclasses.replace(
                t,
                on_obj=tracer.wrap(f"functors.on_obj.{key}", t.on_obj, items(key)),
                on_mor=tracer.wrap("functors.on_mor", t.on_mor),
                step_relation=None if step is None else
                tracer.wrap(f"functors.step_relation.{key}", step))
        return functools.wraps(factory)(build)

    def traced_syntax_functor(factory):
        def build(*args, **kwargs):
            l = factory(*args, **kwargs)
            fields = {f: tracer.wrap("positivize.syntax_functor", getattr(l, f))
                      for f in ("on_obj", "on_mor", "diamond", "box")
                      if getattr(l, f) is not None}
            return dataclasses.replace(l, **fields)
        return functools.wraps(factory)(build)

    functors = sys.modules["poslog.functors"]
    for attr in SET_FUNCTOR_FACTORIES:
        original = getattr(functors, attr)
        _replace_everywhere(original, traced_set_functor(original))
    positivize = sys.modules["poslog.positivize"]
    for attr in SYNTAX_FACTORIES:
        original = getattr(positivize, attr)
        _replace_everywhere(original, traced_syntax_functor(original))
    suites = sys.modules["poslog.verify"].SUITES
    for suite, checks in suites.items():
        suites[suite] = tuple((check, tracer.wrap(f"verify.{check}", fn))
                              for check, fn in checks)


def span_totals(spans) -> tuple:
    """``(self time, total time, calls)``, each a dict keyed by span name.

    A span's self time is its duration minus the time its child spans
    cover.  Spans of one thread nest, so the children of a span are
    disjoint intervals inside it, and each child has a higher index than
    its parent; one backward sweep therefore sees every child before its
    parent."""
    own: dict = defaultdict(float)
    total: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    covered = array("d", bytes(8 * len(spans)))
    for index in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[index]
        duration = end - start
        own[name] += duration - covered[index]
        total[name] += duration
        calls[name] += 1
        if parent >= 0:
            covered[parent] += duration
    return dict(own), dict(total), dict(calls)


def layer_metrics(tracer: Tracer, pass_values: dict) -> dict:
    """Per-layer metric name -> value for one traced pass."""
    own, total, calls = span_totals(tracer.spans())
    out = {}
    for metric, _, kind, source in METRICS:
        if kind == "self":
            out[metric] = own.get(source, 0.0)
        elif kind == "total":
            out[metric] = total.get(source, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(source, 0)
        elif kind == "count":
            out[metric] = tracer.counts.get(source, 0)
        elif kind == "ratio":
            num, den = (tracer.counts.get(k, 0) for k in source)
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = pass_values[source]
    return out
