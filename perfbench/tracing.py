"""Spans around the program's layers, installed from the benchmark's side.

The program records nothing itself yet, so the traced run wraps the
public functions of each module at their import sites and keeps, per
wrapped name, the call count, the time of outermost calls (``s``) and the
self time (span minus the child spans it covers).  ``etdom._kernel`` is
wrapped only as a module attribute, which is how every caller reaches it;
calls inside a kernel stay inside its span.  The wrappers are removed
again after each traced pass, so untraced passes in the same process run
the program unchanged.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter

perf_counter = time.perf_counter

# module -> public names wrapped in it (graphs.Graph is its constructor)
LAYERS = {
    "cli": ["main"],
    "pipeline": ["reproduce_table", "run_filter", "check_catalogue"],
    "generate": ["generate_connected", "enumerate_circulants"],
    "graph6": ["decode", "encode"],
    "canon": ["canonical_form"],
    "constructions": ["circulant"],
    "invariants": ["independence_number", "clique_cover_number", "domination_number",
                   "is_vertex_critical", "is_edge_critical"],
    "eternal": ["eternal_domination_number", "can_defend", "prune_to_eternal",
                "defense_move", "dominating_sets_of_size"],
}
GENERATORS = {"generate.generate_connected"}
KERNEL = ["augment", "canon", "max_clique", "maximal_cliques", "clique_cover",
          "max_matching", "domination_number", "dominating_sets", "eternal_fixpoint",
          "count_dominating_sets", "exists_dominating_set"]

# Counts that must repeat exactly between passes of one commit.
EXACT_SUFFIXES = (".calls", ".children", ".configs", ".configs_in", ".survivors",
                  ".graphs")

# name -> unit of every per-layer metric reported; metric names start with
# a letter, so the etdom._kernel layer reports as kernel.*
PER_LAYER = {}
for _f in ("augment", "canon", "max_clique", "clique_cover", "max_matching",
           "domination_number", "dominating_sets", "eternal_fixpoint"):
    PER_LAYER[f"kernel.{_f}.calls"] = "count"
    PER_LAYER[f"kernel.{_f}.s"] = "s"
PER_LAYER.update({
    "kernel.augment.children": "count",
    "kernel.dominating_sets.configs": "count",
    "kernel.eternal_fixpoint.survivors": "count",
    "kernel.eternal_fixpoint.survive_ratio": "ratio",
    "kernel.eternal_fixpoint.configs_per_s": "1/s",
    "eternal.k_tries_per_decide": "ratio",
    "generate.generate_connected.calls": "count",
    "generate.generate_connected.s": "s",
    "generate.generate_connected.self_s": "s",
    "generate.generate_connected.graphs": "count",
})
for _name in ("graph6.decode", "graph6.encode", "graphs.Graph", "canon.canonical_form",
              "constructions.circulant", "invariants.independence_number",
              "invariants.clique_cover_number", "invariants.domination_number",
              "invariants.is_vertex_critical", "invariants.is_edge_critical",
              "eternal.eternal_domination_number", "eternal.can_defend",
              "eternal.prune_to_eternal", "eternal.defense_move"):
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.s"] = "s"
PER_LAYER.update({
    "eternal.eternal_domination_number.p50_ms": "ms",
    "eternal.eternal_domination_number.p90_ms": "ms",
    "eternal.self_s": "s",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
})


class Tracer:
    """Span statistics of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.decide_ms: list[float] = []
        self._depth = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple] = []

    # -- spans --

    def _enter(self, name):
        self._stack.append([0.0])
        self._depth[name] += 1
        return perf_counter()

    def _leave(self, name, t0, call=True):
        dt = perf_counter() - t0
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dt
        self._depth[name] -= 1
        self.calls[name] += call
        self.self_s[name] += dt - children
        if not self._depth[name]:
            self.s[name] += dt
        return dt

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._leave(name, t0)
            if after is not None:
                after(self, result, args, dt)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        """Each next() is a span; the consumer's work between them is not."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                t0 = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(name, t0, call=first)
                    first = False
                self.counts[name + ".graphs"] += 1
                yield item
        return traced

    # -- install --

    def _patch(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self):
        """Wrap every layer name in every etdom module that holds it."""
        from etdom import _kernel, graphs

        modules = [m for name, m in sys.modules.items()
                   if name == "etdom" or name.startswith("etdom.")
                   and not name.startswith("etdom._kernel")]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"etdom.{layer}"]
            for fname in names:
                full = f"{layer}.{fname}"
                original = getattr(mod, fname, None)
                if original is None:  # a later version may drop the name
                    continue
                if full in GENERATORS:
                    wrapped = self._wrap_generator(full, original)
                elif full == "eternal.eternal_domination_number":
                    wrapped = self._wrap(full, original, after=_record_decide)
                else:
                    wrapped = self._wrap(full, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)
        for fname in KERNEL:
            if hasattr(_kernel, fname):
                self._patch(_kernel, fname, self._wrap(
                    f"kernel.{fname}", getattr(_kernel, fname),
                    after=KERNEL_COUNTS.get(fname)))
        self._patch(graphs.Graph, "__init__",
                    self._wrap("graphs.Graph", graphs.Graph.__init__))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results --

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.s[name]
        out.update(self.counts)
        c = self.counts
        fix_s = self.s["kernel.eternal_fixpoint"]
        configs_in = c["kernel.eternal_fixpoint.configs_in"]
        out["kernel.eternal_fixpoint.survive_ratio"] = (
            c["kernel.eternal_fixpoint.survivors"] / configs_in if configs_in else 0.0)
        out["kernel.eternal_fixpoint.configs_per_s"] = configs_in / fix_s if fix_s else 0.0
        decides = self.calls["eternal.eternal_domination_number"]
        out["eternal.k_tries_per_decide"] = (
            self.calls["eternal.can_defend"] / decides if decides else 0.0)
        out["generate.generate_connected.self_s"] = self.self_s["generate.generate_connected"]
        decide_ms = sorted(self.decide_ms) or [0.0]
        out["eternal.eternal_domination_number.p50_ms"] = statistics.median(decide_ms)
        out["eternal.eternal_domination_number.p90_ms"] = decide_ms[
            math.ceil(0.9 * len(decide_ms)) - 1]  # nearest rank
        for module in ("eternal", "pipeline", "cli"):
            out[f"{module}.self_s"] = sum(
                v for name, v in self.self_s.items() if name.startswith(module + "."))
        return out


def _record_decide(tracer, result, args, dt):
    if not tracer._depth["eternal.eternal_domination_number"]:
        tracer.decide_ms.append(dt * 1e3)


def _count_children(tracer, result, args, dt):
    tracer.counts["kernel.augment.children"] += len(result)


def _count_configs(tracer, result, args, dt):
    tracer.counts["kernel.dominating_sets.configs"] += len(result)


def _count_fixpoint(tracer, result, args, dt):
    # eternal_fixpoint(n, adj, k, configs) returns the surviving configs
    tracer.counts["kernel.eternal_fixpoint.configs_in"] += len(args[3])
    tracer.counts["kernel.eternal_fixpoint.survivors"] += len(result)


KERNEL_COUNTS = {
    "augment": _count_children,
    "dominating_sets": _count_configs,
    "eternal_fixpoint": _count_fixpoint,
}


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}
