"""Layer spans recorded from outside the package.

A :class:`Tracer` wraps the public functions of each layer module at every
module global (and module-level registry dict) of ``kings`` that holds
them, so calls the package makes to itself are traced exactly as calls
from the benchmark are.  Each call records a span (name, start, end,
parent span, request id); a layer's self time is its span's duration minus
the durations of its direct child spans.  Spans stay in memory until
:meth:`Tracer.write_spans`.

``bitstrings``, ``pairing``, ``generators`` and ``limits`` are leaf helpers
and are not wrapped: their time counts in their callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, span name); the five reduction builders share a name
TRACED = [
    ("formula", "formula_from_table", "formula.formula_from_table"),
    ("formula", "truth_table_of", "formula.truth_table_of"),
    ("formula", "eval_forall_exists", "formula.eval_forall_exists"),
    ("formula", "is_tautology", "formula.is_tautology"),
    ("formula", "is_satisfiable", "formula.is_satisfiable"),
    ("formula", "parse_formula_input", "formula.parse_formula_input"),
    ("specifier", "build_subtournament", "specifier.build_subtournament"),
    ("specifier", "validate_specifier", "specifier.validate_specifier"),
    ("specifier", "induced_graph", "specifier.induced_graph"),
    ("specifier", "specifier_k_king", "specifier.specifier_k_king"),
    ("digraph", "is_k_king", "digraph.is_k_king"),
    ("digraph", "all_k_kings", "digraph.all_k_kings"),
    ("circuit", "table_to_circuit", "circuit.table_to_circuit"),
    ("circuit", "eval_circuit_batch", "circuit.eval_circuit_batch"),
    ("circuit", "parse_circuit", "circuit.parse_circuit"),
    ("circuit", "format_circuit", "circuit.format_circuit"),
    ("circuit", "gw_materialize", "circuit.gw_materialize"),
    ("circuit", "jt_materialize", "circuit.jt_materialize"),
    ("reductions", "verify_suite", "reductions.verify_suite"),
    ("reductions", "reduce_to_kings", "reductions.instance_build"),
    ("reductions", "reduce_to_kkings", "reductions.instance_build"),
    ("reductions", "build_gw_antenna_instance", "reductions.instance_build"),
    ("reductions", "reduce_taut_to_1king_gw", "reductions.instance_build"),
    ("reductions", "build_2partite_instance", "reductions.instance_build"),
    ("cli", "main", "cli.main"),
]

# per-layer metric -> unit; every statistic is per traced pass
PER_LAYER = {f"{span}.{stat}": unit for _, _, span in TRACED
             for stat, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "specifier.validate_specifier.pairs": "count",
    "specifier.induced_graph.nodes": "count",
    "specifier.induced_graph.adj_bytes": "bytes",
    "specifier.specifier_k_king.select_calls": "count",
    "specifier.specifier_k_king.selects_per_node": "1",
    "circuit.table_to_circuit.gates": "count",
    "circuit.eval_circuit_batch.gate_evals": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})


def _count_pairs(stats, args, result):
    stats["pairs"] += result.pairs_checked


def _count_graph(stats, args, result):
    stats["nodes"] += result.num_nodes
    stats["adj_bytes"] += result.adj.nbytes


def _count_gates(stats, args, result):
    stats["gates"] += len(result.circuit.gates)


def _count_gate_evals(stats, args, result):
    circuit, inputs = args[0], args[1]
    stats["gate_evals"] += len(circuit.gates) * len(inputs)


_COUNTERS = {
    "specifier.validate_specifier": _count_pairs,
    "specifier.induced_graph": _count_graph,
    "circuit.table_to_circuit": _count_gates,
    "circuit.eval_circuit_batch": _count_gate_evals,
}


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent, request]
        self.stats = defaultdict(lambda: defaultdict(float))
        self.request = None
        self._stack = []          # [span id, child seconds] of open spans

    def _wrap(self, span_name, fn):
        counter = _COUNTERS.get(span_name)
        selects = span_name == "specifier.specifier_k_king"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if selects:
                spec = args[0]
                had_attr = "select" in vars(spec)
                spec.select = self._counting_select(spec.select, len(args[1]))
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append([span_name, 0.0, 0.0, parent, self.request])
            self._stack.append([sid, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                span = self.spans[sid]
                span[1], span[2] = start, end
                if self._stack:
                    self._stack[-1][1] += end - start
                st = self.stats[span_name]
                st["calls"] += 1
                st["self_s"] += (end - start) - child
                if selects:
                    if had_attr:
                        spec.select = spec.select.original
                    else:
                        del spec.select
            if counter is not None:
                counter(self.stats[span_name], args, result)
            return result

        return wrapper

    def _counting_select(self, select, m):
        st = self.stats["specifier.specifier_k_king"]
        st["nodes"] += 1 << m

        def counting(x, y):
            st["select_calls"] += 1
            return select(x, y)

        counting.original = select
        return counting

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kings" or name.startswith("kings.")]
        patches = []  # (container, key, original)
        for mod_name, fn_name, span_name in TRACED:
            original = getattr(sys.modules[f"kings.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((vars(mod), key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                patches.append((value, k, original))
                                value[k] = wrapper
        try:
            yield self
        finally:
            for container, key, original in reversed(patches):
                container[key] = original

    def per_pass(self, passes: int) -> dict:
        """Each per-layer statistic, averaged over ``passes`` traced passes."""
        out = {}
        for name in PER_LAYER:
            span, _, stat = name.rpartition(".")
            if span == "trace":
                continue
            if stat == "selects_per_node":
                st = self.stats[span]
                value = st["select_calls"] / st["nodes"] if st["nodes"] else 0.0
            else:
                value = self.stats[span][stat] / passes
            out[name] = value
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
