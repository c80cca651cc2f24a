"""One pass of each workload, with every result checked against its oracle.

A pass function takes the prepared state of a run and returns one record
per operation: ``(latency_s, ok, note, kind)``; ``kind`` names the sort of
operation, so the time of a pass can be split by it.  Operations call the package
through module attributes (``R.verify_suite``, ``D.all_k_kings``, ...) so
that a :class:`tracing.Tracer` installed around the pass sees them.  Any
exception an operation raises makes it a failed operation; the pass goes on.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

import kings.cli as C
import kings.digraph as D
import kings.formula as F
import kings.reductions as R
import kings.specifier as S


def _timed(records, kind, fn, check):
    """Run ``fn``, time it, and append ``(latency, check(result), note, kind)``."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed operation, not a failed run
        records.append((time.perf_counter() - start, False,
                        f"{type(exc).__name__}: {exc}", kind))
        return None
    latency = time.perf_counter() - start
    ok, note = check(result)
    records.append((latency, ok, note, kind))
    return result


def _suite_ok(report):
    ok = report.total > 0 and report.disagreements == 0
    return ok, f"{report.suite} {report.disagreements}/{report.total} disagree"


# -- oracle-sweep ------------------------------------------------------------

# claim2.2 n=2 matrices per operation.  One check takes about 0.4 ms, and the
# median of such short operations swings with the host's speed far more than
# the pass time does (0.23-0.26 against 0.16-0.19, IQR over median, 10 seeds).
TABLES_PER_OP = 128


def _table_check(bits):
    fe = F.ForallExistsFormula(2, F.formula_from_table(4, bits))
    truth = F.eval_forall_exists(fe)
    return truth, D.is_k_king(S.build_subtournament("pi2", fe), 0, 2)


def _tables_ok(tables, want, got):
    wrong = [(bits, g) for bits, w, g in zip(tables, want, got) if g != (w, w)]
    return not wrong, f"claim2.2:n=2 {len(wrong)}/{len(tables)} tables wrong, first {wrong[:1]}"


def oracle_sweep(state):
    records = []
    for name, seed in state["inputs"]["suites"]:
        _timed(records, name, lambda: R.verify_suite(name, seed=seed), _suite_ok)
    tables, truth = state["inputs"]["tables"], state["expect"]["truth"]
    for i in range(0, len(tables), TABLES_PER_OP):
        batch, want = tables[i:i + TABLES_PER_OP], truth[i:i + TABLES_PER_OP]
        _timed(records, "claim2.2:n=2 tables", lambda: [_table_check(b) for b in batch],
               lambda got: _tables_ok(batch, want, got))
    return records


# -- weave-bulk --------------------------------------------------------------

def _is_tournament(g):
    adj = g.adj
    return bool(np.array_equal(adj ^ adj.T, ~np.eye(adj.shape[0], dtype=bool)))


def weave_bulk(state):
    records = []
    inputs = state["inputs"]
    for name, seed in inputs["suites"]:
        _timed(records, name, lambda: R.verify_suite(name, seed=seed), _suite_ok)
    m, pairs, seed = inputs["audit"]
    spec = S.pi2_specifier()
    _timed(records, "pi2 audit", lambda: S.validate_specifier(spec, m, sample=pairs, seed=seed),
           lambda v: (v.passed and v.pairs_checked == pairs, v.summary()))
    g = _timed(records, "pi2 induced_graph", lambda: S.induced_graph(spec, m),
               lambda g: (g.num_nodes == 1 << m and _is_tournament(g),
                          f"pi2 m={m} induced graph is a tournament"))
    for node, want in zip(inputs["kingship_nodes"], state["expect"]["kingship"]):
        if g is None:
            records.append((0.0, False, "no induced graph", "pi2 is_k_king"))
            continue
        _timed(records, "pi2 is_k_king", lambda: D.is_k_king(g, node, 2),
               lambda got: (got == want, f"pi2 m={m} node={node} king={got}"))
    return records


# -- king-sets ---------------------------------------------------------------

def prepare_king_sets(state):
    """Unpack the bit-packed graphs one at a time into the package's digraphs.

    Each unpacked matrix is dropped once the package has its copy, so the
    process holds the three graphs and little else before the first pass.
    """
    packed = state["inputs"].pop("graphs")
    n = state["inputs"]["nodes"]
    state["graphs"] = {}
    for name in list(packed):
        adj = np.unpackbits(packed.pop(name), count=n * n).reshape(n, n).view(bool)
        state["graphs"][name] = D.ExplicitDigraph.from_adjacency(adj)
        del adj


def king_sets(state):
    records = []
    ks = state["inputs"]["ks"]
    for name, g in state["graphs"].items():
        want = state["expect"][name]
        _timed(records, name, lambda: [D.all_k_kings(g, k) for k in ks],
               lambda got: (all(got[i] == set(want[k]) for i, k in enumerate(ks)),
                            f"{name} king-set sizes {[len(s) for s in got]}"))
    return records


# -- decide ------------------------------------------------------------------

def cli(argv):
    """``kings.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = C.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _decision_ok(want):
    def check(got):
        rc, out, err = got
        ok = rc == (0 if want else 1) and out.strip() == ("true" if want else "false")
        return ok, f"rc={rc} out={out.strip()[:40]!r} err={err.strip()[:120]!r}"
    return check


def _reduce_ok(want):
    def check(got):
        rc, out, err = got
        ok = rc == 0 and f"expected {'true' if want else 'false'}" in out.splitlines()
        return ok, f"rc={rc} err={err.strip()[:120]!r}"
    return check


def _emitted(out):
    """(node, model fields, circuit text) from ``kings reduce`` output."""
    lines = out.splitlines()
    node = next(line.split()[1] for line in lines if line.startswith("node "))
    at = next(i for i, line in enumerate(lines) if line.startswith("model "))
    model = dict(f.split("=") for f in lines[at].split()[2:])
    return node, model, "\n".join(lines[at + 1:]) + "\n"


def decide(state):
    records = []
    circuit_path = Path(state["workdir"]) / "circuit.txt"
    tracer = state.get("tracer")
    for rid, (req, want) in enumerate(zip(state["inputs"]["requests"],
                                          state["expect"]["verdicts"])):
        if tracer is not None:
            tracer.request = rid
        argv = req["argv"]
        if req["kind"] == "a":
            _timed(records, "a", lambda: cli(argv), _decision_ok(want))
            continue
        got = _timed(records, "b", lambda: cli(argv), _reduce_ok(want))
        cmd, sub, k = req["then"]
        try:
            node, model, text = _emitted(got[1])
        except (TypeError, StopIteration, IndexError, ValueError):
            records.append((0.0, False, f"no circuit from {' '.join(argv[:3])}", "b"))
            continue
        circuit_path.write_text(text, encoding="utf-8")
        then = [cmd, sub, "--circuit", str(circuit_path)]
        if sub == "is-tournament":
            want = True
        elif cmd == "mpt":
            then += ["--j", model["j"], "--n", model["n"], "--node", node, "--k", str(k)]
        else:
            then += ["--node", node, "--k", str(k)]
        _timed(records, "b", lambda: cli(then), _decision_ok(want))
    return records


PASSES = {"oracle-sweep": oracle_sweep, "weave-bulk": weave_bulk,
          "king-sets": king_sets, "decide": decide}
PREPARE = {"king-sets": prepare_king_sets}
