"""Seeded workload inputs and the benchmark's own oracles.

Everything a workload feeds to ``kings`` is generated here from the
workload seed, together with the verdict each operation must return.  The
verdicts come from oracles written here, independently of the package:
forall-exists truth and tautology read straight off truth tables, and
k-king sets from dense boolean matrix products.  The package is
used only to materialize the weave graphs whose kingship the reach oracle
then decides.

``make_inputs`` returns ``{"inputs": ..., "expect": ...}``; ``digest`` of
the ``inputs`` part identifies the input set of a run.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("oracle-sweep", "weave-bulk", "king-sets", "decide")

# oracle-sweep: the share of the 65,536 claim2.2 n=2 matrices checked a pass
SWEEP_TABLES = 4096
# weave-bulk: sampled guard-audit pairs and leftover nodes checked at m=12
AUDIT_PAIRS = 100_000
LEFTOVERS = 500
# king-sets: nodes per graph, the k values, and the sparse graph's mean out-degree
KING_NODES = 2048
KING_KS = (1, 2, 3, 4)
SPARSE_DEGREE = 8


# -- oracles -----------------------------------------------------------------

def fe_truth(n: int, table: str) -> bool:
    """Forall-exists truth of a 2n-variable matrix table (x block first)."""
    block = 1 << n
    return all("1" in table[x * block:(x + 1) * block] for x in range(block))


def tautology(table: str) -> bool:
    return "0" not in table


def reach_kings(adj: np.ndarray, ks) -> dict:
    """k -> boolean king mask, from products of the 0/1 adjacency matrix.

    Row v of the reach matrix after j products marks the nodes v reaches by
    a path of length at most j.  float32 products of 0/1 matrices are exact
    far beyond 2**13 nodes, so ``> 0`` is exact.
    """
    a = adj.astype(np.float32)
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    out = {}
    for j in range(1, max(ks) + 1):
        if j > 1:
            reach |= (reach.astype(np.float32) @ a) > 0
        if j in ks:
            out[j] = reach.all(axis=1)
    return out


def _balanced(rng: random.Random, width: int) -> str:
    """A seeded table with exactly half its bits set."""
    bits = ["1"] * (width // 2) + ["0"] * (width - width // 2)
    rng.shuffle(bits)
    return "".join(bits)


def _dnf(table: str, names) -> str:
    """A sum-of-minterms expression with the given truth table."""
    terms = []
    for i, bit in enumerate(table):
        if bit == "1":
            a = format(i, f"0{len(names)}b")
            terms.append("(" + " & ".join(v if c == "1" else "!" + v
                                          for v, c in zip(names, a)) + ")")
    return " | ".join(terms) if terms else f"({names[0]} & !{names[0]})"


def _fe_text(n: int, table: str, as_expr: bool) -> str:
    if not as_expr:
        return f"fe:n={n}:tt:{table}"
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    return f"fe:n={n}:{_dnf(table, names)}"


def _prop_text(n: int, table: str, as_expr: bool) -> str:
    if not as_expr:
        return f"tt:{table}"
    return f"vars={n}: " + _dnf(table, [f"x{i}" for i in range(1, n + 1)])


def _pair_v1(x: str, y: str) -> str:
    # the package's first pairing: each bit of x behind a 0, then 1, then y
    return "".join("0" + c for c in x) + "1" + y


# -- workloads ---------------------------------------------------------------

def _oracle_sweep(seed: int) -> dict:
    rng = random.Random(f"oracle-sweep/{seed}")
    tables = [format(v, "016b") for v in rng.sample(range(1 << 16), SWEEP_TABLES)]
    suite_seed = rng.randrange(1 << 31)
    suites = [["claim2.2:n=1", suite_seed], ["claim2.2:n=3s", suite_seed],
              ["claim2.11", suite_seed]]
    return {"inputs": {"suites": suites, "tables": tables},
            "expect": {"truth": [fe_truth(2, t) for t in tables]}}


def _pi2_m12_nodes():
    """The non-leftover strings of the pi2 weave at m=12, by role.

    At m=12 the ttfe codec's members are the sixteen n=1 matrices; each
    owns the suffixes 000 (potential king), 010 (marker), 10y and 11x.
    """
    encs = [format(v, "04b") for v in range(16)]
    roles = {"0" * 12: ("zero", None)}
    for enc in encs:
        roles[_pair_v1(enc, "000")] = ("pk", enc)
        roles[_pair_v1(enc, "010")] = ("marker", enc)
        for w in ("100", "101", "110", "111"):
            roles[_pair_v1(enc, w)] = ("member", enc)
    return roles


def _weave_bulk(seed: int) -> dict:
    rng = random.Random(f"weave-bulk/{seed}")
    suite_seed = rng.randrange(1 << 31)
    roles = _pi2_m12_nodes()
    leftovers = sorted(rng.sample([v for v in range(1 << 12)
                                   if format(v, "012b") not in roles], LEFTOVERS))
    smallest = min(enc for kind, enc in roles.values() if kind == "pk")
    nodes, expect = [int("0" * 12, 2)], [True]
    for z, (kind, enc) in sorted(roles.items()):
        if kind == "pk":
            nodes.append(int(z, 2))
            expect.append(fe_truth(1, enc))
        elif kind == "marker":
            nodes.append(int(z, 2))
            expect.append(enc == smallest)
    nodes += leftovers
    expect += [False] * len(leftovers)
    return {"inputs": {"suites": [["weave-conp:m=8", suite_seed],
                                  ["weave-np:m=9", suite_seed]],
                       "audit": [12, AUDIT_PAIRS, suite_seed],
                       "kingship_nodes": nodes},
            "expect": {"kingship": expect}}


def _weave_adjacency(name: str, m: int) -> np.ndarray:
    """The package's materialization of a built-in weave at length m."""
    from kings.specifier import induced_graph, make_builtin_specifier
    return induced_graph(make_builtin_specifier(name), m).adj


def _random_tournament(rng: np.random.Generator, n: int) -> np.ndarray:
    up = np.triu(rng.random((n, n)) < 0.5, 1)
    return up | np.triu(~up, 1).T


def _sparse_digraph(rng: np.random.Generator, n: int) -> np.ndarray:
    adj = rng.random((n, n)) < SPARSE_DEGREE / n
    np.fill_diagonal(adj, False)
    return adj


def _pi2_subtournament(rng: np.random.Generator, n: int, full: np.ndarray) -> np.ndarray:
    """All 97 non-leftover nodes of the m=12 pi2 weave plus seeded leftovers,
    in seeded order: an induced subtournament with a few kings."""
    keep = np.array(sorted(int(z, 2) for z in _pi2_m12_nodes()))
    rest = np.setdiff1d(np.arange(full.shape[0]), keep)
    chosen = np.concatenate([keep, rng.choice(rest, n - len(keep), replace=False)])
    chosen = rng.permutation(chosen)
    return full[np.ix_(chosen, chosen)]


def _king_sets(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    graphs = {"pi2-weave": _pi2_subtournament(rng, KING_NODES, _weave_adjacency("pi2", 12)),
              "tournament": _random_tournament(rng, KING_NODES),
              "sparse": _sparse_digraph(rng, KING_NODES)}
    expect = {name: {k: np.flatnonzero(mask).tolist()
                     for k, mask in reach_kings(adj, KING_KS).items()}
              for name, adj in graphs.items()}
    # bit-packed, so the child's unpickling costs 1/8 of the graphs' size
    packed = {name: np.packbits(adj, axis=None) for name, adj in graphs.items()}
    return {"inputs": {"graphs": packed, "nodes": KING_NODES, "ks": list(KING_KS)},
            "expect": expect}


def _catalog_tables(root: Path):
    text = (root / "src" / "kings" / "data" / "catalog16.txt").read_text()
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    return [line for line in lines if line]


def _weave_kings(name: str, m: int):
    return reach_kings(_weave_adjacency(name, m), (2,))[2]


def _decide(seed: int, root: Path) -> dict:
    """Requests for the closed loop, each with its expected verdict.

    Kind ``a`` asks ``spec king`` about seeded weave nodes; kind ``b`` reduces
    a seeded formula and then asks about the emitted circuit.  The expected
    verdict of a ``b`` request is the formula's; ``is-tournament`` always
    expects true.
    """
    rng = random.Random(f"decide/{seed}")
    requests, expect = [], []

    def spec_king(spec, node, k, verdict):
        requests.append({"kind": "a", "argv": ["spec", "king", "--spec", spec,
                                               "--node", node, "--k", str(k)]})
        expect.append(verdict)

    # (a) pi2 at m=12: all sixteen potential kings (formula oracle) and
    # seeded random strings (reach oracle); conp at m=8 and np at m=9:
    # seeded random strings.  The pi2 requests are about half the requests,
    # so the median latency is a pi2 point query.  Kind a takes about 45% of
    # a pass's time and kind b about 55% (the worker reports both shares).
    pi2_kings = _weave_kings("pi2", 12)
    for v in range(16):
        enc = format(v, "04b")
        spec_king("pi2", _pair_v1(enc, "000"), 2, fe_truth(1, enc))
    for v in rng.sample(range(1 << 12), 22):
        spec_king("pi2", format(v, "012b"), 2, bool(pi2_kings[v]))
    for name, m in (("conp", 8), ("np", 9)):
        kings_mask = _weave_kings(name, m)
        for v in rng.sample(range(1 << m), 3):
            spec_king(name, format(v, f"0{m}b"), 2, bool(kings_mask[v]))
    # the reduced nodes of the first four catalog entries in the 3-king
    # weave at m=13 (their cost rises steeply with the index)
    tables = _catalog_tables(root)
    for idx in range(4):
        spec_king("kkings:3", _pair_v1(format(idx, "04b"), "0001"), 3,
                  fe_truth(2, tables[idx]))

    # (b) reduce, then decide on the emitted circuit.  Tables are balanced,
    # which keeps the size of the emitted circuits, and so the cost of a
    # request, the same from seed to seed; one more onekings n=4 formula is
    # the tautology, so that both of its verdicts occur on every seed.
    def reduce_then(kind, text, check, verdict):
        requests.append({"kind": "b", "argv": ["reduce", "--kind", kind,
                                               "--formula", text],
                         "then": check})
        expect.append(verdict)

    # (kind, n, also ask is-tournament)
    plan = [("gw-antenna:2", 3, True), ("gw-antenna:3", 2, False),
            ("gw-antenna:4", 3, True), ("2partite", 2, False), ("2partite", 3, False),
            ("2partite", 4, False), ("onekings", 4, True), ("onekings", 5, False),
            ("onekings", 6, False)]
    for i, (kind, n, tournament) in enumerate(plan):
        as_expr = i % 2 == 1
        if kind == "onekings":
            table = _balanced(rng, 1 << n)
            text, verdict = _prop_text(n, table, as_expr), tautology(table)
            check = ["gw", "king", 1]
        else:
            table = _balanced(rng, 1 << (2 * n))
            text, verdict = _fe_text(n, table, as_expr), fe_truth(n, table)
            check = (["mpt", "king", 2] if kind == "2partite"
                     else ["gw", "king", int(kind.split(":")[1])])
        reduce_then(kind, text, check, verdict)
        if tournament:
            reduce_then(kind, text, ["gw", "is-tournament", 0], verdict)
    reduce_then("onekings", _prop_text(4, "1" * 16, True), ["gw", "king", 1], True)
    return {"inputs": {"requests": requests}, "expect": {"verdicts": expect}}


def make_inputs(workload: str, seed: int, root: Path) -> dict:
    if workload == "oracle-sweep":
        return _oracle_sweep(seed)
    if workload == "weave-bulk":
        return _weave_bulk(seed)
    if workload == "king-sets":
        return _king_sets(seed)
    if workload == "decide":
        return _decide(seed, root)
    raise ValueError(f"unknown workload {workload!r}")


def digest(obj) -> str:
    """sha256 over a canonical walk of nested dicts, lists, scalars and arrays."""
    h = hashlib.sha256()

    def walk(x):
        if isinstance(x, dict):
            h.update(b"{")
            for key in sorted(x):
                walk(key)
                walk(x[key])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                walk(item)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(f"<{x.dtype}{x.shape}>".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(f"{type(x).__name__}:{x!r};".encode())

    walk(obj)
    return h.hexdigest()
