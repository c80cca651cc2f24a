"""Deterministic instance generators for suites and property tests.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a seed; no wall-clock entropy anywhere.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .circuit import BooleanCircuit, JTournamentCircuit
from .digraph import ExplicitDigraph, MultipartiteTournament


def random_digraph(rng, num_nodes: int, p: float = 0.5) -> ExplicitDigraph:
    adj = np.zeros((num_nodes, num_nodes), dtype=bool)
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v and rng.random() < p:
                adj[u, v] = True
    return ExplicitDigraph.from_adjacency(adj)


def enumerate_all_digraphs(num_nodes: int) -> Iterator[ExplicitDigraph]:
    """Every simple digraph on the given nodes (all ordered-pair subsets)."""
    pairs = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v]
    for mask in range(1 << len(pairs)):
        adj = np.zeros((num_nodes, num_nodes), dtype=bool)
        for p, (u, v) in enumerate(pairs):
            if (mask >> p) & 1:
                adj[u, v] = True
        yield ExplicitDigraph.from_adjacency(adj)


def random_multipartite_tournament(rng, j: int, max_part: int,
                                   force_two_sources: bool = False
                                   ) -> MultipartiteTournament:
    """A random j-partite tournament with nonempty parts of size <= max_part.

    With ``force_two_sources`` two same-part nodes get all their cross edges
    oriented outward, giving the tournament (at least) two indegree-zero
    nodes.
    """
    sizes = [rng.randint(1, max_part) for _ in range(j)]
    if force_two_sources and max(sizes) < 2:
        sizes[0] = 2
    parts = []
    start = 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    adj = np.zeros((start, start), dtype=bool)
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    sources = []
    if force_two_sources:
        big = next(p for p in parts if len(p) >= 2)
        sources = rng.sample(big, 2)
    for u in range(start):
        for v in range(u + 1, start):
            if part_of[u] == part_of[v]:
                continue
            if u in sources and v not in sources:
                adj[u, v] = True
            elif v in sources and u not in sources:
                adj[v, u] = True
            elif rng.random() < 0.5:
                adj[u, v] = True
            else:
                adj[v, u] = True
    return MultipartiteTournament(ExplicitDigraph.from_adjacency(adj), parts)


def random_circuit(rng, num_inputs: int, num_gates: int = 12) -> BooleanCircuit:
    """A random well-formed circuit touching all inputs."""
    gates = [("INPUT", i) for i in range(num_inputs)]
    if not gates:
        gates = [("CONST", rng.randint(0, 1))]
    for _ in range(num_gates):
        op = rng.choice(("NOT", "AND", "OR", "CONST"))
        if op == "CONST":
            gates.append(("CONST", rng.randint(0, 1)))
        elif op == "NOT":
            gates.append(("NOT", rng.randrange(len(gates))))
        else:
            gates.append((op, rng.randrange(len(gates)), rng.randrange(len(gates))))
    return BooleanCircuit(num_inputs, tuple(gates), len(gates) - 1)


def random_jtournament_circuit(rng, j: int, n: int,
                               num_gates: int = 12) -> JTournamentCircuit:
    return JTournamentCircuit(j, n, random_circuit(rng, j * (n + 1), num_gates))
