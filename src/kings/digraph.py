"""Explicit directed graphs: k-king decision, king finding, recognizers.

Graphs are simple (no self-loops) and stored as a dense boolean adjacency
matrix.  Graphs are built once from a whole matrix and are immutable: the
stored adjacency is read-only.  No graph has more than
``limits.DEFAULT_NODE_CAP`` nodes; the cap is checked before any matrix is
allocated.

Depth-bounded reachability is one kernel over a frontier matrix.  Sources
are taken in blocks of rows.  A step grows every live row of a block by the
product of its frontier with the adjacency matrix, in float32 and one panel
of columns at a time; a block with a single live row is grown by gathering
the adjacency rows of its frontier instead.  A row leaves its block as soon
as it reaches every node or stops growing, so any depth ends within n
steps.  Block and panel sizes follow from the node count under one byte
budget.  Products of 0/1 matrices are exact in float32 up to 2**24 nodes,
far above the node cap, and ``> 0`` reads them as reachability.

A product costs the same however few nodes a frontier holds.  So when a
graph spans more than one panel, k_king_mask packs the adjacency rows 64
columns to a word, and a block whose frontier rows hold at most n / 8
nodes each is grown by ORing the packed rows of each row's nodes instead,
one node slot at a time.  The early steps through a sparse digraph are
such steps, and so are the late steps of a walk that has all but stopped
growing, as in a weave's subtournaments after step two.

Kingship asks less of the last step: only whether a row reaches every
node.  So when the columns span more than one panel, the walk stops a step
short, and the last step takes one panel at a time, by product or, for a
single row, by gathering its frontier's adjacency rows over that panel
alone.  After each panel a row with a column still unreached leaves as not
a king; a row that reaches every node is a king, as before.  A single row
whose unreached columns fit in one panel reads only those columns, 1, 2,
4, ... at a time, and leaves at the first batch its frontier does not
cover.  A core node of a weave leaves a few columns unreached after one
step, and a leftover misses node 0, so either last step costs a few
columns or one panel, not the n columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Set

import numpy as np

from .limits import check_node_cap


class GraphParseError(ValueError):
    pass


def _check_node_count(num_nodes: int) -> None:
    if num_nodes < 1:
        raise ValueError("a graph has at least one node")
    check_node_cap(num_nodes)


class ExplicitDigraph:
    """Dense-node digraph with optional string labels, kept as a tuple."""

    def __init__(self, num_nodes: int, labels: Optional[Sequence[str]] = None):
        """The graph on num_nodes nodes with no edges."""
        _check_node_count(num_nodes)
        self._own(np.zeros((num_nodes, num_nodes), dtype=bool), labels)

    def _own(self, adj: np.ndarray, labels) -> None:
        """Store adj, which no one else holds, read-only, and the labels."""
        adj.flags.writeable = False
        self._adj = adj
        self._labels = None
        self._label_index = None
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(adj):
                raise ValueError("one label per node")
            self._labels = labels
            self._label_index = {lab: i for i, lab in enumerate(labels)}
            if len(self._label_index) != len(adj):
                raise ValueError("labels must be distinct")

    @classmethod
    def from_edges(cls, num_nodes, edges, labels=None):
        _check_node_count(num_nodes)
        adj = np.zeros((num_nodes, num_nodes), dtype=bool)
        for u, v in edges:
            for w in (u, v):
                if not 0 <= w < num_nodes:
                    raise ValueError(f"node {w} not in graph of {num_nodes} nodes")
            adj[u, v] = True
        return cls.from_adjacency(adj, labels)

    @classmethod
    def from_adjacency(cls, matrix, labels=None):
        """The graph with a copy of matrix (nonzero entries are edges) as
        its adjacency; the copy is the one array the graph allocates."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("adjacency must be square")
        _check_node_count(matrix.shape[0])
        if matrix.diagonal().any():
            raise ValueError("self-loops are not allowed")
        g = cls.__new__(cls)
        g._own(np.array(matrix, dtype=bool), labels)
        return g

    @property
    def num_nodes(self) -> int:
        return self._adj.shape[0]

    @property
    def labels(self):
        return self._labels

    @property
    def adj(self) -> np.ndarray:
        return self._adj

    def _check_node(self, v):
        if not 0 <= v < self.num_nodes:
            raise ValueError(f"node {v} not in graph of {self.num_nodes} nodes")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return bool(self._adj[u, v])

    def out_degree(self, v: int) -> int:
        self._check_node(v)
        return int(self._adj[v].sum())

    def node_index(self, label: str) -> int:
        if self._label_index is None:
            raise ValueError("graph has no labels")
        try:
            return self._label_index[label]
        except KeyError:
            raise ValueError(f"no node labeled {label!r}") from None

    def label_of(self, v: int) -> str:
        self._check_node(v)
        return self._labels[v] if self._labels else str(v)

    def num_edges(self) -> int:
        return int(self._adj.sum())

    def __repr__(self):
        return f"ExplicitDigraph(nodes={self.num_nodes}, edges={self.num_edges()})"


@dataclass
class MultipartiteTournament:
    """A completely oriented multipartite digraph plus its part structure."""

    graph: ExplicitDigraph
    parts: List[List[int]] = field(default_factory=list)

    def validate(self):
        j = len(self.parts)
        if j < 2:
            raise ValueError("at least two parts required")
        seen = sorted(v for part in self.parts for v in part)
        if seen != list(range(self.graph.num_nodes)):
            raise ValueError("parts must partition the nodes")
        adj = self.graph.adj
        part_of = {}
        for i, part in enumerate(self.parts):
            for v in part:
                part_of[v] = i
        n = self.graph.num_nodes
        for u in range(n):
            for v in range(u + 1, n):
                fwd, rev = bool(adj[u, v]), bool(adj[v, u])
                if part_of[u] == part_of[v]:
                    if fwd or rev:
                        raise ValueError(f"edge inside a part: {u},{v}")
                elif fwd == rev:
                    raise ValueError(f"cross pair {u},{v} must have exactly one edge")
        return self


# ---------------------------------------------------------------------------
# Kingship
# ---------------------------------------------------------------------------

# float32 bytes one operand of a frontier product may hold: a block of
# frontier rows or a panel of adjacency columns, each n entries long.  At
# n = 2048 that is 256 rows and 256 columns.
_OPERAND_BYTES = 1 << 21

# with the packed adjacency at hand, a frontier whose rows hold at most
# n // _SPARSE nodes each is grown by gathering, not by a product
_SPARSE = 8


def _block_size(n: int) -> int:
    """Sources per block and adjacency columns per panel on n nodes: 64 or
    more below the node cap."""
    return min(n, _OPERAND_BYTES // (4 * n))


def _beyond(adj: np.ndarray, operand: np.ndarray, cols: slice) -> np.ndarray:
    """Nodes in the column panel cols one edge beyond each frontier row.

    operand is a single frontier row as the indices of its nodes, whose
    adjacency rows are gathered over the panel only, or more rows as a
    float32 matrix, multiplied with the panel.
    """
    if operand.ndim == 1:
        return adj[operand, cols].any(axis=0, keepdims=True)
    # the converted panel is dropped before the next one is made
    return operand @ adj[:, cols].astype(np.float32) > 0


def _pack(adj: np.ndarray) -> np.ndarray:
    """The rows of adj as bit strings, 64 columns a word, and a zero row
    after the last one."""
    n = adj.shape[0]
    bits = np.zeros((n + 1, -(-n // 64) * 8), dtype=np.uint8)
    bits[:n, :-(-n // 8)] = np.packbits(adj, axis=1)
    return bits.view(np.uint64)


def _gathered(bits, frontier: np.ndarray):
    """Nodes one edge beyond each row of the frontier matrix, as the OR of
    the packed adjacency rows (bits, from _pack) of the row's nodes; None
    if bits is None or a row holds more than n // _SPARSE nodes."""
    if bits is None:
        return None
    counts = np.count_nonzero(frontier, axis=1)
    most = counts.max(initial=0)
    if most * _SPARSE > frontier.shape[1]:
        return None
    rows, nodes = np.nonzero(frontier)
    # slot j of a row names its j-th node, or the zero row past its last
    slots = np.full((len(frontier), most), len(bits) - 1)
    slots[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]] = nodes
    words = np.zeros((len(frontier), bits.shape[1]), dtype=np.uint64)
    for column in slots.T:
        words |= bits[column]
    return np.unpackbits(words.view(np.uint8), axis=1,
                         count=frontier.shape[1]).view(bool)


def _grow(adj: np.ndarray, frontier: np.ndarray, bits=None) -> np.ndarray:
    """Nodes one edge beyond each row of the frontier matrix."""
    if len(frontier) == 1:
        return adj[frontier[0]].any(axis=0, keepdims=True)
    grown = _gathered(bits, frontier)
    if grown is not None:
        return grown
    width = _block_size(adj.shape[0])
    rows = frontier.astype(np.float32)
    grown = np.empty(frontier.shape, dtype=bool)
    for c in range(0, adj.shape[0], width):
        grown[:, c:c + width] = _beyond(adj, rows, slice(c, c + width))
    return grown


def _walk(adj: np.ndarray, sources, k: int, bits=None):
    """The frontier walk from sources, k steps deep; bits as for _gathered.

    Returns (reach, live, frontier).  Row i of reach marks the nodes
    sources[i] reaches by a path of length <= k.  A source leaves the walk
    as soon as it reaches every node or stops growing; live lists the rows
    still in it after step k, and frontier holds, row for row, the nodes
    they first reached at that step.
    """
    reach = np.zeros((len(sources), adj.shape[0]), dtype=bool)
    live = np.arange(len(sources))
    reach[live, sources] = True
    if k < 1:
        return reach, live, reach
    frontier = adj[sources]  # one edge from a single node is its row
    reach |= frontier
    # rows that leave are written back to done; until the first one leaves,
    # reach is done itself, so a block holds one reach matrix, not two
    done = reach
    for _ in range(k - 1):
        keep = frontier.any(axis=1) & ~reach.all(axis=1)
        if not keep.all():
            done[live[~keep]] = reach[~keep]
            live, reach, frontier = live[keep], reach[keep], frontier[keep]
            if not live.size:
                return done, live, frontier
        frontier = _grow(adj, frontier, bits)
        frontier &= ~reach
        reach |= frontier
    if reach is not done:
        done[live] = reach
    return done, live, frontier


def _reach_block(adj: np.ndarray, sources, k: int, bits=None) -> np.ndarray:
    """Row i marks the nodes sources[i] reaches by a path of length <= k."""
    return _walk(adj, sources, k, bits)[0]


def _covers(adj: np.ndarray, frontier: np.ndarray, cols: np.ndarray) -> bool:
    """True iff every column in cols has an edge from a node of frontier, a
    mask over the nodes.

    The columns are taken in chunks of 1, 2, 4, ... and the first chunk
    with a column no node reaches ends the search, so a miss among the first
    columns costs a gather of a few columns, not of all of them.
    """
    start, size = 0, 1
    while start < len(cols):
        # taking whole columns and then the rows is three times as fast as
        # gathering rows and columns at once (np.ix_) at 4,096 nodes
        if not np.take(adj, cols[start:start + size], axis=1)[frontier].any(axis=0).all():
            return False
        start += size
        size *= 2
    return True


def _king_block(adj: np.ndarray, sources, k: int, bits=None) -> np.ndarray:
    """Entry i is True iff sources[i] reaches every node within k steps.

    The walk stops one step short, and the last step asks only whether a
    row reaches every node: it takes the columns a panel at a time, and a
    row leaves as "not a king" at the first panel with a column it does not
    reach.  A single row whose unreached columns fit in one panel asks
    about those columns alone (_covers).  With one step, or with every
    column in one panel, the last step is the walk's own; a sparse frontier
    of many rows gathers whole rows.
    """
    n = adj.shape[0]
    width = _block_size(n)
    if k == 1 or width == n:
        return _reach_block(adj, sources, k, bits).all(axis=1)
    reach, live, frontier = _walk(adj, sources, k - 1, bits)
    kings = reach.all(axis=1)
    going = frontier.any(axis=1) & ~kings[live]
    live = live[going]
    if not live.size:
        return kings
    frontier = frontier[going]
    if len(live) == 1 and n - np.count_nonzero(reach[live[0]]) <= width:
        kings[live] = _covers(adj, frontier[0], np.flatnonzero(~reach[live[0]]))
        return kings
    grown = _gathered(bits, frontier) if len(live) > 1 else None
    if grown is not None:
        kings[live] = (reach[live] | grown).all(axis=1)
        return kings
    operand = (np.flatnonzero(frontier[0]) if len(live) == 1
               else frontier.astype(np.float32))
    for c in range(0, n, width):
        cols = slice(c, c + width)
        hit = (reach[live, cols] | _beyond(adj, operand, cols)).all(axis=1)
        if not hit.all():
            live = live[hit]
            if not live.size:
                return kings
            operand = operand[hit]  # two or more rows, so a matrix
    kings[live] = True
    return kings


def reach_within(g: ExplicitDigraph, v: int, k: int) -> np.ndarray:
    """Boolean mask of the nodes reachable from v by a path of length <= k."""
    g._check_node(v)
    return _reach_block(g.adj, np.array([v]), k)[0]


def k_king_mask(g: ExplicitDigraph, sources, k: int) -> np.ndarray:
    """Entry i is True iff sources[i] reaches every node within k steps.

    Sources go through the frontier kernel a block at a time, so no
    len(sources) x n reach matrix is ever held.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sources = np.asarray(sources, dtype=np.intp)
    n = g.num_nodes
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise ValueError(f"node {bad[0]} not in graph of {n} nodes")
    block = _block_size(n)
    # the packed rows serve the sparse steps of blocks of many rows, in
    # graphs that span more than one panel
    bits = _pack(g.adj) if k > 1 and len(sources) > 1 and block < n else None
    kings = np.zeros(len(sources), dtype=bool)
    for start in range(0, len(sources), block):
        kings[start:start + block] = _king_block(g.adj, sources[start:start + block], k,
                                                 bits)
    return kings


def is_k_king(g: ExplicitDigraph, v: int, k: int) -> bool:
    """True iff every node is reachable from v by a path of length <= k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    g._check_node(v)
    return bool(_king_block(g.adj, np.array([v]), k)[0])


def all_k_kings(g: ExplicitDigraph, k: int) -> Set[int]:
    """The k-kings of g, from one pass of the frontier kernel over all nodes."""
    return set(np.flatnonzero(k_king_mask(g, range(g.num_nodes), k)).tolist())


def find_king_landau(t: ExplicitDigraph) -> int:
    """A maximum out-degree node; in a tournament this is always a 2-king.

    Ties break toward the smallest node id.  The 2-king postcondition is
    asserted, so calling this on a non-tournament may raise.
    """
    v = int(np.argmax(t.adj.sum(axis=1)))
    if not is_k_king(t, v, 2):
        raise ValueError("max out-degree node is not a 2-king; not a tournament?")
    return v


def check_tournament(g: ExplicitDigraph) -> bool:
    """Exactly one direction between every pair of distinct nodes."""
    a = g.adj
    n = g.num_nodes
    if a.diagonal().any():
        return False
    want = ~np.eye(n, dtype=bool)
    return bool(np.array_equal(a ^ a.T, want))



# ---------------------------------------------------------------------------
# Multipartite recognition
# ---------------------------------------------------------------------------

def recognize_jpartite_patterns(g: ExplicitDigraph, j: int) -> bool:
    """Multipartite-tournament test by forbidden patterns.

    True iff no pair of nodes points both ways, the underlying graph has no
    induced three nodes spanning exactly one edge, and no clique on j+1
    nodes.  Subset checks are brute force; this is a desk-scale recognizer.
    """
    if j < 2:
        raise ValueError("j must be at least 2")
    a = g.adj
    if (a & a.T).any():
        return False
    u = a | a.T
    n = g.num_nodes
    for x, y, z in combinations(range(n), 3):
        if int(u[x, y]) + int(u[x, z]) + int(u[y, z]) == 1:
            return False
    if n >= j + 1:
        for sub in combinations(range(n), j + 1):
            if all(u[p, q] for p, q in combinations(sub, 2)):
                return False
    return True


def recognize_jpartite_direct(g: ExplicitDigraph, j: int) -> bool:
    """Independent multipartite-tournament test by explicit partitioning.

    Candidate parts are the connected components of the complement of the
    underlying graph.  Accepts iff there are at most j of them (missing
    parts count as empty), no part spans an edge, and every cross pair is
    oriented exactly one way.
    """
    if j < 2:
        raise ValueError("j must be at least 2")
    a = g.adj
    n = g.num_nodes
    if (a & a.T).any():
        return False
    u = a | a.T
    comp = ~u
    np.fill_diagonal(comp, False)
    part = [-1] * n
    count = 0
    for s in range(n):
        if part[s] != -1:
            continue
        stack = [s]
        part[s] = count
        while stack:
            x = stack.pop()
            for y in np.flatnonzero(comp[x]):
                if part[y] == -1:
                    part[y] = count
                    stack.append(int(y))
        count += 1
    if count > j:
        return False
    for x in range(n):
        for y in range(x + 1, n):
            if part[x] == part[y]:
                if u[x, y]:
                    return False
            elif int(a[x, y]) + int(a[y, x]) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Enumeration and I/O
# ---------------------------------------------------------------------------

def enumerate_tournaments(num_nodes: int) -> Iterator[ExplicitDigraph]:
    """All labeled tournaments on the given nodes, each exactly once.

    Deterministic order: the orientation masks count up, bit p of the mask
    orienting the p-th pair (in lexicographic pair order) low-to-high.
    """
    if num_nodes > 6:
        raise ValueError("enumeration is capped at 6 nodes")
    if num_nodes < 1:
        raise ValueError("a graph has at least one node")
    pairs = list(combinations(range(num_nodes), 2))
    for mask in range(1 << len(pairs)):
        adj = np.zeros((num_nodes, num_nodes), dtype=bool)
        for p, (u, v) in enumerate(pairs):
            if (mask >> p) & 1:
                adj[u, v] = True
            else:
                adj[v, u] = True
        yield ExplicitDigraph.from_adjacency(adj)


_DOT_SAFE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")


def _dot_id(name: str) -> str:
    if _DOT_SAFE.fullmatch(name):
        return name
    return '"' + name.replace('"', '\\"') + '"'


def export_dot(g: ExplicitDigraph) -> str:
    """DOT text with nodes and edges in ascending order."""
    lines = ["digraph {"]
    for v in range(g.num_nodes):
        lines.append(f"  {_dot_id(g.label_of(v))};")
    rows, cols = np.nonzero(g.adj)
    for u, v in zip(rows.tolist(), cols.tolist()):
        lines.append(f"  {_dot_id(g.label_of(u))} -> {_dot_id(g.label_of(v))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> ExplicitDigraph:
    """Parse the line-oriented graph format (nodes / edge / label lines).

    A label line with no text after the node id labels it with the empty
    string, as format_graph_text writes the one node of a length-0 weave.
    """
    num = None
    edges = []
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "nodes":
            if num is not None or len(parts) != 2:
                raise GraphParseError(f"line {lineno}: bad nodes line")
            num = int(parts[1])
            check_node_cap(num)  # before edges or labels are collected
        elif parts[0] == "edge":
            if num is None or len(parts) != 3:
                raise GraphParseError(f"line {lineno}: bad edge line")
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "label":
            if num is None or len(parts) < 2:
                raise GraphParseError(f"line {lineno}: bad label line")
            v = int(parts[1])
            if not 0 <= v < num:
                raise GraphParseError(f"line {lineno}: label for node {v} "
                                      f"not in graph of {num} nodes")
            if v in labels:
                raise GraphParseError(f"line {lineno}: second label for node {v}")
            labels[v] = " ".join(parts[2:])
        else:
            raise GraphParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if num is None:
        raise GraphParseError("missing nodes line")
    label_list = None
    if labels:
        label_list = [labels.get(i, str(i)) for i in range(num)]
    try:
        return ExplicitDigraph.from_edges(num, edges, label_list)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


def format_graph_text(g: ExplicitDigraph) -> str:
    lines = [f"nodes {g.num_nodes}"]
    if g.labels:
        for i, lab in enumerate(g.labels):
            lines.append(f"label {i} {lab}")
    rows, cols = np.nonzero(g.adj)
    for u, v in zip(rows.tolist(), cols.tolist()):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"
