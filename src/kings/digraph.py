"""Explicit directed graphs: k-king decision, king finding, recognizers.

Graphs are simple (no self-loops) and stored as a dense boolean adjacency
matrix.  Graphs are built once from a whole matrix and are immutable: the
stored adjacency is read-only.  No graph has more than
``limits.DEFAULT_NODE_CAP`` nodes; the cap is checked before any matrix is
allocated.

Depth-bounded reachability is one kernel over a frontier matrix.  Sources
are taken in blocks of rows.  A step grows every live row of a block by the
nodes one edge beyond its frontier, and reads them from the adjacency
packed 64 columns to a word by the method of Four Russians (Arlazarov,
Dinic, Kronrod and Faradzev): for each group of four adjacency rows a table
holds the OR of all 16 subsets, and a frontier row ORs one entry per group,
the one its four bits there name.  A block whose frontier rows hold at most
n / 8 nodes each ORs the packed rows of those nodes instead, and a block
with a single live row gathers its frontier's adjacency rows.  A row leaves
its block as soon as it reaches every node or stops growing, so any depth
ends within n steps.  Block sizes, panels of as many columns as a block
has rows, and table widths follow from the node count under one byte
budget: the tables span every column up to 2048 nodes, and above that a
range of columns at a time, built as it is read.

A step needs only the nodes a row has not reached, so the tables' entries
are read a chunk of groups at a time, and after 1, 2, 4, ... chunks a row
whose unreached columns are all in its partial OR stops reading: the
bottom-up step of direction-optimizing BFS (Beamer, Asanovic and
Patterson, SC 2012).  This is exact.  If the partial OR P covers the row's
unreached set U, then U <= P <= F for the full OR F, so the row's new
frontier U & F is U.  Rows never covered read every group, and when the
groups fit in one chunk no row is tested.  Nearly every node of a random
tournament is a 2-king, and its rows leave after a few chunks.

Kingship asks less of the last step: only whether a row reaches every
node.  So when the columns span more than one panel, the walk stops a step
short.  The rows of a block then read the tables over word 0 (nodes 0 to
63) first and the other words after, and a row with a column still
unreached leaves as not a king; a weave's leftover misses node 0 and leaves
after one word.  A single source walks in words on the graph's packed
rows, which the graph keeps: a step ORs the packed rows of its frontier's
nodes, and the last step reads only the words that hold unreached nodes,
1, 2, 4, ... at a time.  A core node of a weave leaves a few words
unreached after one step and a leftover misses node 0, so either costs a
few words, not the n columns.

Every k-king reaches the node u of least in-degree within k steps, so on
graphs wider than one panel many sources are first pruned to u's k-step
in-ball: a walk backwards on the packed rows, in which a node joins the
next layer iff its row meets the frontier's words.  Only the sources in the
ball go through the blocks.  In pi2's induced graph at m = 12, u is a core
node and no leftover reaches the core, so only the 97 core nodes can enter
the kernel; in a random tournament the ball holds every node after two
steps, and the walk stops there.
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


def _check_adjacency(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("adjacency must be square")
    _check_node_count(matrix.shape[0])
    if matrix.diagonal().any():
        raise ValueError("self-loops are not allowed")


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
        self._bits = None
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
        _check_adjacency(matrix)
        g = cls.__new__(cls)
        g._own(np.array(matrix, dtype=bool), labels)
        return g

    @classmethod
    def _adopt(cls, adj: np.ndarray, labels=None):
        """The graph whose adjacency is adj, a bool matrix built for it that
        no one else writes: checked as from_adjacency checks its input, then
        kept as it is, not copied, and made read-only."""
        _check_adjacency(adj)
        g = cls.__new__(cls)
        g._own(adj, labels)
        return g

    def _packed_rows(self) -> np.ndarray:
        """The adjacency rows as from _words, read-only, built once."""
        if self._bits is None:
            self._bits = _words(self._adj)
            self._bits.flags.writeable = False
        return self._bits

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
        part_of = np.empty(self.graph.num_nodes, dtype=np.intp)
        for i, part in enumerate(self.parts):
            part_of[part] = i
        adj = self.graph.adj
        same = part_of[:, None] == part_of
        # the first bad pair u < v in (u, v) order: an edge inside a part,
        # or a cross pair with both edges or none
        bad = np.argwhere(np.triu(np.where(same, adj | adj.T, adj == adj.T), 1))
        if len(bad):
            u, v = bad[0]
            if same[u, v]:
                raise ValueError(f"edge inside a part: {u},{v}")
            raise ValueError(f"cross pair {u},{v} must have exactly one edge")
        return self


# ---------------------------------------------------------------------------
# Kingship
# ---------------------------------------------------------------------------

# Bytes one operand of a frontier step may hold: a block of sources at four
# bytes a node per row (its reach, frontier and grown rows and their packed
# forms), the OR tables over one range of columns, or one chunk of gathered
# table entries.  At n = 2048 a block is 256 rows and the tables span every
# column.
_OPERAND_BYTES = 1 << 21

# a frontier whose rows hold at most n // _SPARSE nodes each is grown by
# ORing the packed rows of its nodes, not through the tables
_SPARSE = 8


def _block_size(n: int) -> int:
    """Sources per block and columns per panel on n nodes: 64 or more below
    the node cap.  The OR tables span eight panels, so that they take
    about 4 n x _block_size(n) <= _OPERAND_BYTES bytes."""
    return min(n, _OPERAND_BYTES // (4 * n))


def _words(mask: np.ndarray, rows: int = 0) -> np.ndarray:
    """The rows of a boolean matrix as bit strings, 64 columns a word, bit c
    of word c // 64 being column c; zero rows follow, up to rows rows."""
    n = mask.shape[1]
    packed = np.zeros((max(rows, len(mask)), -(-n // 64) * 8), dtype=np.uint8)
    packed[:len(mask), :-(-n // 8)] = np.packbits(mask, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The first n columns of bit strings from _words, as a boolean matrix."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n,
                         bitorder="little").view(bool)


def _slots(frontier: np.ndarray) -> np.ndarray:
    """The table entries each frontier row ORs, one column per row: entry
    16 g + s for each group g of four nodes, s being the row's nodes in the
    group as a 4-bit set."""
    octets = np.packbits(frontier, axis=1, bitorder="little")
    nibbles = np.empty((len(octets), 2 * octets.shape[1]), dtype=np.uint8)
    nibbles[:, 0::2] = octets & 15
    nibbles[:, 1::2] = octets >> 4
    return np.arange(0, 16 * nibbles.shape[1], 16, dtype=np.int32)[:, None] + nibbles.T


class _Packed:
    """A graph's adjacency packed for the steps of many frontier rows.

    bits holds the adjacency rows as from _words, with zero rows after the
    last one up to a multiple of 8 and one more, the slot _gathered pads
    with.  The OR tables (method of Four Russians) hold, for each group of
    four adjacency rows, the OR of each of their 16 subsets, over a range of
    `span` words.  A range that covers every word is built once; narrower
    ones, on graphs of more than 2048 nodes, are built each time they are
    read, so that no more than _OPERAND_BYTES of tables are held at once.
    """

    def __init__(self, adj: np.ndarray):
        n = adj.shape[0]
        self._rows = -(-n // 8) * 8
        self.bits = _words(adj, self._rows + 1)
        self.span = max(1, _block_size(n) // 8)
        words = self.bits.shape[1]
        self.width = min(self.span, words)  # the words of the widest range
        self._whole = self._tables(0, words) if self.span >= words else None

    def _tables(self, lo: int, hi: int) -> np.ndarray:
        """Entry 16 g + s: words lo to hi of the OR of adjacency rows 4 g + j
        over the bits j of s."""
        quads = self.bits[:self._rows, lo:hi].reshape(-1, 4, hi - lo)
        tables = np.empty((len(quads), 16, hi - lo), dtype=np.uint64)
        tables[:, 0] = 0
        for j in range(4):
            np.bitwise_or(tables[:, :1 << j], quads[:, j, None],
                          out=tables[:, 1 << j:2 << j])
        return tables.reshape(-1, hi - lo)

    def ored(self, slots: np.ndarray, lo: int, hi: int, unreached=None) -> np.ndarray:
        """Words lo to hi of the nodes one edge beyond each frontier row,
        from the row's table slots (_slots): the OR of those entries, and
        of them only the bits of the row's unreached words (all if None).

        The entries are gathered as (groups, rows, words) and reduced over
        the groups a chunk at a time.  Given unreached, a row whose
        unreached words its partial OR covers after 1, 2, 4, ... chunks
        reads no further: its full OR covers them too, so they are its
        result, exactly.  Rows never covered read every group.
        """
        tables = self._whole[:, lo:hi] if self._whole is not None else self._tables(lo, hi)
        grown = np.zeros((slots.shape[1], hi - lo), dtype=np.uint64)
        start, groups, chunk = 0, len(slots), _chunk(len(grown), hi - lo)
        if unreached is None or chunk >= groups:
            due = groups  # no coverage test
        else:  # coverage is tested after 1, 2, 4, ... chunks of the widest range
            due = _chunk(len(grown), self.width)
        if unreached is not None:
            # a row that leaves early keeps its unreached words as its result
            out, rows = unreached.copy(), np.arange(len(grown))
        while start < groups:
            stop = min(start + chunk, due)
            grown |= np.bitwise_or.reduce(np.take(tables, slots[:stop - start], axis=0), axis=0)
            slots, start = slots[stop - start:], stop  # the groups still to read
            if start == due < groups:
                due *= 2
                left = ~_covered(unreached, grown)
                if not left.all():
                    rows, grown, unreached = rows[left], grown[left], unreached[left]
                    if not rows.size:
                        return out
                    slots = slots[:, left]
                    chunk = _chunk(len(grown), hi - lo)
        if unreached is None:
            return grown
        out[rows] = grown & unreached
        return out

    def grown(self, frontier: np.ndarray, unreached: np.ndarray) -> np.ndarray:
        """Nodes one edge beyond each row of the frontier matrix, through
        the tables, that the row of unreached holds.  unreached is packed
        for ored only where a range takes more than one chunk of groups, so
        a small graph makes no coverage test."""
        slots = _slots(frontier)
        words = np.empty((len(frontier), self.bits.shape[1]), dtype=np.uint64)
        missing = _words(unreached) if _chunk(len(frontier), self.width) < len(slots) else None
        for lo, hi in self.ranges():
            words[:, lo:hi] = self.ored(slots, lo, hi,
                                        None if missing is None else missing[:, lo:hi])
        grown = _unpack(words, frontier.shape[1])
        if missing is None:
            grown &= unreached
        return grown

    def ranges(self):
        """(lo, hi) word ranges of at most span words, over every word."""
        words = self.bits.shape[1]
        return [(lo, min(lo + self.span, words)) for lo in range(0, words, self.span)]


def _chunk(rows: int, words: int) -> int:
    """Table groups that _Packed.ored gathers at once for rows frontier
    rows over a range of words: chunks of a quarter of _OPERAND_BYTES ran
    about 10% faster than whole ones at n = 2048 (2 MiB L2 a core)."""
    return max(1, _OPERAND_BYTES // (32 * rows * words))


def _covered(unreached: np.ndarray, grown: np.ndarray) -> np.ndarray:
    """Entry i is True iff row i of grown holds every bit of row i of
    unreached (two word matrices of one shape)."""
    return ~(unreached & ~grown).any(axis=1)


def _gathered(bits: np.ndarray, frontier: np.ndarray):
    """Nodes one edge beyond each row of the frontier matrix, as the OR of
    the packed adjacency rows (bits, from _Packed) of the row's nodes; None
    if a row holds more than n // _SPARSE nodes."""
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
    return _unpack(words, frontier.shape[1])


def _grow(adj: np.ndarray, frontier: np.ndarray, reach: np.ndarray,
          packed: Optional[_Packed]) -> np.ndarray:
    """Nodes one edge beyond each row of the frontier matrix that the row
    of reach does not hold; packed, from adj, is needed for two rows or
    more."""
    if len(frontier) == 1:
        grown = adj[frontier[0]].any(axis=0, keepdims=True)
    else:
        grown = _gathered(packed.bits, frontier)
        if grown is None:
            return packed.grown(frontier, ~reach)
    grown &= ~reach
    return grown


def _walk(adj: np.ndarray, sources, k: int, packed: Optional[_Packed] = None):
    """The frontier walk from sources, k steps deep; packed as for _grow.

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
        frontier = _grow(adj, frontier, reach, packed)
        reach |= frontier
    if reach is not done:
        done[live] = reach
    return done, live, frontier


def _reach_block(adj: np.ndarray, sources, k: int, packed=None) -> np.ndarray:
    """Row i marks the nodes sources[i] reaches by a path of length <= k."""
    return _walk(adj, sources, k, packed)[0]


def _reaches_all(packed: _Packed, reach: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Entry i is True iff row i of reach, with the nodes one edge beyond
    row i of frontier, holds every node.

    A sparse frontier gathers whole rows.  Otherwise the tables are read
    word 0 first, then the other words a table range at a time, and a row
    leaves at the first range with a column it misses.  A weave's leftover
    misses node 0, so it leaves after one word.  A row stops reading a
    range once its missing columns there are covered (_Packed.ored).
    """
    grown = _gathered(packed.bits, frontier)
    if grown is not None:
        return (reach | grown).all(axis=1)
    missing = _words(~reach)
    slots = _slots(frontier)
    rows = np.arange(len(reach))
    for lo, hi in [(0, 1), *packed.ranges()]:
        hit = _covered(missing[:, lo:hi], packed.ored(slots, lo, hi, missing[:, lo:hi]))
        if not hit.all():
            rows, missing, slots = rows[hit], missing[hit], slots[:, hit]
            if not rows.size:
                break
        missing[:, lo:hi] = 0  # covered: word 0 need not be covered again
    kings = np.zeros(len(reach), dtype=bool)
    kings[rows] = True
    return kings


def _row_king(bits: np.ndarray, n: int, v: int, k: int) -> bool:
    """True iff v reaches all n nodes within k >= 2 steps, walking in words
    on the packed adjacency rows bits (_words); a step gathers at most
    _OPERAND_BYTES of rows at a time."""
    reach = np.zeros(bits.shape[1], dtype=np.uint64)
    reach[-1] = (1 << 64) - (2 << (n - 1) % 64)  # bits past n - 1 are reached
    reach[v // 64] |= np.uint64(1 << v % 64)
    frontier, chunk = bits[v] & ~reach, _OPERAND_BYTES // bits[0].nbytes
    for _ in range(k - 2):
        reach |= frontier
        if not (frontier.any() and (~reach).any()):
            break
        nodes = np.flatnonzero(_unpack(frontier[None], n))
        frontier = np.zeros_like(reach)
        for start in range(0, len(nodes), chunk):
            frontier |= np.bitwise_or.reduce(bits[nodes[start:start + chunk]])
        frontier &= ~reach
    missing = ~(reach | frontier)
    nodes = np.flatnonzero(_unpack(frontier[None], n))
    words, start, size = np.flatnonzero(missing), 0, 1
    while start < len(words):
        batch = words[start:start + size]
        if (missing[batch] & ~np.bitwise_or.reduce(bits[np.ix_(nodes, batch)])).any():
            return False
        start += size
        size = min(2 * size, max(1, _OPERAND_BYTES // (8 * len(nodes))))
    return True


def _in_ball(bits: np.ndarray, n: int, u: int, k: int) -> np.ndarray:
    """Boolean mask of the nodes that reach u by a path of length <= k,
    walking backwards on the packed adjacency rows bits (_words): a node
    joins the next layer iff its row meets the frontier's words.  Only the
    frontier's nonzero words are read, at most _OPERAND_BYTES at a time."""
    ball = np.zeros(n, dtype=bool)
    ball[u] = True
    frontier = np.zeros(bits.shape[1], dtype=np.uint64)
    frontier[u // 64] = np.uint64(1 << u % 64)
    chunk = max(1, _OPERAND_BYTES // (8 * n))
    for _ in range(k):
        words = np.flatnonzero(frontier)
        layer = np.zeros(n, dtype=bool)
        for start in range(0, len(words), chunk):
            batch = words[start:start + chunk]
            met = bits[:n, batch]
            met &= frontier[batch]
            layer |= met.any(axis=1)
            del met  # before the next chunk is gathered
        layer &= ~ball
        ball |= layer
        if not layer.any() or ball.all():
            break
        frontier = _words(layer[None])[0]
    return ball


def _king_block(g: ExplicitDigraph, sources, k: int, packed=None) -> np.ndarray:
    """Entry i is True iff sources[i] reaches every node of g within k
    steps; packed as for _grow.

    With one step, or with every column in one panel, this is the walk's
    own reach.  Otherwise a single source walks in words (_row_king), on
    packed's rows or the graph's, and a block walks one step short and asks
    the tables only whether each row reaches every node (_reaches_all).
    """
    n = g.num_nodes
    if k == 1 or _block_size(n) == n:
        return _reach_block(g.adj, sources, k, packed).all(axis=1)
    if len(sources) == 1:
        bits = g._packed_rows() if packed is None else packed.bits
        return np.array([_row_king(bits, n, sources[0], k)])
    reach, live, frontier = _walk(g.adj, sources, k - 1, packed)
    kings = reach.all(axis=1)
    going = frontier.any(axis=1) & ~kings[live]
    live, frontier = live[going], frontier[going]
    if live.size:
        kings[live] = _reaches_all(packed, reach[live], frontier)
    return kings


def reach_within(g: ExplicitDigraph, v: int, k: int) -> np.ndarray:
    """Boolean mask of the nodes reachable from v by a path of length <= k."""
    g._check_node(v)
    return _reach_block(g.adj, np.array([v]), k)[0]


def k_king_mask(g: ExplicitDigraph, sources, k: int) -> np.ndarray:
    """Entry i is True iff sources[i] reaches every node within k steps.

    Sources go through the frontier kernel a block at a time, so no
    len(sources) x n reach matrix is ever held.  On a graph wider than one
    panel, with k >= 2 and two sources or more, only the sources that reach
    the node u of least in-degree (the smallest such id) within k steps go
    through the kernel: every k-king reaches u, and the others are not
    kings.  They are the nodes of u's k-step in-ball, walked backwards on
    the packed rows, which stops when a layer adds no node or the ball
    holds every node.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sources = np.asarray(sources, dtype=np.intp)
    n = g.num_nodes
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise ValueError(f"node {bad[0]} not in graph of {n} nodes")
    block = _block_size(n)
    # packed once for every step of every block of many rows
    packed = _Packed(g.adj) if k > 1 and len(sources) > 1 else None
    rows = np.arange(len(sources))
    if packed is not None and block < n:
        # in-degrees below the node cap fit in 16 bits
        u = int(np.argmin(np.add.reduce(g.adj.view(np.uint8), axis=0, dtype=np.uint16)))
        rows = rows[_in_ball(packed.bits, n, u, k)[sources]]
    kings = np.zeros(len(sources), dtype=bool)
    for start in range(0, len(rows), block):
        part = rows[start:start + block]
        kings[part] = _king_block(g, sources[part], k, packed)
    return kings


def is_k_king(g: ExplicitDigraph, v: int, k: int) -> bool:
    """True iff every node is reachable from v by a path of length <= k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    g._check_node(v)
    return bool(_king_block(g, np.array([v]), k)[0])


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
    return bool(np.array_equal(a ^ a.T, ~np.eye(g.num_nodes, dtype=bool)))



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
    oriented exactly one way.  The last needs no check of its own: a cross
    pair is adjacent, or the two would share a component, and 2-cycles are
    refused first.
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
    part = np.array(part)
    return not (u & (part[:, None] == part)).any()


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
