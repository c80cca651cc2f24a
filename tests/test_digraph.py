import random
import time
import tracemalloc

import numpy as np
import pytest

from kings import digraph
from kings.digraph import (
    ExplicitDigraph,
    GraphParseError,
    MultipartiteTournament,
    all_k_kings,
    check_tournament,
    enumerate_tournaments,
    export_dot,
    find_king_landau,
    format_graph_text,
    is_k_king,
    k_king_mask,
    parse_graph_text,
    reach_within,
    recognize_jpartite_direct,
    recognize_jpartite_patterns,
)
from kings.generators import (
    enumerate_all_digraphs,
    random_digraph,
    random_multipartite_tournament,
)
from kings.limits import DEFAULT_NODE_CAP, CapExceeded
from kings.specifier import induced_graph, pi2_specifier


def cycle3():
    return ExplicitDigraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], labels=list("abc"))


def transitive3():
    return ExplicitDigraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], labels=list("abc"))


# ---------------------------------------------------------------------------
# kingship
# ---------------------------------------------------------------------------

def test_is_k_king_examples():
    assert is_k_king(cycle3(), 0, 2)
    assert not is_k_king(transitive3(), 1, 2)  # the top node is unreachable
    assert is_k_king(ExplicitDigraph(1), 0, 1)


def test_is_k_king_rejects_bad_arguments():
    with pytest.raises(ValueError):
        is_k_king(cycle3(), 0, 0)
    with pytest.raises(ValueError):
        is_k_king(cycle3(), 7, 2)


def test_reach_within_masks():
    assert reach_within(cycle3(), 0, 0).tolist() == [True, False, False]
    assert reach_within(cycle3(), 0, 1).tolist() == [True, True, False]
    assert reach_within(transitive3(), 1, 5).tolist() == [False, True, True]
    with pytest.raises(ValueError):
        reach_within(cycle3(), 7, 2)


def bfs_reach(g, v, k):
    """Oracle: the one-source walk the frontier kernel replaced."""
    adj = g.adj
    reach = np.zeros(g.num_nodes, dtype=bool)
    reach[v] = True
    frontier = reach.copy()
    for _ in range(k):
        if reach.all():
            break
        frontier = adj[frontier].any(axis=0) & ~reach
        if not frontier.any():
            break
        reach |= frontier
    return reach


def assert_kernel_matches_bfs(g, ks, one_source=True):
    """k_king_mask and all_k_kings, and with one_source also reach_within
    and is_k_king, against the oracle."""
    n = g.num_nodes
    for k in ks:
        want = [bfs_reach(g, v, k) for v in range(n)]
        for v in range(n if one_source else 0):
            assert reach_within(g, v, k).tolist() == want[v].tolist(), (v, k)
        if k < 1:
            continue
        kings = {v for v in range(n) if want[v].all()}
        for v in range(n if one_source else 0):
            assert is_k_king(g, v, k) == (v in kings), (v, k)
        assert all_k_kings(g, k) == kings, k
        order = list(range(n))[::-1] * 2  # repeats, not in node order
        assert k_king_mask(g, order, k).tolist() == [v in kings for v in order], k


def test_kernel_matches_bfs_on_every_small_tournament():
    for n in range(1, 6):
        for t in enumerate_tournaments(n):
            assert_kernel_matches_bfs(t, range(0, 5))


def test_kernel_matches_bfs_on_every_small_digraph():
    for n in range(1, 4):
        for g in enumerate_all_digraphs(n):
            assert_kernel_matches_bfs(g, range(0, 5))
    for g in enumerate_all_digraphs(4):  # 4096 graphs, through the many-source path
        assert_kernel_matches_bfs(g, (1, 2, 3), one_source=False)


def _random_graphs(rng, n):
    up = np.triu(rng.random((n, n)) < 0.5, 1)
    sparse = rng.random((n, n)) < 2.0 / n
    np.fill_diagonal(sparse, False)
    return [ExplicitDigraph.from_adjacency(up | np.triu(~up, 1).T),
            ExplicitDigraph.from_adjacency(sparse)]


# a small block, so that source blocks and column panels split at the sizes
# below; BLOCK + 1 leaves a one-row block, which walks in packed words
BLOCK = 16


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_kernel_matches_bfs_around_the_block_size(monkeypatch, n):
    monkeypatch.setattr(digraph, "_block_size", lambda n: min(n, BLOCK))
    rng = np.random.default_rng([n, 7])
    for g in _random_graphs(rng, n):
        assert_kernel_matches_bfs(g, range(0, 7))


def full_row_kings(g, k):
    """The k-kings of g as rows of the whole walk, without the kings-only
    last step."""
    sources = np.arange(g.num_nodes)
    return digraph._reach_block(g.adj, sources, k, digraph._Packed(g.adj)).all(axis=1)


def late_column_graph(n, s, t, rng):
    """Random edges, except that s reaches every node within two steps but
    t, which it first reaches at step three, through a = t + 1 (mod n)."""
    a = (t + 1) % n
    x = next(v for v in range(n) if v not in (s, t, a))
    adj = rng.random((n, n)) < 0.3
    adj[:, t] = False  # only a points at t
    adj[a, t] = True
    adj[s] = True
    adj[s, [a, t]] = False
    adj[x, a] = True  # s -> x -> a
    np.fill_diagonal(adj, False)
    return ExplicitDigraph.from_adjacency(adj)


@pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("where", ["first panel", "last panel"])
def test_kings_only_last_step_matches_both_oracles(monkeypatch, n, where):
    """A source whose only column missing at its last step is in the first
    panel, or in the last, short one; n = BLOCK + 1 also leaves a one-row
    source block."""
    monkeypatch.setattr(digraph, "_block_size", lambda n: min(n, BLOCK))
    s, t = n // 2, 0 if where == "first panel" else n - 1
    g = late_column_graph(n, s, t, np.random.default_rng([n, t]))
    assert np.flatnonzero(~bfs_reach(g, s, 2)).tolist() == [t]
    assert bfs_reach(g, s, 3).all()
    for k in (1, 2, 3, 4, n + 5):  # the last is past every eccentricity
        want = [bool(bfs_reach(g, v, k).all()) for v in range(n)]
        full_rows = full_row_kings(g, k)
        assert full_rows.tolist() == want, k
        assert [is_k_king(g, v, k) for v in range(n)] == want, k
        assert k_king_mask(g, range(n), k).tolist() == want, k
        assert k_king_mask(g, [s], k).tolist() == [want[s]], k
        assert all_k_kings(g, k) == {v for v in range(n) if want[v]}, k
    assert [is_k_king(g, s, k) for k in (1, 2, 3)] == [False, False, True]


def test_kings_only_last_step_matches_full_rows_on_random_graphs(monkeypatch):
    monkeypatch.setattr(digraph, "_block_size", lambda n: min(n, BLOCK))
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(BLOCK + 1, 4 * BLOCK))
        adj = rng.random((n, n)) < rng.choice([1.5 / n, 4.0 / n, 0.2, 0.5])
        np.fill_diagonal(adj, False)
        g = ExplicitDigraph.from_adjacency(adj)
        for k in range(1, 6):
            want = full_row_kings(g, k)
            assert k_king_mask(g, range(n), k).tolist() == want.tolist(), (n, k)
            assert [is_k_king(g, v, k) for v in range(n)] == want.tolist(), (n, k)


def last_witness_graph(n, s, unreached, rank, king, rng):
    """Random edges, except that s beats all but `unreached` nodes, and the
    missing node of the given rank is beaten by the highest node s beats,
    if king, and by no node otherwise; each other missing node is beaten by
    about half of the nodes s beats."""
    others = np.array([v for v in range(n) if v != s])
    missing = np.sort(rng.choice(others, unreached, replace=False))
    adj = rng.random((n, n)) < 0.5
    adj[s] = False
    adj[s, np.setdiff1d(others, missing)] = True
    t = missing[rank]
    adj[:, t] = False
    adj[np.flatnonzero(adj[s])[-1], t] = king
    np.fill_diagonal(adj, False)
    return ExplicitDigraph.from_adjacency(adj)


@pytest.mark.parametrize("unreached", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_single_row_last_step_over_unreached_columns(monkeypatch, unreached):
    """A source that leaves a few or many nodes unreached after one step, one
    of them first, in the middle or last, and reached at step two through
    the frontier's last node only, or not at all.  Its last step reads the
    words that hold unreached nodes in order, 1, 2, 4, ... at a time, and
    stops at the first batch it does not cover."""
    monkeypatch.setattr(digraph, "_block_size", lambda n: min(n, BLOCK))
    batches, real_ix = [], np.ix_

    def batch(rows, words):
        batches.append(words.tolist())
        return real_ix(rows, words)

    n, s = 4 * 64 + 3, 2 * BLOCK
    for seed, rank in enumerate((0, unreached // 2, unreached - 1)):
        for king in (True, False):
            g = last_witness_graph(n, s, unreached, rank, king,
                                   np.random.default_rng([unreached, seed]))
            missing = np.flatnonzero(~bfs_reach(g, s, 1))
            assert len(missing) == unreached
            batches.clear()
            with monkeypatch.context() as patch:
                patch.setattr(digraph.np, "ix_", batch)
                assert is_k_king(g, s, 2) == king
            words = np.unique(missing // 64).tolist()
            read = sum(batches, [])
            assert read == (words if king else words[:len(read)])
            assert [len(b) for b in batches] == [
                min(1 << i, len(words) + 1 - (1 << i)) for i in range(len(batches))]
            assert king or missing[rank] // 64 in batches[-1]
            for k in (1, 2, 3, 4):
                want = [bool(bfs_reach(g, v, k).all()) for v in range(n)]
                full_rows = full_row_kings(g, k)
                assert full_rows.tolist() == want, (rank, king, k)
                assert [is_k_king(g, v, k) for v in range(n)] == want, (rank, king, k)


@pytest.mark.parametrize("k", [2, 3])
def test_is_k_king_matches_the_mask_on_every_weave_node(k):
    """pi2 at m = 12: 4,096 nodes in 32 panels, whose core nodes leave a
    few columns unreached and whose leftovers miss many."""
    g = induced_graph(pi2_specifier(), 12)
    want = k_king_mask(g, range(g.num_nodes), k).tolist()
    assert [is_k_king(g, v, k) for v in range(g.num_nodes)] == want
    assert sum(want) == (49 if k == 2 else 97)



def assert_one_source_matches_both_oracles(g, sources, ks=(1, 2, 3, 4)):
    """is_k_king on each source against k_king_mask over the sources and
    the per-node BFS."""
    for k in ks:
        mask = k_king_mask(g, sources, k).tolist()
        want = [bool(bfs_reach(g, v, k).all()) for v in sources]
        assert mask == want, k
        assert [is_k_king(g, v, k) for v in sources] == want, k


@pytest.mark.parametrize("n", [725, 1000, 1089, 2049])
def test_wide_single_source_matches_both_oracles(n):
    """Past one panel a single source walks in packed words: seeded random
    tournaments, sparse digraphs whose walks die out and denser ones, at
    node counts that are a multiple of 64 plus one, or not near one."""
    assert digraph._block_size(n) < n
    rng = np.random.default_rng([n, 22])
    denser = rng.random((n, n)) < 24 / n
    np.fill_diagonal(denser, False)
    for g in [*_random_graphs(rng, n), ExplicitDigraph.from_adjacency(denser)]:
        assert_one_source_matches_both_oracles(g, rng.choice(n, 16, replace=False))


@pytest.mark.parametrize("n", [1000, 1089, 2049])
@pytest.mark.parametrize("where", ["last column", "column 64"])
def test_wide_single_source_missing_one_column(n, where):
    """A source that reaches every node within two steps but one, in the
    last, partial word or first in word 1, which it reaches at step three
    or, with that edge gone, never."""
    s, t = n // 2, n - 1 if where == "last column" else 64
    g = late_column_graph(n, s, t, np.random.default_rng([n, t]))
    assert np.flatnonzero(~bfs_reach(g, s, 2)).tolist() == [t]
    assert [is_k_king(g, s, k) for k in (1, 2, 3, 4)] == [False, False, True, True]
    adj = g.adj.copy()
    adj[(t + 1) % n, t] = False  # the one edge into t
    never = ExplicitDigraph.from_adjacency(adj)
    assert [is_k_king(never, s, k) for k in (1, 2, 3, n)] == [False] * 4
    for h in (g, never):
        assert_one_source_matches_both_oracles(h, [s, t, (t + 1) % n, 0])


def test_wide_single_source_whose_frontier_empties():
    """Sources whose frontier empties after one step (every node they beat
    is a sink) or at once (a sink), and one that beats every other node."""
    n = 1000
    rng = np.random.default_rng(23)
    adj = rng.random((n, n)) < 0.3
    s, sink, top = 10, 20, 30
    beaten = [1, 2, 800, 999]
    adj[s] = False
    adj[s, beaten] = True
    adj[beaten] = False
    adj[sink] = False
    adj[top] = True
    np.fill_diagonal(adj, False)
    g = ExplicitDigraph.from_adjacency(adj)
    assert [is_k_king(g, v, k) for v in (s, sink) for k in (1, 2, 3, n)] == [False] * 8
    assert all(is_k_king(g, top, k) for k in (1, 2, 3, n))
    assert_one_source_matches_both_oracles(g, [s, sink, top, *beaten, 0])


def random_tournament(n, seed):
    up = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    return ExplicitDigraph.from_adjacency(up | np.triu(~up, 1).T)


def test_packed_rows_are_built_once_and_read_only(monkeypatch):
    built = []
    real = digraph._words

    def counted(mask, rows=0):
        built.append(mask.shape)
        return real(mask, rows)

    monkeypatch.setattr(digraph, "_words", counted)
    g = random_tournament(800, 24)
    for v in range(5):
        for k in (2, 3):
            is_k_king(g, v, k)
    assert built.count((800, 800)) == 1
    bits = g._packed_rows()
    assert bits is g._packed_rows() and not bits.flags.writeable
    assert np.array_equal(bits, real(g.adj))
    with pytest.raises(ValueError):
        bits[0, 0] = 0


def test_packed_rows_only_for_wide_single_sources():
    """Not on one panel, not for k = 1, and not for many sources, which pack
    the rows with their tables."""
    small = random_tournament(724, 25)
    assert digraph._block_size(724) == 724
    for k in (1, 2, 3):
        is_k_king(small, 0, k)
    assert small._bits is None
    g = random_tournament(725, 26)
    is_k_king(g, 0, 1)
    for k in (1, 2, 3):
        all_k_kings(g, k)
        k_king_mask(g, [3, 1, 4, 1, 5], k)
    assert g._bits is None
    is_k_king(g, 0, 2)
    assert g._bits is not None


def test_one_source_stays_within_the_operand_budget():
    """is_k_king at k = 3 on a 4096-node tournament holds the packed rows
    (2 MiB, twice that while they are built) and one chunk of gathered
    rows at a time (at most 2 MiB); a bool row a frontier node, at about
    2,048 frontier nodes, would take 8 MiB."""
    g = random_tournament(4096, 27)
    tracemalloc.start()
    try:
        kings = [is_k_king(g, v, 3) for v in range(4)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(kings)
    assert g._packed_rows().nbytes == 1 << 21
    assert peak <= 3 * digraph._OPERAND_BYTES, peak / digraph._OPERAND_BYTES


def unpruned_kings(g, k):
    """Oracle: the blocked kernel on every node, with no in-ball prune."""
    n, packed = g.num_nodes, digraph._Packed(g.adj)
    block = digraph._block_size(n)
    return np.concatenate([digraph._king_block(g, np.arange(i, min(i + block, n)), k, packed)
                           for i in range(0, n, block)])


def assert_prune_matches_both_oracles(monkeypatch, g, ks=(2, 3, 4)):
    """k_king_mask on every node in shuffled order with repeats, and on
    [3, 1, 4, 1, 5], against the unpruned kernel and the per-node BFS (the
    node of least in-degree, a sample and some kings).  The sources handed
    to the kernel are exactly those in the k-step in-ball of the node of
    least in-degree, by BFS on the reversed graph.  Returns the ball sizes."""
    n = g.num_nodes
    assert digraph._block_size(n) < n
    rng = np.random.default_rng(n)
    u = int(np.argmin(g.adj.sum(axis=0)))
    reverse = ExplicitDigraph.from_adjacency(g.adj.T)
    shuffled = np.concatenate([rng.permutation(n), rng.choice(n, n // 4)])
    handed, real = [], digraph._king_block

    def counted(g, sources, k, packed=None):
        handed.extend(sources.tolist())
        return real(g, sources, k, packed)

    sizes = []
    for k in ks:
        kings = unpruned_kings(g, k)
        ball = bfs_reach(reverse, u, k)
        handed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(digraph, "_king_block", counted)
            assert k_king_mask(g, shuffled, k).tolist() == kings[shuffled].tolist(), k
        assert sorted(handed) == sorted(shuffled[ball[shuffled]].tolist()), k
        assert k_king_mask(g, [3, 1, 4, 1, 5], k).tolist() == kings[[3, 1, 4, 1, 5]].tolist()
        for v in {u, *rng.choice(n, 24).tolist(), *np.flatnonzero(kings)[:8].tolist()}:
            assert bfs_reach(g, v, k).all() == kings[v], (v, k)
        sizes.append(int(ball.sum()))
    return sizes


@pytest.mark.parametrize("n", [725, 1000, 2049])
def test_in_ball_prune_matches_both_oracles(monkeypatch, n):
    """Past one panel only the sources that reach the node of least
    in-degree go through the kernel: none is dropped from a seeded
    tournament; a sparse digraph with no node of in-degree 0 drops some at
    k = 2; one with such a node, and a dense graph whose one unbeaten node
    is a king, hand that node alone to the kernel."""
    rng = np.random.default_rng([n, 23])
    assert assert_prune_matches_both_oracles(monkeypatch, random_tournament(n, n)) == [n] * 3
    sparse = rng.random((n, n)) < 24 / n
    sparse[np.arange(n), (np.arange(n) + 1) % n] = True  # in-degree >= 1
    np.fill_diagonal(sparse, False)
    assert assert_prune_matches_both_oracles(monkeypatch, ExplicitDigraph.from_adjacency(sparse))[0] < n
    sparser = rng.random((n, n)) < 4 / n
    np.fill_diagonal(sparser, False)
    assert not sparser.sum(axis=0).all()
    assert assert_prune_matches_both_oracles(
        monkeypatch, ExplicitDigraph.from_adjacency(sparser)) == [1] * 3
    dense = rng.random((n, n)) < 0.3
    dense[:, n // 2] = False
    np.fill_diagonal(dense, False)
    g = ExplicitDigraph.from_adjacency(dense)
    assert assert_prune_matches_both_oracles(monkeypatch, g) == [1] * 3
    assert all_k_kings(g, 2) == {n // 2}


@pytest.mark.parametrize("k", [2, 3])
def test_in_ball_prune_hands_only_core_nodes_to_the_kernel(monkeypatch, k):
    """pi2 at m = 12: no leftover reaches the core, so at most the 97
    non-leftover nodes go through the kernel; the mask also matches both
    oracles at k = 2, 3 and 4."""
    g = induced_graph(pi2_specifier(), 12)
    handed, real = [], digraph._king_block

    def counted(g, sources, k, packed=None):
        handed.append(len(sources))
        return real(g, sources, k, packed)

    with monkeypatch.context() as patch:
        patch.setattr(digraph, "_king_block", counted)
        kings = k_king_mask(g, range(g.num_nodes), k)
    assert kings.sum() == (49 if k == 2 else 97)
    assert sum(kings) <= sum(handed) <= 97, handed
    if k == 3:
        assert_prune_matches_both_oracles(monkeypatch, g)


def float32_step(adj, frontier):
    """Oracle: the nodes one edge beyond each frontier row, by the float32
    product of the frontier with the adjacency that the tables replaced."""
    return frontier.astype(np.float32) @ adj.astype(np.float32) > 0


@pytest.mark.parametrize("n", [5, 64, 65, 130])
def test_packed_gather_matches_the_product(n):
    """Frontier rows of 0 up to n // _SPARSE nodes, with n a multiple of 64
    and not, against the float32 product."""
    rng = np.random.default_rng([n, 12])
    adj = rng.random((n, n)) < 0.3
    np.fill_diagonal(adj, False)
    bits = digraph._Packed(adj).bits
    most = n // digraph._SPARSE
    for _ in range(20):
        frontier = np.zeros((9, n), dtype=bool)
        for row, count in enumerate(rng.integers(0, most + 1, len(frontier))):
            frontier[row, rng.choice(n, count, replace=False)] = True
        got = digraph._gathered(bits, frontier)
        assert got.tolist() == float32_step(adj, frontier).tolist()
    frontier[0, :most + 1] = True  # one row too many nodes: the tables'
    assert digraph._gathered(bits, frontier) is None


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 63, 64, 65, 127, 129, 725])
def test_packed_tables_match_the_product(monkeypatch, n, split):
    """The table step and the tables' kings-only last step, bit for bit
    against the float32 product, on frontier rows of no node, n // _SPARSE
    nodes, half the nodes and every node; with split, the tables cover one
    word at a time.  Then the walk through them against the per-node BFS."""
    if split:
        monkeypatch.setattr(digraph, "_block_size", lambda n: min(n, 8))
    rng = np.random.default_rng([n, 14])
    adj = rng.random((n, n)) < 0.3
    np.fill_diagonal(adj, False)
    unbeaten = rng.choice(n, max(1, n // 16), replace=False)
    adj[:, unbeaten] = False  # columns that no frontier covers
    packed = digraph._Packed(adj)
    words = -(-n // 64)
    assert len(packed.ranges()) == (words if split else 1)
    for count in (0, n // digraph._SPARSE, n // 2, n):
        frontier = np.zeros((2 * words + 3, n), dtype=bool)
        for row in frontier:
            row[rng.choice(n, count, replace=False)] = True
        want = float32_step(adj, frontier)
        everything = np.ones_like(frontier)
        assert packed.grown(frontier, everything).tolist() == want.tolist(), count
        # the even rows miss one unbeaten column, in any word
        reach = ~want
        for row, col in enumerate(rng.choice(unbeaten, len(reach))):
            reach[row, col] = row % 2
        kings = (reach | want).all(axis=1)
        assert digraph._reaches_all(packed, reach, frontier).tolist() == kings.tolist()
    g = ExplicitDigraph.from_adjacency(adj)
    sources = np.arange(n)
    for k in (1, 2, 3):
        want = [bfs_reach(g, v, k).tolist() for v in range(n)]
        assert digraph._reach_block(g.adj, sources, k, packed).tolist() == want, k
        assert k_king_mask(g, sources, k).tolist() == [all(row) for row in want], k


@pytest.mark.parametrize("layout", ["one range", "split"])
@pytest.mark.parametrize("n", [725, 1000, 2049])
def test_early_stop_matches_the_product(monkeypatch, n, layout):
    """grown(frontier, unreached) and ored on unreached words, bit for bit
    against the float32 product ANDed with unreached, on rows covered by
    their first group, rows never covered, rows with nothing unreached and
    rows with everything unreached; the tables span every word, or eight
    words a range.  Coverage is tested, and rows leave early."""
    span = n if layout == "one range" else 64
    monkeypatch.setattr(digraph, "_block_size", lambda n: min(n, span))
    tested, real = [], digraph._covered

    def counted(unreached, grown):
        covered = real(unreached, grown)
        tested.append(int(covered.sum()))
        return covered

    monkeypatch.setattr(digraph, "_covered", counted)
    rng = np.random.default_rng([n, 24])
    adj = rng.random((n, n)) < 0.3
    np.fill_diagonal(adj, False)
    unbeaten = rng.choice(n, 8, replace=False)
    adj[:, unbeaten] = False
    packed = digraph._Packed(adj)
    assert len(packed.ranges()) == (1 if layout == "one range" else -(-n // 512))
    rows = 16
    frontier = rng.random((4 * rows, n)) < 0.5
    frontier[:rows, :4] = True  # group 0 covers what these rows miss
    unreached = np.zeros_like(frontier)
    unreached[:rows] = adj[:4].any(axis=0) & (rng.random((rows, n)) < 0.5)
    unreached[rows:2 * rows] = rng.random((rows, n)) < 0.5
    unreached[rows:2 * rows, rng.choice(unbeaten, rows)] = True  # never covered
    unreached[3 * rows:] = True  # rows 2 * rows to 3 * rows: nothing unreached
    want = float32_step(adj, frontier) & unreached
    assert packed.grown(frontier, unreached).tolist() == want.tolist()
    slots, missing = digraph._slots(frontier), digraph._words(unreached)
    words = digraph._words(want)
    for lo, hi in packed.ranges():
        got = packed.ored(slots, lo, hi, missing[:, lo:hi])
        assert got.tolist() == words[:, lo:hi].tolist(), (lo, hi)
    everything = packed.grown(frontier, np.ones_like(frontier))
    assert everything.tolist() == float32_step(adj, frontier).tolist()
    assert tested and max(tested) >= 2 * rows, tested


def layered_tournament(n, seed):
    """A random tournament in which node 0 beats only node 1 and node 1
    only node 2, so that walks from them take several steps."""
    up = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    up[0, 2:] = up[1, 3:] = False
    up[0, 1] = up[1, 2] = True
    return ExplicitDigraph.from_adjacency(up | np.triu(~up, 1).T)


@pytest.mark.parametrize("n", [725, 2049])
def test_walk_frontier_matches_bfs_layers(n):
    """_walk's reach, live rows and frontier at every depth against the BFS
    layers: a row is live after k steps iff at each earlier step it grew
    and had not reached every node, and its frontier is its k-th layer."""
    g = layered_tournament(n, n)
    rng = np.random.default_rng([n, 24])
    sources = np.concatenate([[0, 1, 2], rng.choice(n, 250 if n > 1000 else n, replace=False)])
    reach = [[bfs_reach(g, v, k) for k in range(6)] for v in sources]
    packed = digraph._Packed(g.adj)
    for k in range(6):
        got, live, frontier = digraph._walk(g.adj, sources, k, packed)
        assert got.tolist() == [r[k].tolist() for r in reach], k
        want = [i for i, r in enumerate(reach)
                if all((r[j] != r[j - 1]).any() and not r[j].all() for j in range(1, k))]
        assert live.tolist() == want, k
        layers = [(r[k] & ~r[k - 1]).tolist() if k else r[0].tolist() for r in reach]
        assert frontier.tolist() == [layers[i] for i in want], k
        if k == 4:  # node 0 alone reaches its last nodes at step four
            assert set(sources[live].tolist()) == {0}
    assert not live.size


def test_early_stop_reads_under_a_quarter_of_the_groups(monkeypatch):
    """k_king_mask over a 1,000-node random tournament at k = 2: nearly
    every node is a 2-king, and the tables' reads stop once its unreached
    columns are covered, so fewer than a quarter of the table entries that
    the rows' slots name are read."""
    n = 1000
    g = random_tournament(n, 24)
    read, named = [], []

    class Counted(np.ndarray):
        def take(self, indices, axis=None, **kwargs):
            read.append(np.size(indices))
            return np.asarray(self).take(indices, axis=axis, **kwargs)

    real_init, real_ored = digraph._Packed.__init__, digraph._Packed.ored

    def init(self, adj):
        real_init(self, adj)
        self._whole = self._whole.view(Counted)

    def ored(self, slots, lo, hi, unreached=None):
        named.append(slots.size)
        return real_ored(self, slots, lo, hi, unreached)

    monkeypatch.setattr(digraph._Packed, "__init__", init)
    monkeypatch.setattr(digraph._Packed, "ored", ored)
    kings = k_king_mask(g, range(n), 2)
    assert kings.tolist() == [bool(bfs_reach(g, v, 2).all()) for v in range(n)]
    assert kings.sum() > n - 10
    assert named and 4 * sum(read) < sum(named), (sum(read), sum(named))


def test_small_graph_makes_no_coverage_test(monkeypatch):
    """On six nodes every table step is one chunk: no coverage test is
    made, and no unreached words are packed, only the adjacency."""
    packs = []
    real = digraph._words

    def counted(mask, rows=0):
        packs.append(mask.shape)
        return real(mask, rows)

    def refused(unreached, grown):
        raise AssertionError("coverage tested")

    monkeypatch.setattr(digraph, "_covered", refused)
    monkeypatch.setattr(digraph, "_words", counted)
    rng = np.random.default_rng(24)
    cycle = ExplicitDigraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    graphs = [random_tournament(6, 24), cycle]
    graphs += [ExplicitDigraph.from_adjacency((rng.random((6, 6)) < p) & ~np.eye(6, dtype=bool))
               for p in (0.2, 0.5, 0.8)]
    for g in graphs:
        for k in range(2, 6):
            packs.clear()
            want = [bool(bfs_reach(g, v, k).all()) for v in range(6)]
            assert k_king_mask(g, range(6), k).tolist() == want, k
            assert packs == [(6, 6)], packs


def test_tables_stay_within_the_operand_budget():
    """k_king_mask on a 4096-node tournament holds tables over a quarter of
    the columns at a time, and at the node cap over one sixteenth, so that
    no more than _OPERAND_BYTES of tables are held at once; whole-width
    tables would take 8 MiB and 32 MiB."""
    budget = digraph._OPERAND_BYTES
    n = 4096
    rng = np.random.default_rng(15)
    up = np.triu(rng.random((n, n)) < 0.5, 1)
    g = ExplicitDigraph.from_adjacency(up | np.triu(~up, 1).T)
    del up
    tracemalloc.start()
    try:
        kings = k_king_mask(g, range(n), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kings[np.argmax(g.adj.sum(axis=1))]  # Landau's king
    # the packed adjacency (n * n / 8 bytes), one table range, one block's
    # rows and one chunk of gathered entries, with room to spare
    assert peak <= 5 * budget, peak / budget
    capped = digraph._Packed(np.broadcast_to(False, (DEFAULT_NODE_CAP,) * 2))
    assert capped.span * 64 == 512 and len(capped.ranges()) == 16
    assert capped._tables(*capped.ranges()[0]).nbytes <= budget
    # the in-ball walk at the cap: node 0 is beaten by node 64 j for each
    # word j > 0, so the second step reads 127 words, a quarter at a time
    bits = capped.bits.copy()
    bits[64:DEFAULT_NODE_CAP:64, 0] = 1
    tracemalloc.start()
    try:
        ball = digraph._in_ball(bits, DEFAULT_NODE_CAP, 0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.flatnonzero(ball).tolist() == list(range(0, DEFAULT_NODE_CAP, 64))
    assert peak <= 1.25 * budget, peak / budget


def test_sparse_steps_gather_and_match_both_oracles(monkeypatch):
    """k_king_mask on sparse graphs that span several panels, whose walk
    and last steps gather, against the per-node BFS and the tables."""
    monkeypatch.setattr(digraph, "_block_size", lambda n: min(n, BLOCK))
    gathered = []
    real = digraph._gathered

    def counted(bits, frontier):
        grown = real(bits, frontier)
        gathered.append(grown is not None)
        return grown

    monkeypatch.setattr(digraph, "_gathered", counted)
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(4 * BLOCK, 8 * BLOCK))
        adj = rng.random((n, n)) < rng.choice([1.0 / n, 2.0 / n, 3.0 / n])
        adj[np.arange(n), (np.arange(n) + 1) % n] = True  # a cycle: kings exist
        np.fill_diagonal(adj, False)
        g = ExplicitDigraph.from_adjacency(adj)
        for k in (1, 2, 5, 9, n // 2, n):
            want = [bool(bfs_reach(g, v, k).all()) for v in range(n)]
            tables = full_row_kings(g, k)
            assert tables.tolist() == want, (n, k)
            assert k_king_mask(g, range(n), k).tolist() == want, (n, k)
    assert sum(gathered) > 100


def test_kernel_matches_bfs_past_a_real_block():
    n = 725  # 723 sources a block: a full block, then a two-row block
    assert digraph._block_size(n) == 723
    rng = np.random.default_rng(11)
    for g in _random_graphs(rng, n):
        for k in (1, 2, 3):
            want = [v for v in range(n) if bfs_reach(g, v, k).all()]
            assert sorted(all_k_kings(g, k)) == want, k


def test_block_size_follows_the_node_count():
    assert digraph._block_size(2048) == 256
    assert digraph._block_size(DEFAULT_NODE_CAP) == 64
    assert digraph._block_size(300) == 300
    assert digraph._block_size(1) == 1


def test_huge_k_returns_promptly():
    n = 40
    path = ExplicitDigraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    start = time.perf_counter()
    assert is_k_king(path, 0, 10 ** 20)
    assert not is_k_king(path, 1, 10 ** 20)
    assert all_k_kings(path, 10 ** 20) == {0}
    assert reach_within(path, 3, 10 ** 20).sum() == n - 3
    # a single source past one panel, which walks in packed words
    wide = ExplicitDigraph.from_edges(725, [(i, i + 1) for i in range(724)])
    assert digraph._block_size(725) < 725
    assert is_k_king(wide, 0, 10 ** 20)
    assert not is_k_king(wide, 1, 10 ** 20)
    # many sources past one panel: node 0's in-ball is itself, and on a
    # cycle the in-ball walk stops once it holds every node
    assert all_k_kings(wide, 10 ** 20) == {0}
    cycle = ExplicitDigraph.from_edges(725, [(i, (i + 1) % 725) for i in range(725)])
    assert all_k_kings(cycle, 10 ** 20) == set(range(725))
    assert time.perf_counter() - start < 5


def test_k_king_mask_rejects_bad_arguments():
    with pytest.raises(ValueError, match="node 3 not in graph of 3 nodes"):
        k_king_mask(cycle3(), [0, 3], 2)
    with pytest.raises(ValueError, match="node -1 not in graph of 3 nodes"):
        k_king_mask(cycle3(), [-1], 2)
    with pytest.raises(ValueError):
        k_king_mask(cycle3(), [0], 0)
    assert k_king_mask(cycle3(), [], 2).tolist() == []


def test_all_k_kings_examples():
    assert all_k_kings(transitive3(), 2) == {0}
    assert all_k_kings(cycle3(), 2) == {0, 1, 2}
    assert all_k_kings(transitive3(), 1) == {0}


def test_kingship_monotone_in_k():
    rng = random.Random(5)
    for _ in range(120):
        g = random_digraph(rng, rng.randint(1, 10))
        for v in range(g.num_nodes):
            for k in range(1, 4):
                if is_k_king(g, v, k):
                    assert is_k_king(g, v, k + 1)


def test_find_king_landau_examples():
    assert find_king_landau(cycle3()) == 0  # out-degree tie breaks low
    assert find_king_landau(transitive3()) == 0


def test_landau_on_all_small_tournaments():
    for n in range(1, 5):
        for t in enumerate_tournaments(n):
            king = find_king_landau(t)
            assert is_k_king(t, king, 2)


def test_one_kings_are_exactly_full_outdegree():
    for n in range(1, 6):
        for t in enumerate_tournaments(n):
            for v in range(n):
                assert is_k_king(t, v, 1) == (t.out_degree(v) == n - 1)


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def test_check_tournament():
    assert check_tournament(cycle3())
    both = ExplicitDigraph.from_edges(2, [(0, 1), (1, 0)])
    assert not check_tournament(both)
    nothing = ExplicitDigraph(2)
    assert not check_tournament(nothing)


def test_recognizer_examples():
    edge = ExplicitDigraph.from_edges(2, [(0, 1)])
    assert recognize_jpartite_patterns(edge, 2)
    assert recognize_jpartite_direct(edge, 2)
    assert not recognize_jpartite_patterns(cycle3(), 2)  # a triangle underneath
    assert recognize_jpartite_patterns(cycle3(), 3)
    assert recognize_jpartite_direct(cycle3(), 3)
    two_edges = ExplicitDigraph.from_edges(4, [(0, 1), (2, 3)])
    assert not recognize_jpartite_direct(two_edges, 2)
    assert not recognize_jpartite_patterns(two_edges, 2)


def test_recognizers_agree_exhaustively_small():
    for n in range(1, 4):
        for g in enumerate_all_digraphs(n):
            for j in (2, 3, 4):
                assert (recognize_jpartite_patterns(g, j)
                        == recognize_jpartite_direct(g, j))


def test_recognizers_agree_on_random_digraphs():
    rng = random.Random(11)
    for _ in range(400):
        g = random_digraph(rng, rng.randint(2, 7), p=rng.choice((0.3, 0.6)))
        for j in (2, 3):
            assert (recognize_jpartite_patterns(g, j)
                    == recognize_jpartite_direct(g, j))


def test_recognizers_accept_generated_multipartite():
    rng = random.Random(3)
    for _ in range(50):
        mpt = random_multipartite_tournament(rng, rng.randint(2, 4), 3)
        mpt.validate()
        j = len(mpt.parts)
        assert recognize_jpartite_direct(mpt.graph, j)
        assert recognize_jpartite_patterns(mpt.graph, j)


def _pair_loop_validate_error(mpt):
    """The pair walk that ``MultipartiteTournament.validate`` replaced: the
    message of the first bad pair u < v in (u, v) order, or None."""
    seen = sorted(v for part in mpt.parts for v in part)
    if seen != list(range(mpt.graph.num_nodes)):
        return "parts must partition the nodes"
    part_of = {v: i for i, part in enumerate(mpt.parts) for v in part}
    adj = mpt.graph.adj
    for u in range(mpt.graph.num_nodes):
        for v in range(u + 1, mpt.graph.num_nodes):
            fwd, rev = bool(adj[u, v]), bool(adj[v, u])
            if part_of[u] == part_of[v]:
                if fwd or rev:
                    return f"edge inside a part: {u},{v}"
            elif fwd == rev:
                return f"cross pair {u},{v} must have exactly one edge"
    return None


def _validate_error(mpt):
    try:
        mpt.validate()
    except ValueError as exc:
        return str(exc)
    return None


def test_multipartite_validate_names_each_fault():
    # parts {0, 1} and {2, 3}; 0 -> 2, 0 -> 3, 1 -> 2, 1 -> 3 is valid
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    parts = [[0, 1], [2, 3]]
    assert _validate_error(MultipartiteTournament(ExplicitDigraph.from_edges(4, edges), parts)) is None
    for bad_parts in ([[0, 1], [2]], [[0, 1], [1, 2, 3]], [[0, 1], [2, 3, 4]]):
        mpt = MultipartiteTournament(ExplicitDigraph.from_edges(4, edges), bad_parts)
        assert _validate_error(mpt) == "parts must partition the nodes"
    mpt = MultipartiteTournament(ExplicitDigraph.from_edges(4, edges + [(3, 2)]), parts)
    assert _validate_error(mpt) == "edge inside a part: 2,3"
    mpt = MultipartiteTournament(ExplicitDigraph.from_edges(4, edges[1:]), parts)
    assert _validate_error(mpt) == "cross pair 0,2 must have exactly one edge"
    mpt = MultipartiteTournament(ExplicitDigraph.from_edges(4, edges + [(3, 1)]), parts)
    assert _validate_error(mpt) == "cross pair 1,3 must have exactly one edge"
    # the first bad pair in (u, v) order is named, whatever its kind
    mpt = MultipartiteTournament(ExplicitDigraph.from_edges(4, edges[1:] + [(3, 2)]), parts)
    assert _validate_error(mpt) == "cross pair 0,2 must have exactly one edge"


def test_multipartite_validate_matches_the_pair_loop():
    rng = random.Random(21)
    for _ in range(300):
        mpt = random_multipartite_tournament(rng, rng.randint(2, 4), rng.randint(1, 3))
        adj = mpt.graph.adj.copy()
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(len(adj)), 2)
            adj[u, v] = not adj[u, v]
        mpt = MultipartiteTournament(ExplicitDigraph.from_adjacency(adj), mpt.parts)
        assert _validate_error(mpt) == _pair_loop_validate_error(mpt)


def test_multipartite_source_dichotomy_sample():
    rng = random.Random(9)
    for i in range(60):
        mpt = random_multipartite_tournament(rng, rng.randint(2, 4), 4,
                                             force_two_sources=i % 2 == 1)
        g = mpt.graph
        sources = sum(1 for v in range(g.num_nodes) if not g.adj[:, v].any())
        if sources >= 2:
            assert not all_k_kings(g, 10)
        else:
            assert all_k_kings(g, 4)


# ---------------------------------------------------------------------------
# enumeration and I/O
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    assert sum(1 for _ in enumerate_tournaments(2)) == 2
    assert sum(1 for _ in enumerate_tournaments(3)) == 8
    assert sum(1 for _ in enumerate_tournaments(5)) == 1024
    with pytest.raises(ValueError):
        next(enumerate_tournaments(7))


def test_enumeration_is_duplicate_free():
    seen = set()
    for t in enumerate_tournaments(4):
        seen.add(t.adj.tobytes())
        assert check_tournament(t)
    assert len(seen) == 64


def test_export_dot():
    g = ExplicitDigraph.from_edges(2, [(0, 1)], labels=["a", "b"])
    text = export_dot(g)
    assert "a -> b;" in text
    single = export_dot(ExplicitDigraph(1))
    assert single.startswith("digraph {") and "0;" in single
    assert export_dot(cycle3()).count("->") == 3


def test_graph_text_roundtrip():
    g = ExplicitDigraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], labels=list("abc"))
    text = format_graph_text(g)
    back = parse_graph_text(text)
    assert (back.adj == g.adj).all()
    assert back.labels == g.labels


def test_labels_are_read_only():
    g = ExplicitDigraph.from_edges(2, [(0, 1)], labels=["a", "b"])
    with pytest.raises(TypeError):
        g.labels[0] = "z"
    assert g.label_of(0) == "a" and g.node_index("a") == 0


def test_graph_text_errors():
    with pytest.raises(GraphParseError):
        parse_graph_text("edge 0 1\n")  # missing node count
    with pytest.raises(GraphParseError, match="self-loops are not allowed"):
        parse_graph_text("nodes 2\nedge 0 0\n")
    with pytest.raises(GraphParseError, match="node 2 not in graph of 2 nodes"):
        parse_graph_text("nodes 2\nedge 0 2\n")
    with pytest.raises(GraphParseError, match="node -1 not in graph of 2 nodes"):
        parse_graph_text("nodes 2\nedge -1 0\n")
    with pytest.raises(GraphParseError):
        parse_graph_text("nodes 2\nfrobnicate\n")


def test_node_cap_is_checked_before_allocating():
    huge = 3_000_000_000
    with pytest.raises(CapExceeded):
        ExplicitDigraph(huge)
    with pytest.raises(CapExceeded):
        ExplicitDigraph.from_edges(huge, [(0, 1)])
    with pytest.raises(CapExceeded):
        parse_graph_text(f"nodes {huge}\nlabel 0 a\nedge 0 1\n")
    with pytest.raises(CapExceeded):
        ExplicitDigraph(DEFAULT_NODE_CAP + 1)
    with pytest.raises(CapExceeded):  # a view of one entry: no copy is made
        ExplicitDigraph.from_adjacency(np.broadcast_to(False, (DEFAULT_NODE_CAP + 1,) * 2))
    assert ExplicitDigraph(DEFAULT_NODE_CAP).num_nodes == DEFAULT_NODE_CAP


def test_from_adjacency_copies_its_input():
    source = np.zeros((3, 3), dtype=bool)
    g = ExplicitDigraph.from_adjacency(source)
    source[0, 1] = True  # the caller's array stays writable and apart
    assert not g.has_edge(0, 1) and not np.shares_memory(g.adj, source)


def test_adopt_keeps_a_fresh_matrix_and_checks_it():
    """The private constructor for freshly built matrices keeps the array
    itself, read-only, after the checks from_adjacency makes."""
    fresh = np.zeros((3, 3), dtype=bool)
    fresh[0, 1] = True
    g = ExplicitDigraph._adopt(fresh, list("abc"))
    assert g.adj is fresh and not fresh.flags.writeable
    assert g.has_edge(0, 1) and g.node_index("c") == 2
    with pytest.raises(ValueError, match="square"):
        ExplicitDigraph._adopt(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="self-loops"):
        ExplicitDigraph._adopt(np.eye(2, dtype=bool))
    with pytest.raises(CapExceeded):
        ExplicitDigraph._adopt(np.broadcast_to(False, (DEFAULT_NODE_CAP + 1,) * 2))


def test_adjacency_is_read_only():
    rng = random.Random(3)
    source = [[False, True], [False, False]]
    graphs = [ExplicitDigraph(2), ExplicitDigraph.from_edges(2, [(0, 1)]),
              ExplicitDigraph.from_adjacency(source), next(enumerate_tournaments(2)),
              random_digraph(rng, 2), random_multipartite_tournament(rng, 2, 1).graph]
    for g in graphs:
        before = g.adj.copy()
        with pytest.raises(ValueError):
            g.adj[1, 0] = not before[1, 0]
        assert (g.adj == before).all()
