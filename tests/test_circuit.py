import random
import tracemalloc

import numpy as np
import pytest

from kings import circuit
from kings.bitstrings import all_bits, int_to_bits
from kings.circuit import (
    BooleanCircuit,
    _Builder,
    CircuitParseError,
    JTournamentCircuit,
    SuccinctGraph,
    eval_circuit,
    eval_circuit_batch,
    format_circuit,
    gw_edge,
    gw_k_king,
    gw_materialize,
    jt_edge,
    jt_k_king,
    jt_materialize,
    jt_node_index,
    jt_query,
    mpt_has_1king_fast,
    parse_circuit,
    table_to_circuit,
)
from kings.digraph import all_k_kings, check_tournament, recognize_jpartite_direct
from kings.generators import random_circuit, random_jtournament_circuit
from kings.limits import CapExceeded

AND2 = BooleanCircuit(2, (("INPUT", 0), ("INPUT", 1), ("AND", 0, 1)), 2)


def const_circuit(arity, value):
    return BooleanCircuit(arity, (("CONST", value),), 0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert eval_circuit(AND2, "11")
    assert not eval_circuit(AND2, "10")
    neg = BooleanCircuit(1, (("INPUT", 0), ("NOT", 0)), 1)
    assert not eval_circuit(neg, "1")
    c = BooleanCircuit(2, (("INPUT", 0), ("INPUT", 1), ("NOT", 1),
                           ("AND", 0, 2), ("CONST", 0), ("OR", 3, 4)), 5)
    assert eval_circuit(c, "10")
    with pytest.raises(ValueError):
        eval_circuit(AND2, "1")


def test_eval_batch_matches_single():
    rng = random.Random(2)
    for _ in range(40):
        arity = rng.randint(1, 5)
        c = random_circuit(rng, arity, rng.randint(1, 20))
        rows = [bits for bits in all_bits(arity)]
        matrix = np.array([[b == "1" for b in r] for r in rows])
        batch = eval_circuit_batch(c, matrix)
        for i, bits in enumerate(rows):
            assert bool(batch[i]) == eval_circuit(c, bits)


def test_circuit_validation():
    with pytest.raises(ValueError):
        BooleanCircuit(1, (("NOT", 0),), 0)  # self reference
    with pytest.raises(ValueError):
        BooleanCircuit(1, (("INPUT", 1),), 0)  # arity overflow
    with pytest.raises(ValueError):
        BooleanCircuit(1, (("INPUT", 0),), 3)  # output out of range


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

EXAMPLE = """\
inputs 2
g0 INPUT 0
g1 INPUT 1
g2 AND g0 g1
output g2
"""


def test_parse_example():
    c = parse_circuit(EXAMPLE)
    assert c.num_inputs == 2 and len(c.gates) == 3
    assert eval_circuit(c, "11") and not eval_circuit(c, "01")


def test_parse_then_format_is_identity():
    assert format_circuit(parse_circuit(EXAMPLE)) == EXAMPLE


def test_format_then_parse_is_structural_identity():
    rng = random.Random(4)
    for _ in range(25):
        c = random_circuit(rng, rng.randint(0, 4), rng.randint(1, 15))
        assert parse_circuit(format_circuit(c)) == c


def test_parse_errors():
    with pytest.raises(CircuitParseError, match="forward reference g5"):
        parse_circuit("inputs 1\ng0 NOT g5\ng5 INPUT 0\noutput g0\n")
    with pytest.raises(CircuitParseError, match="undefined gate g9"):
        parse_circuit("inputs 1\ng0 NOT g9\noutput g0\n")
    with pytest.raises(CircuitParseError, match="missing output"):
        parse_circuit("inputs 1\ng0 INPUT 0\n")
    with pytest.raises(CircuitParseError, match="must increase"):
        parse_circuit("inputs 1\ng1 INPUT 0\ng0 CONST 1\noutput g0\n")
    with pytest.raises(CircuitParseError):
        parse_circuit("")


def test_comments_and_blank_lines():
    text = "# tiny\ninputs 1\n\ng0 INPUT 0  # the only gate\noutput g0\n"
    assert eval_circuit(parse_circuit(text), "1")


# ---------------------------------------------------------------------------
# succinct graphs
# ---------------------------------------------------------------------------

def test_table_to_circuit_examples():
    sg = table_to_circuit(1, lambda x, y: (x, y) == ("1", "0"))
    assert gw_edge(sg, "1", "0") and not gw_edge(sg, "0", "1")
    empty = table_to_circuit(1, lambda x, y: False)
    assert not gw_edge(empty, "0", "1")


def test_table_roundtrip_through_materialization():
    rng = random.Random(6)
    for n in (1, 2, 3):
        for _ in range(6):
            table = {(x, y): rng.random() < 0.5
                     for x in all_bits(n) for y in all_bits(n) if x != y}
            sg = table_to_circuit(n, lambda x, y: table[(x, y)])
            g = gw_materialize(sg)
            assert g.num_nodes == 1 << n
            for (x, y), want in table.items():
                assert g.has_edge(int(x, 2), int(y, 2)) == want
                assert gw_edge(sg, x, y) == want


def test_gw_edge_rejects_self_pairs_and_bad_lengths():
    sg = SuccinctGraph(1, const_circuit(2, 1))
    with pytest.raises(ValueError):
        gw_edge(sg, "1", "1")
    with pytest.raises(ValueError):
        gw_edge(sg, "10", "01")


def test_gw_materialize_const_one():
    g = gw_materialize(SuccinctGraph(1, const_circuit(2, 1)))
    assert g.has_edge(0, 1) and g.has_edge(1, 0)  # both ways: not a tournament
    assert g.num_nodes == 2


def _less_than_graph(n):
    return table_to_circuit(n, lambda x, y: x < y)


def test_gw_check_tournament():
    for sg, want in ((SuccinctGraph(1, const_circuit(2, 1)), False),
                     (SuccinctGraph(1, const_circuit(2, 0)), False),
                     *((_less_than_graph(n), True) for n in (1, 2, 3))):
        assert check_tournament(gw_materialize(sg)) == want


def test_gw_k_king():
    sg = _less_than_graph(3)
    assert gw_k_king(sg, "000", 1)
    assert not gw_k_king(sg, "111", 2)
    none = SuccinctGraph(1, const_circuit(2, 0))
    assert not gw_k_king(none, "0", 3)


def test_gw_cap():
    with pytest.raises(CapExceeded):
        gw_materialize(SuccinctGraph(14, const_circuit(28, 1)))


def _never_queried(*args):
    raise AssertionError("the edge table was queried past the cap")


def test_table_builders_refuse_before_querying():
    with pytest.raises(CapExceeded):
        table_to_circuit(10, _never_queried)
    # the largest size within the cap: 512 * 511 queries
    assert table_to_circuit(9, lambda x, y: False).n == 9


# ---------------------------------------------------------------------------
# circuit parts
# ---------------------------------------------------------------------------

def _truth_table(num_inputs, part):
    """Build ``part(builder, inputs)`` and evaluate it on every input row."""
    b = _Builder(num_inputs)
    c = b.finish(part(b, b.inputs()))
    rows = np.array([[bit == "1" for bit in word] for word in all_bits(num_inputs)],
                    dtype=bool).reshape(1 << num_inputs, num_inputs)
    return [bool(v) for v in eval_circuit_batch(c, rows)]


def _ids(width):
    """(x, y) for every row of a 2*width-input truth table."""
    return [(v >> width, v & ((1 << width) - 1)) for v in range(1 << (2 * width))]


def test_comparator_and_successor_exhaustive():
    for w in range(1, 5):
        lt = _truth_table(2 * w, lambda b, ins: b.lt(ins[:w], ins[w:]))
        succ = _truth_table(2 * w, lambda b, ins: b.successor(ins[:w], ins[w:]))
        assert lt == [x < y for x, y in _ids(w)]
        assert succ == [y == x + 1 for x, y in _ids(w)]
        for c in range(1 << w):
            # a fixed id on either side folds into the comparator
            below = _truth_table(w, lambda b, ins: b.lt(ins, b.number(c, w)))
            above = _truth_table(w, lambda b, ins: b.lt(b.number(c, w), ins))
            assert below == [x < c for x in range(1 << w)]
            assert above == [c < x for x in range(1 << w)]
    with pytest.raises(ValueError):
        _Builder(0).number(4, 2)


def test_id_equality_exhaustive():
    for w in range(0, 5):
        for c in range((1 << w) + 2):
            got = _truth_table(w, lambda b, ins: b.eq_const(ins, c))
            assert got == [x == c for x in range(1 << w)]


def test_mux_exhaustive():
    for w in range(0, 4):
        for length in range((1 << w) + 1):
            for value in range(1 << length):
                leaves = [bool(value >> i & 1) for i in range(length)]
                got = _truth_table(w, lambda b, ins: b.lookup(ins, leaves))
                # leaves past the end read 0
                assert got == [x < length and leaves[x] for x in range(1 << w)]
    # gate leaves: the select bits pick one of the data inputs
    got = _truth_table(6, lambda b, ins: b.mux(ins[:2], ins[2:]))
    assert got == [bool(v >> (3 - (v >> 4)) & 1) for v in range(64)]


def test_parts_fold_constants_and_reuse_gates():
    b = _Builder(3)
    ins = b.inputs()
    assert b.lookup(ins, [True] * 8) == b.const(1)
    assert b.lookup(ins, [False] * 5) == b.const(0)
    assert b.lookup(ins, [False, True] * 4) == ins[2]
    assert b.lookup(ins, [True, False] * 4) == b.not_(ins[2])
    size = len(b.gates)
    first = b.lookup(ins, [False, True, True, False, True, False, False, True])
    grown = len(b.gates)
    assert grown > size
    again = b.lookup(ins, [False, True, True, False, True, False, False, True])
    assert again == first and len(b.gates) == grown
    assert b.not_(b.not_(ins[0])) == ins[0]
    assert b.and_(ins[0], b.not_(ins[0])) == b.const(0)
    assert b.or_(ins[0], b.not_(ins[0])) == b.const(1)
    assert b.and_(ins[0], ins[1]) == b.and_(ins[1], ins[0])


# ---------------------------------------------------------------------------
# multipartite circuits
# ---------------------------------------------------------------------------

def test_jt_query_example():
    assert jt_query(2, 1, 1, "0", 2, "1") == "1011"
    assert jt_query(3, 0, 1, "", 2, "") == "110"


def test_jt_edge_const_one():
    jc = JTournamentCircuit(2, 1, const_circuit(4, 1))
    for s in all_bits(1):
        for s2 in all_bits(1):
            assert jt_edge(jc, (1, s), (2, s2))
            assert not jt_edge(jc, (2, s2), (1, s))


def test_jt_edge_errors():
    jc = JTournamentCircuit(2, 1, const_circuit(4, 1))
    with pytest.raises(ValueError):
        jt_edge(jc, (1, "0"), (1, "1"))  # same part
    with pytest.raises(ValueError):
        jt_edge(jc, (0, "0"), (2, "1"))
    with pytest.raises(ValueError):
        jt_edge(jc, (1, "00"), (2, "1"))


def test_jt_antisymmetry_exhaustive_small():
    rng = random.Random(8)
    for _ in range(25):
        j = rng.randint(2, 3)
        n = rng.randint(0, 2)
        jc = random_jtournament_circuit(rng, j, n)
        nodes = [(i, s) for i in range(1, j + 1) for s in all_bits(n)]
        for a in nodes:
            for b in nodes:
                if a[0] != b[0]:
                    assert jt_edge(jc, a, b) != jt_edge(jc, b, a)


def test_jt_materialize_const_one():
    jc = JTournamentCircuit(2, 1, const_circuit(4, 1))
    mpt = jt_materialize(jc)
    mpt.validate()
    assert [len(p) for p in mpt.parts] == [2, 2]
    for a in mpt.parts[0]:
        for b in mpt.parts[1]:
            assert mpt.graph.has_edge(a, b)


def test_jt_materialize_n0_gives_tournament():
    rng = random.Random(12)
    for _ in range(10):
        jc = random_jtournament_circuit(rng, 3, 0)
        mpt = jt_materialize(jc)
        mpt.validate()
        assert mpt.graph.num_nodes == 3
        assert check_tournament(mpt.graph)


def test_jt_materialize_always_valid_multipartite():
    rng = random.Random(13)
    for _ in range(30):
        j = rng.randint(2, 3)
        n = rng.randint(0, 2)
        jc = random_jtournament_circuit(rng, j, n)
        mpt = jt_materialize(jc)
        mpt.validate()
        assert recognize_jpartite_direct(mpt.graph, j)
        # the materialization agrees with single edge queries
        for _ in range(10):
            i = rng.randint(1, j)
            i2 = rng.randint(1, j)
            if i == i2:
                continue
            s = int_to_bits(rng.randrange(1 << n), n)
            s2 = int_to_bits(rng.randrange(1 << n), n)
            a = jt_node_index(jc, (i, s))
            b = jt_node_index(jc, (i2, s2))
            assert mpt.graph.has_edge(a, b) == jt_edge(jc, (i, s), (i2, s2))


def _part_pair_jt_adjacency(jc):
    """The oracle for jt_materialize: the adjacency built one part pair at
    a time, each pair's whole query matrix in one evaluation."""
    size = jc.part_size()
    total = jc.j * size
    adj = np.zeros((total, total), dtype=bool)
    bits = np.array([[c == "1" for c in s] for s in all_bits(jc.n)], dtype=bool)
    f = jc.n + 1
    for i in range(1, jc.j):
        for i2 in range(i + 1, jc.j + 1):
            queries = np.zeros((size * size, jc.j * f), dtype=bool)
            queries[:, (i - 1) * f] = True
            queries[:, (i2 - 1) * f] = True
            queries[:, (i - 1) * f + 1:i * f] = np.repeat(bits, size, axis=0)
            queries[:, (i2 - 1) * f + 1:i2 * f] = np.tile(bits, (size, 1))
            res = eval_circuit_batch(jc.circuit, queries).reshape(size, size)
            a = slice((i - 1) * size, i * size)
            b = slice((i2 - 1) * size, i2 * size)
            adj[a, b] = res
            adj[b, a] = ~res.T
    return adj


def _payload_comparator(j, n):
    """Fields 1 and j compare their payloads, xored with the first bit of
    one and the last of the other: the answer reads both nodes."""
    b = _Builder(j * (n + 1))
    bits = b.inputs()
    first, last = bits[1:n + 1], bits[(j - 1) * (n + 1) + 1:]
    out = b.lt(first, last)
    if n:
        out = b.xor(out, b.and_(first[0], last[-1]))
    return JTournamentCircuit(j, n, b.finish(out))


@pytest.mark.parametrize("j, n", [(j, n) for j in (2, 3, 4) for n in (0, 1, 2)] + [(2, 10)])
def test_jt_materialize_matches_the_part_pair_loop(j, n):
    # at j=2, n=10 a part is 1,024 rows and a row block is fewer
    rng = random.Random(100 * j + n)
    circuits = [_payload_comparator(j, n)]
    circuits += [random_jtournament_circuit(rng, j, n, num_gates=rng.randint(1, 20))
                 for _ in range(8 if n < 10 else 2)]
    for jc in circuits:
        assert np.array_equal(jt_materialize(jc).graph.adj, _part_pair_jt_adjacency(jc))


def test_jt_materialize_holds_few_queries():
    """j=2, n=11 with a 7-gate circuit: the peak stays within three
    adjacencies (the matrix, the graph's copy and the row blocks)."""
    jc = random_jtournament_circuit(random.Random(11), 2, 11, num_gates=7)
    tracemalloc.start()
    try:
        mpt = jt_materialize(jc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * mpt.graph.adj.nbytes, peak / mpt.graph.adj.nbytes


def test_jt_materialize_adopts_its_matrix():
    """j=2, n=11: the graph keeps the matrix jt_materialize builds, so the
    peak is one adjacency (16 MiB) plus a block of queries and one part
    block, not two adjacencies (36.8 MiB when the graph copied it)."""
    jc = random_jtournament_circuit(random.Random(11), 2, 11, num_gates=7)
    tracemalloc.start()
    try:
        mpt = jt_materialize(jc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mpt.graph.adj.nbytes == 1 << 24
    assert peak <= 1.6 * mpt.graph.adj.nbytes, peak / mpt.graph.adj.nbytes


def test_jt_materialize_evaluates_once_per_part_on_singleton_parts(monkeypatch):
    calls = []
    real = circuit.eval_circuit_batch

    def counted(c, inputs):
        calls.append(len(inputs))
        return real(c, inputs)

    monkeypatch.setattr(circuit, "eval_circuit_batch", counted)
    jc = random_jtournament_circuit(random.Random(64), 64, 0)
    mpt = jt_materialize(jc)
    assert len(calls) <= 63 and sum(calls) == 64 * 63 // 2
    assert check_tournament(mpt.graph)


def test_gw_materialize_matches_gw_edge_across_row_blocks():
    b = _Builder(20)
    bits = b.inputs()
    xs, ys = bits[:10], bits[10:]
    sg = SuccinctGraph(10, b.finish(b.xor(b.lt(xs, ys), b.and_(xs[2], ys[5]))))
    g = gw_materialize(sg)
    rng = random.Random(10)
    for _ in range(300):
        x, y = rng.sample(range(1 << 10), 2)
        assert g.has_edge(x, y) == gw_edge(sg, int_to_bits(x, 10), int_to_bits(y, 10))
    assert not g.adj.diagonal().any()


def test_jt_k_king_examples():
    jc = JTournamentCircuit(2, 1, const_circuit(4, 1))
    assert not jt_k_king(jc, (1, "0"), 2)  # its part-mate is unreachable
    single = JTournamentCircuit(2, 0, const_circuit(2, 1))
    assert jt_k_king(single, (1, ""), 1)


def test_mpt_1king_fast():
    assert mpt_has_1king_fast(JTournamentCircuit(2, 1, const_circuit(4, 1))) is None
    assert mpt_has_1king_fast(JTournamentCircuit(2, 0, const_circuit(2, 1))) == (1, "")
    # cyclic orientation on three singleton parts has no 1-king: the output
    # is part 2's control bit, so 1->2 and 2->3, and the (1,3) query says 3->1
    b = _Builder(3)
    cyc = JTournamentCircuit(3, 0, b.finish(b.inputs()[1]))
    assert mpt_has_1king_fast(cyc) is None
    assert all_k_kings(jt_materialize(cyc).graph, 1) == set()


def test_mpt_1king_fast_matches_brute_force():
    rng = random.Random(21)
    for _ in range(80):
        j = rng.randint(2, 4)
        n = rng.randint(0, 1)
        jc = random_jtournament_circuit(rng, j, n)
        fast = mpt_has_1king_fast(jc)
        brute = all_k_kings(jt_materialize(jc).graph, 1)
        if fast is None:
            assert not brute
        else:
            idx = (fast[0] - 1) * (1 << n)
            assert brute == {idx}
