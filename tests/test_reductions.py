import hashlib
import random
import re

import numpy as np
import pytest

from kings.bitstrings import all_bits, int_to_bits
from kings.circuit import (
    gw_materialize,
    jt_edge,
    jt_k_king,
    jt_materialize,
)
from kings.digraph import all_k_kings, check_tournament, is_k_king
from kings.formula import (
    CatalogCodec,
    TTFECodec,
    eval_formula,
    fe_from_table,
    formula_from_table,
    parse_formula_input,
)
from kings.generators import random_jtournament_circuit
from kings.pairing import Pairing, pair
from kings.reductions import (
    build_2partite_instance,
    build_gw_antenna_instance,
    canonical_out,
    lift_j,
    lift_k,
    list_suites,
    reduce_taut_to_1king_gw,
    reduce_to_kings,
    reduce_to_kkings,
    verify_suite,
)
from kings.specifier import (
    _weave_mismatches,
    build_subtournament,
    conp_specifier,
    induced_graph,
    kkings_specifier,
    make_builtin_specifier,
    np_specifier,
    pi2_specifier,
)


def fe(text):
    return parse_formula_input(text)


# ---------------------------------------------------------------------------
# family reductions
# ---------------------------------------------------------------------------

def test_reduce_to_kings_examples():
    inst = reduce_to_kings("conp", "tt:11")
    assert (inst.node, inst.length, inst.expected) == ("01011000", 8, True)
    inst = reduce_to_kings("np", "tt:01")
    assert (inst.node, inst.length, inst.expected) == ("000111000", 9, True)
    inst = reduce_to_kings("pi2", "zzz")
    assert inst.expected is False
    assert inst.node == canonical_out(pi2_specifier())


def test_reductions_are_total():
    for garbage in ("", ")", "x1 &", "tt:0", 42, None, "fe:n=0:x1"):
        for kind in ("pi2", "conp", "np"):
            inst = reduce_to_kings(kind, garbage)
            assert inst.expected is False and len(inst.node) == inst.length
        inst = reduce_to_kkings(garbage, 3)
        assert inst.expected is False
    # a propositional formula is garbage for the forall-exists reduction
    assert reduce_to_kings("pi2", "x1").expected is False
    # and vice versa
    assert reduce_to_kings("conp", "fe:n=1:tt:1001").expected is False


def test_canonical_out_values():
    assert canonical_out(pi2_specifier()) == "000000000001"
    assert canonical_out(conp_specifier()) == "00000001"
    # the next-smallest string at length 9 is a special node, never chosen
    assert canonical_out(np_specifier()) == "000000010"
    assert canonical_out(kkings_specifier(3)) == "0000000000001"
    # no catalog formula has enough universal variables for k = 4
    assert canonical_out(kkings_specifier(4)) == "1"


def test_out_is_never_a_king():
    from kings.specifier import specifier_k_king
    for spec in (conp_specifier(), np_specifier()):
        out = canonical_out(spec)
        assert not specifier_k_king(spec, out, 2)


def test_reduce_to_kkings_examples():
    inst = reduce_to_kkings(CatalogCodec().entry(0), 3)
    assert inst.node == pair(Pairing.V1, "0000", "0001")
    assert inst.length == 13 and inst.expected is True
    # k = 2 degenerates to the forall-exists 2-king reduction
    f = fe("fe:n=1:tt:1001")
    assert reduce_to_kkings(f, 2, TTFECodec()).node == reduce_to_kings("pi2", f).node
    # too few universal variables for k = 3
    assert reduce_to_kkings(f, 3, TTFECodec()).expected is False


def test_conp_subtournament_king_set_exhaustive():
    # 0^{n+2} iff phi is a tautology; 10 0^n iff phi(0^n); 11x iff x = 0^n
    # (11 0^n -> 0^{n+2} -> 10 0^n), or x is the first falsifier of phi
    for n in (1, 2, 3):
        for v in range(1 << (1 << n)):
            phi = formula_from_table(n, int_to_bits(v, 1 << n))
            truth = [eval_formula(phi, x) for x in all_bits(n)]
            expected = set()
            if all(truth):
                expected.add("0" * (n + 2))
            if truth[0]:
                expected.add("10" + "0" * n)
            for i, x in enumerate(all_bits(n)):
                if (i == 0 or not truth[i]) and all(truth[:i]):
                    expected.add("11" + x)
            g = build_subtournament("conp", phi)
            assert {g.labels[i] for i in all_k_kings(g, 2)} == expected, (n, v)


# ---------------------------------------------------------------------------
# succinct-graph constructions
# ---------------------------------------------------------------------------

def test_antenna_instance_shapes_and_kingship():
    f_true = fe("fe:n=1:tt:1001")
    f_false = fe("fe:n=1:tt:1000")
    inst = build_gw_antenna_instance(f_true, 2)
    g = gw_materialize(inst.circuit)
    assert g.num_nodes == 8 and check_tournament(g)
    assert is_k_king(g, int(inst.node, 2), 2)
    inst4 = build_gw_antenna_instance(f_true, 4)
    g4 = gw_materialize(inst4.circuit)
    assert is_k_king(g4, int(inst4.node, 2), 4)
    inst4f = build_gw_antenna_instance(f_false, 4)
    g4f = gw_materialize(inst4f.circuit)
    assert not is_k_king(g4f, int(inst4f.node, 2), 4)


def test_onekings_examples():
    for bits, want in (("11", True), ("10", False), ("00", False)):
        inst = reduce_taut_to_1king_gw(formula_from_table(1, bits))
        g = gw_materialize(inst.circuit)
        assert check_tournament(g)
        assert is_k_king(g, int(inst.node, 2), 1) == want == inst.expected


def test_header_circuit_text_roundtrip():
    from kings.circuit import format_circuit, parse_circuit
    inst = reduce_taut_to_1king_gw(formula_from_table(2, "1011"))
    assert parse_circuit(format_circuit(inst.circuit.circuit)) == inst.circuit.circuit


def test_2partite_instance():
    inst = build_2partite_instance(fe("fe:n=1:tt:1001"))
    assert inst.circuit.part_size() == 4  # both parts 2^{n+1}
    assert jt_k_king(inst.circuit, inst.node, 2)
    inst_f = build_2partite_instance(fe("fe:n=1:tt:1000"))
    assert not jt_k_king(inst_f.circuit, inst_f.node, 2)


def test_lift_j_preserves_kingship():
    inst = build_2partite_instance(fe("fe:n=1:tt:1001"))
    lifted, node = lift_j(inst.circuit, inst.node)
    assert lifted.j == 3 and lifted.n == inst.circuit.n
    for k in (1, 2, 3):
        assert jt_k_king(lifted, node, k) == jt_k_king(inst.circuit, inst.node, k)
    # the new part holds sinks only
    assert not jt_k_king(lifted, (3, "0" * lifted.n), 4)


def test_lift_k_shifts_kingship():
    for bits, want in (("1001", True), ("1000", False)):
        inst = build_2partite_instance(fe(f"fe:n=1:tt:{bits}"))
        lifted, z = lift_k(inst.circuit, inst.node)
        assert jt_k_king(lifted, z, 3) == want
        assert jt_edge(lifted, z, (inst.node[0], "0" + inst.node[1]))
    with pytest.raises(ValueError):
        lift_k(lift_j(inst.circuit, inst.node)[0], inst.node)


def test_reductions_reject_the_wrong_formula_kind():
    with pytest.raises(TypeError):
        reduce_taut_to_1king_gw(fe("fe:n=1:tt:1001"))
    with pytest.raises(TypeError):
        build_2partite_instance(fe("x1"))
    with pytest.raises(TypeError):
        build_gw_antenna_instance(fe("x1"), 3)


# ---------------------------------------------------------------------------
# bit-exact oracles: the explicit adjacency each reduction specifies
# ---------------------------------------------------------------------------

def _pad_exponent(total):
    return max(1, (total - 1).bit_length())


def antenna_adjacency(phi, k):
    """The 2-king tournament, a k-2 chain and dummy padding, tabulated."""
    base_graph = build_subtournament("pi2", phi)
    base = base_graph.num_nodes
    chain = k - 2
    total = base + chain
    size = 1 << _pad_exponent(total)
    adj = np.zeros((size, size), dtype=bool)
    adj[:base, :base] = base_graph.adj
    last = base + chain - 1
    for c in range(base, base + chain):
        for o in range(base):
            if c == last and o == 0:
                adj[c, o] = True
            else:
                adj[o, c] = True
    for a in range(base, base + chain):
        for b in range(a + 1, base + chain):
            if b == a + 1:
                adj[a, b] = True
            else:
                adj[b, a] = True
    for d in range(total, size):
        adj[:d, d] = True
    return adj


def onekings_adjacency(phi):
    """The header, one certificate per assignment and dummy padding."""
    certs = 1 << phi.num_vars
    total = 1 + certs
    size = 1 << _pad_exponent(total)
    adj = np.zeros((size, size), dtype=bool)
    for a in range(certs):
        if phi.bits[a] == "1":
            adj[0, 1 + a] = True
        else:
            adj[1 + a, 0] = True
    adj[0, total:] = True
    for u in range(1, size):
        adj[u, u + 1:] = True
    return adj


def two_part_adjacency(n2, edge_1_to_2):
    """Both parts hold the n2-bit payloads; part 1 first."""
    size = 1 << n2
    cross = np.array([[edge_1_to_2(int_to_bits(a, n2), int_to_bits(b, n2))
                       for b in range(size)] for a in range(size)], dtype=bool)
    adj = np.zeros((2 * size, 2 * size), dtype=bool)
    adj[:size, size:] = cross
    adj[size:, :size] = ~cross.T
    return adj


def two_part_edge(phi):
    n = phi.n
    table = phi.matrix.bits
    half = 1 << n

    def edge_1_to_2(s, s2):
        ia, ib = int(s, 2), int(s2, 2)
        if ia == 0:
            return True
        if 1 <= ia <= half:
            if ib < half:
                return table[int(int_to_bits(ia - 1, n) + int_to_bits(ib, n), 2)] != "1"
            return True
        return False

    return edge_1_to_2


def lift_k_edge(jc, w):
    iw, sw = w
    opp = 3 - iw
    z_s = "1" + "0" * jc.n

    def edge_1_to_2(s, s2):
        left_old = s[0] == "0"
        right_old = s2[0] == "0"
        if left_old and right_old:
            return jt_edge(jc, (1, s[1:]), (2, s2[1:]))
        if opp == 2 and s2 == z_s:
            if left_old:
                return s[1:] != sw
            return False
        if opp == 1 and s == z_s:
            if right_old:
                return s2[1:] == sw
            return True
        if left_old and not right_old:
            return True
        if right_old and not left_old:
            return False
        return True

    return edge_1_to_2


def _same_graph(got, want):
    diagonal = np.eye(len(want), dtype=bool)
    assert np.array_equal(got.adj, want & ~diagonal)


def test_onekings_circuit_matches_its_adjacency():
    rng = random.Random(31)
    for n in range(1, 7):
        tables = list(all_bits(1 << n)) if n <= 2 else \
            [int_to_bits(rng.getrandbits(1 << n), 1 << n) for _ in range(12)]
        tables += ["0" * (1 << n), "1" * (1 << n)]
        for bits in tables:
            phi = formula_from_table(n, bits)
            inst = reduce_taut_to_1king_gw(phi)
            _same_graph(gw_materialize(inst.circuit), onekings_adjacency(phi))


def test_antenna_circuit_matches_its_adjacency():
    rng = random.Random(32)
    for bits in all_bits(4):
        phi = fe_from_table(1, bits)
        for k in range(2, 6):
            inst = build_gw_antenna_instance(phi, k)
            _same_graph(gw_materialize(inst.circuit), antenna_adjacency(phi, k))
    # chains that end at, below and above a power of two, with and without dummies
    for n, count in ((1, 6), (2, 8), (3, 4)):
        for _ in range(count):
            phi = fe_from_table(n, int_to_bits(rng.getrandbits(1 << (2 * n)), 1 << (2 * n)))
            k = rng.choice((2, 3, 4, 5, 6, 11, 12, 13, 18, 21))
            inst = build_gw_antenna_instance(phi, k)
            _same_graph(gw_materialize(inst.circuit), antenna_adjacency(phi, k))


def test_two_part_circuit_matches_its_adjacency():
    rng = random.Random(33)
    tables = [(1, bits) for bits in all_bits(4)]
    tables += [(n, int_to_bits(rng.getrandbits(1 << (2 * n)), 1 << (2 * n)))
               for n in (2, 3) for _ in range(8)]
    for n, bits in tables:
        phi = fe_from_table(n, bits)
        inst = build_2partite_instance(phi)
        want = two_part_adjacency(n + 1, two_part_edge(phi))
        _same_graph(jt_materialize(inst.circuit).graph, want)


def test_onekings_circuit_stays_small_at_the_variable_cap():
    # a random 12-variable table: one mux over 2**13 leaves, shared sub-blocks
    rng = random.Random(5)
    bits = int_to_bits(rng.getrandbits(1 << 12), 1 << 12)
    inst = reduce_taut_to_1king_gw(formula_from_table(12, bits))
    assert inst.length == 13 and len(inst.circuit.circuit.gates) < 20_000


def test_lift_k_circuit_matches_its_adjacency():
    for bits in all_bits(4):
        inst = build_2partite_instance(fe_from_table(1, bits))
        lifted, z = lift_k(inst.circuit, inst.node)
        want = two_part_adjacency(lifted.n, lift_k_edge(inst.circuit, inst.node))
        _same_graph(jt_materialize(lifted).graph, want)
        assert z == (2, "100")
    rng = random.Random(34)
    for _ in range(60):
        n = rng.randint(0, 3)
        jc = random_jtournament_circuit(rng, 2, n, rng.randint(0, 30))
        w = (rng.randint(1, 2), int_to_bits(rng.randrange(1 << n), n))
        lifted, z = lift_k(jc, w)
        assert z == (3 - w[0], "1" + "0" * n)
        want = two_part_adjacency(n + 1, lift_k_edge(jc, w))
        _same_graph(jt_materialize(lifted).graph, want)
        # surgery, not tabulation: the input circuit is copied at most once
        assert len(lifted.circuit.gates) <= len(jc.circuit.gates) + 16 * (n + 2)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, b, m, count", [
    ("kkings:2:ttfe", "pi2", 12, 0),
    ("pi2", "conp", 12, None),
    ("conp", "np", 8, None),
    ("np", "conp", 9, None),
])
def test_weave_mismatches_match_the_whole_matrices(a, b, m, count):
    """The mismatch count of two weaves from their cores' rows and columns
    against the count over both whole induced adjacencies."""
    a, b = make_builtin_specifier(a), make_builtin_specifier(b)
    whole = int((induced_graph(a, m).adj != induced_graph(b, m).adj).sum()) // 2
    assert _weave_mismatches(a, b, m) == whole
    assert whole == count if count is not None else whole > 0


def test_verify_suite_smoke():
    report = verify_suite("claim2.2:n=1")
    assert report.total == 16 and report.passed
    assert report.agreements + report.disagreements == report.total
    assert "16/16 agree" in report.to_text()
    assert any("total=16" in r for r in report.to_records())


def test_verify_suite_unknown():
    with pytest.raises(ValueError):
        verify_suite("nope")


def test_suite_registry():
    suites = list_suites()
    for sid in ("claim2.2:n=1", "claim2.8", "claim2.11", "weave-pi2:m=12",
                "weave-conp:m=8", "weave-conp:m=13", "weave-np:m=9",
                "weave-kkings:k=3:m=13", "antenna:k=2", "antenna:k=5",
                "onekings-gw", "lemma4.2", "lemma4.3:n=1", "lemma4.3:n=2",
                "lemma4.4", "lemma4.5", "landau:n<=5", "patterns-eq",
                "fourking-mpt", "assoc-max"):
        assert sid in suites


def test_seeded_suites_are_deterministic():
    a = verify_suite("fourking-mpt", seed=3, sample=40)
    b = verify_suite("fourking-mpt", seed=3, sample=40)
    assert (a.total, a.disagreements, a.witnesses) == (b.total, b.disagreements, b.witnesses)
    c = verify_suite("lemma4.2", seed=1, sample=25)
    assert c.total >= 25 and c.passed


# sha256 of the records with the elapsed time taken out, as in
# test_acceptance.py, for the two suites no acceptance criterion runs
@pytest.mark.parametrize("suite,digest", [
    ("claim2.2:n=3s", "254c43a726026c752e0535523eb746a3ad97f54f13426829f5653ac27236543a"),
    ("onekings-gw", "196def20ee74f4a7be94b4ce8d73cd5586c5a14d1730719cd5f7c4b47732987c"),
])
def test_suite_records_are_pinned(suite, digest):
    records = (re.sub(r" elapsed=\S+", "", rec) for rec in verify_suite(suite).to_records())
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == digest
