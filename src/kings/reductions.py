"""Executable reductions from formulas to kingship instances, plus the
verification suites that check them against brute-force oracles.

Every reduction here is total: any input that is not a formula of the
right shape (or is not encodable by the target codec) maps to a fixed
non-king element, so the many-one contract never breaks.  Each produced
instance carries the oracle verdict in ``expected`` so the suites can
compare structural kingship against formula truth with no hand-entered
values.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .bitstrings import all_bits, bits_to_int, check_bits, int_to_bits
from .circuit import (
    BooleanCircuit,
    JTournamentCircuit,
    SuccinctGraph,
    _Builder,
    gw_check_tournament,
    gw_materialize,
    jt_edge,
    jt_k_king,
    jt_materialize,
    jt_node_index,
    mpt_has_1king_fast,
)
from .digraph import (
    all_k_kings,
    enumerate_tournaments,
    find_king_landau,
    is_k_king,
    k_king_mask,
    recognize_jpartite_direct,
    recognize_jpartite_patterns,
    reach_within,
)
from .formula import (
    CodecError,
    ForallExistsFormula,
    PropFormula,
    TTFECodec,
    eval_forall_exists,
    eval_formula,
    fe_from_table,
    formula_from_table,
    is_satisfiable,
    is_tautology,
    parse_formula_input,
)
from .generators import (
    enumerate_all_digraphs,
    random_digraph,
    random_jtournament_circuit,
    random_multipartite_tournament,
)
from .limits import CapExceeded, check_node_cap
from .pairing import Pairing, pair
from .specifier import (
    ANTENNA,
    MEMBER,
    OTHER,
    WeaveSpecifier,
    _check_sample,
    build_subtournament,
    check_associativity,
    conp_specifier,
    induced_graph,
    kkings_specifier,
    max_specifier,
    np_specifier,
    pi2_specifier,
    validate_specifier,
)

Formula = Union[PropFormula, ForallExistsFormula]


@dataclass(frozen=True)
class ReductionInstance:
    """Output of a reduction: where to test kingship, and the oracle verdict."""

    target: str
    node: Union[str, Tuple[int, str]]
    length: int
    circuit: Union[SuccinctGraph, JTournamentCircuit, None] = None
    expected: Optional[bool] = None


# ---------------------------------------------------------------------------
# Family reductions
# ---------------------------------------------------------------------------

def _coerce_formula(source):
    if isinstance(source, (PropFormula, ForallExistsFormula)):
        return source
    if isinstance(source, str):
        try:
            return parse_formula_input(source)
        except (ValueError, CapExceeded):
            return None
    return None


def canonical_out(spec: WeaveSpecifier) -> str:
    """The fixed non-king element used for garbage inputs.

    The lexicographically smallest leftover string at the smallest length
    where some formula decodes (length 1 when the codec admits none).
    """
    m0 = 1
    for n in range(1, 16):
        enc_len = spec.codec.encoding_length_for(n)
        if enc_len is None:
            continue
        if spec.style == "fe" and n <= spec.k - 2:
            continue
        head = 2 * enc_len + (1 if spec.version is Pairing.V1 else 2)
        m0 = head + n + 2
        break
    for v in range(1 << min(m0, 16)):
        z = int_to_bits(v, m0)
        if spec.classify(z).cls == OTHER:
            return z
    raise RuntimeError("no leftover string found")


_KING_ORACLES = {"pi2": eval_forall_exists, "conp": is_tautology, "np": is_satisfiable}
_KING_SPECS = {"pi2": pi2_specifier, "conp": conp_specifier, "np": np_specifier}


def reduce_to_kings(kind: str, source, codec=None) -> ReductionInstance:
    """Map any input to a node whose 2-kingship under the built-in family
    tracks the formula property (truth / tautology / satisfiability)."""
    if kind not in _KING_SPECS:
        raise ValueError(f"unknown reduction kind {kind!r}")
    spec = _KING_SPECS[kind](codec)
    phi = _coerce_formula(source)
    want_fe = kind == "pi2"
    enc = None
    if (isinstance(phi, ForallExistsFormula) if want_fe
            else isinstance(phi, PropFormula)):
        try:
            enc = spec.codec.encode(phi)
        except CodecError:
            enc = None
    if enc is None:
        node = canonical_out(spec)
        expected = False
    else:
        n = phi.n if want_fe else phi.num_vars
        node = pair(spec.version, enc, "0" * (n + 2))
        expected = _KING_ORACLES[kind](phi)
    return ReductionInstance(target=f"kings:{spec.name}", node=node,
                             length=len(node), expected=expected)


def reduce_to_kkings(source, k: int, codec=None) -> ReductionInstance:
    """Map any input to a node whose k-kingship tracks forall-exists truth.

    Valid sources are forall-exists formulas with more than k-2 universal
    variables that the codec can encode; everything else goes to the fixed
    non-king element.  For k = 2 the output node equals the pi2 reduction's.
    """
    spec = kkings_specifier(k, codec)
    phi = _coerce_formula(source)
    enc = None
    if isinstance(phi, ForallExistsFormula) and phi.n > k - 2:
        try:
            enc = spec.codec.encode(phi)
        except CodecError:
            enc = None
    if enc is None:
        node = canonical_out(spec)
        expected = False
    else:
        node = pair(Pairing.V1, enc, "0" * (phi.n + 4 - k) + "1" * (k - 2))
        expected = eval_forall_exists(phi)
    return ReductionInstance(target=f"kings:{spec.name}", node=node,
                             length=len(node), expected=expected)


# ---------------------------------------------------------------------------
# Succinct-graph constructions
# ---------------------------------------------------------------------------

def _pad_exponent(total: int) -> int:
    t = 0
    while (1 << t) < total:
        t += 1
    return max(t, 1)


def _lower_id_wins(t: int, rows, extra=None) -> SuccinctGraph:
    """A succinct tournament on the t-bit ids in which the lower of two ids
    wins, except on the pairs lo < hi with ``rows[lo][hi]`` set or with
    ``extra(builder, lo, hi)`` true; ids past the rows have no exceptions.

    The circuit sorts the queried pair once and reads the exception off a
    mux over the two sorted ids, so its size follows the rows, not 4**t.
    """
    b = _Builder(2 * t)
    ins = b.inputs()
    x, y = ins[:t], ins[t:]
    below = b.lt(x, y)
    lo = [b.choose(below, xi, yi) for xi, yi in zip(x, y)]
    hi = [b.choose(below, yi, xi) for xi, yi in zip(x, y)]
    upset = b.mux(lo, [b.lookup(hi, row) for row in rows])
    if extra is not None:
        upset = b.or_(upset, extra(b, lo, hi))
    return SuccinctGraph(t, b.finish(b.xor(below, upset)))


def build_gw_antenna_instance(phi: ForallExistsFormula, k: int) -> ReductionInstance:
    """One-formula k-king instance: the 2-king tournament plus a k-2 chain.

    The chain's last node points at the potential king; every original node
    points at every chain node otherwise; non-adjacent chain pairs point
    back toward the chain head; dummy nodes pad the total to a power of two
    and are pointed to by everything else.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    base_graph = build_subtournament("pi2", phi)
    base = base_graph.num_nodes
    chain = k - 2
    total = base + chain
    t = _pad_exponent(total)
    check_node_cap(1 << t)
    last = total - 1

    def chain_upsets(b, lo, hi):
        if not chain:
            return b.const(0)
        # the chain end points at the potential king
        upset = b.and_(b.eq_const(lo, 0), b.eq_const(hi, last))
        if chain > 1:
            # non-adjacent chain pairs point back toward the chain head
            in_chain = b.not_(b.lt(lo, b.number(base, t)))
            if total < 1 << t:
                in_chain = b.and_(in_chain, b.lt(hi, b.number(total, t)))
            upset = b.or_(upset, b.and_(in_chain, b.not_(b.successor(lo, hi))))
        return upset

    # inside the 2-king tournament the higher id wins where its edge says so
    rows = np.triu(~base_graph.adj, 1).tolist()
    sg = _lower_id_wins(t, rows, chain_upsets)
    designated = 0 if k == 2 else base
    return ReductionInstance(target=f"gw-kings:{k}", node=int_to_bits(designated, t),
                             length=t, circuit=sg, expected=eval_forall_exists(phi))


def reduce_taut_to_1king_gw(phi: PropFormula) -> ReductionInstance:
    """Header-and-certificates instance: the header is a 1-king iff every
    assignment satisfies the formula.  Cross edges run low id to high id."""
    if not isinstance(phi, PropFormula):
        raise TypeError("the 1-king reduction takes propositional formulas")
    certs = 1 << phi.num_vars
    t = _pad_exponent(1 + certs)
    check_node_cap(1 << t)
    # certificate 1 + a beats the header exactly when a falsifies phi
    sg = _lower_id_wins(t, [[False] + [bit == "0" for bit in phi.bits]])
    return ReductionInstance(target="gw-kings:1", node=int_to_bits(0, t),
                             length=t, circuit=sg, expected=is_tautology(phi))


def build_2partite_instance(phi: ForallExistsFormula) -> ReductionInstance:
    """Two-part instance whose designated part-1 node is a 2-king iff the
    formula is true.

    Part 1 holds the designated node, one node per universal assignment and
    sink padding; part 2 holds one node per existential assignment and
    padding.  The designated node beats all of part 2; a y-node beats an
    x-node exactly when the matrix accepts that assignment pair; x-nodes
    beat part-2 padding; part-1 padding is beaten by all of part 2.
    """
    if not isinstance(phi, ForallExistsFormula):
        raise TypeError("the two-part reduction takes forall-exists formulas")
    n = phi.n
    table = phi.matrix.bits
    half = 1 << n
    np2 = n + 1
    b = _Builder(2 * (np2 + 1))
    ins = b.inputs()
    s, s2 = ins[1:np2 + 1], ins[np2 + 2:]
    # row 0 is the designated node and row 1 + x an x-node; padding rows read 0
    rows = [b.const(1)]
    for x in range(half):
        beats = [bit != "1" for bit in table[x * half:(x + 1) * half]]
        rows.append(b.lookup(s2, beats + [True] * half))
    jc = JTournamentCircuit(2, np2, b.finish(b.mux(s, rows)))
    return ReductionInstance(target="jt-kings:2:2", node=(1, "0" * np2),
                             length=np2, circuit=jc,
                             expected=eval_forall_exists(phi))


def lift_j(jc: JTournamentCircuit, node: Tuple[int, str]
           ) -> Tuple[JTournamentCircuit, Tuple[int, str]]:
    """Add a sink part: the j+1st part is pointed to by everyone, leaving
    every node's k-kingship unchanged.  Pure gate surgery, no blowup."""
    f = jc.n + 1
    gates = list(jc.circuit.gates)
    ctrl = len(gates)
    gates.append(("INPUT", jc.j * f))
    out = len(gates)
    gates.append(("OR", jc.circuit.output, ctrl))
    lifted = JTournamentCircuit(jc.j + 1, jc.n,
                                BooleanCircuit((jc.j + 1) * f, tuple(gates), out))
    return lifted, node


def lift_k(jc: JTournamentCircuit, w: Tuple[int, str]
           ) -> Tuple[JTournamentCircuit, Tuple[int, str]]:
    """Two-part k-to-(k+1) shift: a new node opposite w points only at w,
    is pointed at by the rest of w's part, and both parts re-pad to the
    next power of two.  The new node is a (k+1)-king iff w was a k-king.

    Gate surgery: old nodes are the payloads with a leading 0, and the
    input circuit decides old pairs on its inputs moved one bit right in
    each field; the new node and the padding are decided by id tests.
    """
    if jc.j != 2:
        raise ValueError("the k-shift is defined on two-part instances")
    iw, sw = w
    if not 1 <= iw <= 2 or len(check_bits(sw)) != jc.n:
        raise ValueError("bad designated node")
    opp = 3 - iw
    n = jc.n
    n2 = n + 1
    b = _Builder(2 * (n2 + 1))
    ins = b.inputs()
    s, s2 = ins[1:n2 + 1], ins[n2 + 2:]
    moved = [ins[0]] + s[1:] + [ins[n2 + 1]] + s2[1:]
    copy = []
    for gate in jc.circuit.gates:
        op = gate[0]
        if op == "INPUT":
            copy.append(moved[gate[1]])
        elif op == "CONST":
            copy.append(b.const(gate[1]))
        elif op == "NOT":
            copy.append(b.not_(copy[gate[1]]))
        elif op == "AND":
            copy.append(b.and_(copy[gate[1]], copy[gate[2]]))
        else:
            copy.append(b.or_(copy[gate[1]], copy[gate[2]]))
    old_pair = copy[jc.circuit.output]
    z_id = 1 << n  # the new node 1 0^n
    if opp == 2:
        is_z = b.eq_const(s2, z_id)
        is_w = b.eq_const(s[1:], bits_to_int(sw))
        # old part-1 nodes but w point at the new node; it beats part-1 padding
        new_right = b.not_(b.and_(is_z, is_w))
        cases = [old_pair, new_right, b.const(0), b.not_(is_z)]
    else:
        is_z = b.eq_const(s, z_id)
        is_w = b.eq_const(s2[1:], bits_to_int(sw))
        # the new node points only at w among old nodes, and at part-2 padding
        cases = [old_pair, b.const(1), b.and_(is_z, is_w), b.const(1)]
    # cases by (left is new, right is new); padding pairs point part 1 to part 2
    lifted = JTournamentCircuit(2, n2, b.finish(b.mux([s[0], s2[0]], cases)))
    return lifted, (opp, "1" + "0" * n)


# ---------------------------------------------------------------------------
# Verification reports and suites
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    suite: str
    description: str
    total: int = 0
    disagreements: int = 0
    witnesses: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    subchecks: Dict[str, List[int]] = field(default_factory=dict)

    _WITNESS_CAP = 25

    def check(self, name: str, ok: bool, witness: str = ""):
        self.total += 1
        agree_total = self.subchecks.setdefault(name, [0, 0])
        agree_total[1] += 1
        if ok:
            agree_total[0] += 1
        else:
            self.disagreements += 1
            if len(self.witnesses) < self._WITNESS_CAP:
                self.witnesses.append(f"{name}: {witness}")

    @property
    def agreements(self) -> int:
        return self.total - self.disagreements

    @property
    def passed(self) -> bool:
        return self.disagreements == 0

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {self.description}",
                 f"  {self.agreements}/{self.total} agree"
                 f" ({self.disagreements} disagreements, {self.elapsed:.1f}s)"]
        for name, (agree, total) in sorted(self.subchecks.items()):
            lines.append(f"  - {name}: {agree}/{total}")
        for w in self.witnesses:
            lines.append(f"  ! {w}")
        return "\n".join(lines)

    def to_records(self) -> List[str]:
        recs = [f"suite={self.suite} total={self.total} agree={self.agreements} "
                f"disagree={self.disagreements} elapsed={self.elapsed:.2f}"]
        for name, (agree, total) in sorted(self.subchecks.items()):
            recs.append(f"suite={self.suite} check={name} agree={agree} total={total}")
        return recs


def _sampled_tables(rng, width, count):
    for _ in range(count):
        yield int_to_bits(rng.getrandbits(width), width)


# -- subtournament-level oracle suites --------------------------------------

def _suite_claim22(report, seed, sample, n):
    if n <= 2:
        tables = all_bits(1 << (2 * n))
    else:
        rng = random.Random(seed)
        tables = _sampled_tables(rng, 1 << (2 * n), sample or 200)
    for bits in tables:
        fe = fe_from_table(n, bits)
        truth = eval_forall_exists(fe)
        g = build_subtournament("pi2", fe)
        report.check("potential-king-vs-truth",
                     is_k_king(g, 0, 2) == truth, f"table={bits}")


def _suite_claim28(report, seed, sample):
    """Side facts of the tautology subtournament, checked against phi.

    The potential king 0^{n+2} is a 2-king iff phi is a tautology; the
    second-layer node 10 0^n is a 2-king iff phi(0^n); a third-layer node
    11x with x != 0^n is a 2-king iff x is the first falsifier of phi,
    while 11 0^n is always a 2-king (it beats every other third-layer node
    and the potential king, and reaches 10 0^n through the potential king).
    """
    rng = random.Random(seed)
    for n in (1, 2, 3):
        if n <= 2:
            tables = all_bits(1 << n)
        else:
            tables = sorted(set(_sampled_tables(rng, 1 << n, sample or 64)))
        for bits in tables:
            phi = formula_from_table(n, bits)
            g = build_subtournament("conp", phi)
            where = f"n={n} table={bits}"
            kings = [("potential-king-vs-tautology", 0, is_tautology(phi), where),
                     ("second-layer-vs-phi-at-zero", g.node_index("10" + "0" * n),
                      eval_formula(phi, "0" * n), where)]
            for x in all_bits(n):
                node = g.node_index("11" + x)
                if "1" not in x:
                    kings.append(("third-layer-zero-always-king", node, True, where))
                    continue
                claimed = (not eval_formula(phi, x)) and all(
                    eval_formula(phi, x2) for x2 in all_bits(n) if x2 < x)
                kings.append(("third-layer-vs-first-falsifier", node, claimed,
                              f"{where} x={x}"))
            _check_kings(report, g, kings)


def _suite_claim211(report, seed, sample):
    rng = random.Random(seed)
    for n in (1, 2, 3):
        if n <= 2:
            tables = all_bits(1 << n)
        else:
            tables = sorted(set(_sampled_tables(rng, 1 << n, sample or 64)))
        for bits in tables:
            phi = formula_from_table(n, bits)
            g = build_subtournament("np", phi)
            where = f"n={n} table={bits}"
            kings = [("potential-king-vs-satisfiable", 0, is_satisfiable(phi), where)]
            for suffix in ("00" + "1" * n, "11" + "0" * n, "1" * (n + 2)):
                kings.append(("side-nodes-always-kings", g.node_index(suffix), True,
                              f"{where} suffix={suffix}"))
            for x in all_bits(n):
                kings.append(("assignment-nodes-never-kings", g.node_index("10" + x), False,
                              f"{where} x={x}"))
            _check_kings(report, g, kings)


def _check_kings(report, g, kings):
    """Report each (check, node, expected 2-kingship, witness), deciding the
    kingship of all the nodes in one frontier-kernel call."""
    got = k_king_mask(g, [node for _, node, _, _ in kings], 2)
    for (name, _, want, witness), king in zip(kings, got):
        report.check(name, bool(king) == want, witness)


# -- weave-level suites ------------------------------------------------------

def _weave_common(report, spec, m, seed, other_sample):
    """Shared structure checks for a formula weave at one length.

    Returns the graph, the member ids of each formula, and the kingship
    checks on leftovers and the all-zeros string, left for the suite to
    decide together with its own.
    """
    v = validate_specifier(spec, m)
    report.check("specifier-valid", v.passed, v.summary())
    g = induced_graph(spec, m)
    names = g.labels
    infos = [spec.classify(z) for z in names]
    members = {}
    for idx, info in enumerate(infos):
        if info.cls == MEMBER:
            members.setdefault(info.phi, []).append(idx)
    # no 2-path leaves one subtournament and returns to it
    adj = g.adj
    for enc, ids in sorted(members.items()):
        mask = np.zeros(len(names), dtype=bool)
        mask[ids] = True
        receives = adj[ids, :].any(axis=0)
        sends = adj[:, ids].any(axis=1)
        bridges = receives & sends & ~mask
        report.check("no-bridge", not bridges.any(),
                     f"phi={enc} via={np.flatnonzero(bridges)[:4]}")
    # the induced subgraph on each member set equals the one-formula build
    kind = {"fe": "pi2", "taut": "conp", "sat": "np"}[spec.style]
    for enc, ids in sorted(members.items()):
        phi = spec.codec.decode(enc)
        sub = build_subtournament(kind, phi)
        ids_sorted = sorted(ids, key=lambda i: infos[i].suffix)
        block = adj[np.ix_(ids_sorted, ids_sorted)]
        report.check("subtournament-embedding",
                     bool(np.array_equal(block, sub.adj)), f"phi={enc}")
    # leftover strings are never kings
    others = [i for i, info in enumerate(infos) if info.cls == OTHER]
    rng = random.Random(seed)
    if other_sample is not None and len(others) > other_sample:
        others = rng.sample(others, other_sample)
    kings = [("leftovers-not-kings", i, False, names[i]) for i in others]
    kings.append(("all-zeros-king", 0, True, names[0]))
    return g, members, kings


def _suite_weave_pi2(report, seed, sample, m=12):
    spec = pi2_specifier()
    g, members, kings = _weave_common(report, spec, m, seed, other_sample=sample)
    smallest = min(members)
    for enc in sorted(members):
        fe = spec.codec.decode(enc)
        kings.append(("potential-king-vs-truth",
                      g.node_index(pair(Pairing.V1, enc, "0" * (fe.n + 2))),
                      eval_forall_exists(fe), f"phi={enc}"))
        kings.append(("marker-vs-lex-smallest",
                      g.node_index(pair(Pairing.V1, enc, "01" + "0" * fe.n)),
                      enc == smallest, f"phi={enc}"))
    _check_kings(report, g, kings)


def _suite_weave_conp(report, seed, sample, m):
    spec = conp_specifier()
    other_sample = None if m <= 10 else (sample or 500)
    g, members, kings = _weave_common(report, spec, m, seed, other_sample)
    smallest = min(members)
    for enc in sorted(members):
        phi = spec.codec.decode(enc)
        n = phi.num_vars
        kings.append(("potential-king-vs-tautology",
                      g.node_index(pair(Pairing.V1, enc, "0" * (n + 2))),
                      is_tautology(phi), f"phi={enc}"))
        kings.append(("marker-vs-lex-smallest",
                      g.node_index(pair(Pairing.V1, enc, "01" + "0" * n)),
                      enc == smallest, f"phi={enc}"))
        # kingship inside the weave matches kingship in the one-formula build
        sub = build_subtournament("conp", phi)
        for suffix, king in zip(sub.labels, k_king_mask(sub, range(sub.num_nodes), 2)):
            kings.append(("weave-matches-subtournament",
                          g.node_index(pair(Pairing.V1, enc, suffix)), bool(king),
                          f"phi={enc} suffix={suffix}"))
    _check_kings(report, g, kings)


def _suite_weave_np(report, seed, sample, m=9):
    spec = np_specifier()
    g, members, kings = _weave_common(report, spec, m, seed, other_sample=None)
    kings.append(("special-a-king", g.node_index("0" * (m - 1) + "1"), True, "0^{m-1}1"))
    kings.append(("special-b-king", g.node_index("1" + "0" * (m - 1)), True, "10^{m-1}"))
    for enc in sorted(members):
        phi = spec.codec.decode(enc)
        n = phi.num_vars
        kings.append(("potential-king-vs-satisfiable",
                      g.node_index(pair(Pairing.V2, enc, "0" * (n + 2))),
                      is_satisfiable(phi), f"phi={enc}"))
        kings.append(("markers-never-kings",
                      g.node_index(pair(Pairing.V2, enc, "01" + "0" * n)), False,
                      f"phi={enc}"))
        for suffix in ("00" + "1" * n, "11" + "0" * n, "1" * (n + 2)):
            kings.append(("side-nodes-always-kings", g.node_index(pair(Pairing.V2, enc, suffix)),
                          True, f"phi={enc} suffix={suffix}"))
        for x in all_bits(n):
            kings.append(("assignment-nodes-never-kings",
                          g.node_index(pair(Pairing.V2, enc, "10" + x)), False,
                          f"phi={enc} x={x}"))
    _check_kings(report, g, kings)


def _suite_weave_kkings(report, seed, sample, k=3, m=13):
    spec = kkings_specifier(k)
    v = validate_specifier(spec, m)
    report.check("specifier-valid", v.passed, v.summary())
    g = induced_graph(spec, m)
    catalog = spec.codec
    for idx in range(16):
        enc = int_to_bits(idx, 4)
        fe = catalog.entry(idx)
        truth = eval_forall_exists(fe)
        inst = reduce_to_kkings(fe, k)
        node = g.node_index(inst.node)
        report.check("reduced-node-kingship",
                     is_k_king(g, node, k) == truth, f"entry={idx}")
        report.check("reach-audit", _audit_kkings_reach(spec, g, node, enc, k),
                     f"entry={idx}")
    # the k=2 family is the pi2 family, pair for pair
    kk2 = induced_graph(kkings_specifier(2, TTFECodec()), 12)
    mismatch = int((kk2.adj != induced_graph(pi2_specifier(), 12).adj).sum()) // 2
    report.check("k2-degenerates-to-pi2", mismatch == 0, f"mismatches={mismatch}")


def _audit_kkings_reach(spec, g, node, enc, k):
    """Core nodes reached within k-2 steps must fall in the three allowed
    kinds.  Leftovers are allowed and never classified: g is the induced
    graph, whose node ids are the strings' values, and its core is listed."""
    reached = reach_within(g, node, k - 2)
    for z in spec._core(len(g.label_of(node))):
        if not reached[bits_to_int(z)]:
            continue
        info = spec.classify(z)
        if info.cls == MEMBER and info.pk and info.phi == enc:
            continue
        if info.cls == ANTENNA:
            if info.phi == enc:
                continue
            if info.phi > enc and info.level >= 1:
                continue
            if info.phi < enc and info.level >= 2:
                continue
        return False
    return True


# -- succinct-graph suites ---------------------------------------------------

def _suite_antenna(report, seed, sample, k):
    for bits in all_bits(4):
        fe = fe_from_table(1, bits)
        inst = build_gw_antenna_instance(fe, k)
        g = gw_materialize(inst.circuit)
        report.check("attached-graph-is-tournament",
                     gw_check_tournament(inst.circuit), f"table={bits}")
        report.check("designated-kingship-vs-truth",
                     is_k_king(g, int(inst.node, 2), k) == inst.expected,
                     f"table={bits}")


def _suite_onekings_gw(report, seed, sample):
    cases = [(1, bits) for bits in all_bits(2)]
    cases += [(2, bits) for bits in all_bits(4)]
    for n, bits in cases:
        phi = formula_from_table(n, bits)
        inst = reduce_taut_to_1king_gw(phi)
        g = gw_materialize(inst.circuit)
        report.check("attached-graph-is-tournament",
                     gw_check_tournament(inst.circuit), f"table={bits}")
        report.check("header-1king-vs-tautology",
                     is_k_king(g, int(inst.node, 2), 1) == inst.expected,
                     f"table={bits}")


# -- multipartite suites -----------------------------------------------------

def _suite_lemma42(report, seed, sample):
    rng = random.Random(seed)
    for _ in range(sample or 1000):
        j = rng.randint(2, 4)
        n = rng.randint(0, 1)
        jc = random_jtournament_circuit(rng, j, n)
        fast = mpt_has_1king_fast(jc)
        mpt = jt_materialize(jc)
        brute = all_k_kings(mpt.graph, 1)
        if fast is None:
            ok = not brute
        else:
            ok = brute == {jt_node_index(jc, fast)}
        report.check("fast-1king-vs-brute-force", ok,
                     f"j={j} n={n} fast={fast} brute={sorted(brute)}")
        if n >= 1:
            report.check("no-1king-with-large-parts", not brute, f"j={j} n={n}")


def _suite_lemma43(report, seed, sample, n):
    if n == 1:
        tables = list(all_bits(4))
    else:
        rng = random.Random(seed)
        tables = list(_sampled_tables(rng, 1 << (2 * n), sample or 1000))
    for bits in tables:
        fe = fe_from_table(n, bits)
        inst = build_2partite_instance(fe)
        report.check("designated-2king-vs-truth",
                     jt_k_king(inst.circuit, inst.node, 2) == inst.expected,
                     f"table={bits}")


def _suite_lemma44(report, seed, sample):
    for bits in all_bits(4):
        fe = fe_from_table(1, bits)
        inst = build_2partite_instance(fe)
        lifted, node = lift_j(inst.circuit, inst.node)
        mpt_old = jt_materialize(inst.circuit)
        mpt_new = jt_materialize(lifted)
        report.check("lifted-model-valid",
                     recognize_jpartite_direct(mpt_new.graph, 3), f"table={bits}")
        old_idx = jt_node_index(inst.circuit, inst.node)
        new_idx = jt_node_index(lifted, node)
        for k in (1, 2, 3):
            report.check("kingship-preserved",
                         is_k_king(mpt_old.graph, old_idx, k)
                         == is_k_king(mpt_new.graph, new_idx, k),
                         f"table={bits} k={k}")
        sink = jt_node_index(lifted, (3, "0" * lifted.n))
        report.check("new-part-never-kings",
                     not is_k_king(mpt_new.graph, sink, 3), f"table={bits}")


def _suite_lemma45(report, seed, sample):
    for bits in all_bits(4):
        fe = fe_from_table(1, bits)
        inst = build_2partite_instance(fe)
        lifted, z = lift_k(inst.circuit, inst.node)
        report.check("shifted-kingship-vs-truth",
                     jt_k_king(lifted, z, 3) == inst.expected, f"table={bits}")
        embedded_w = (inst.node[0], "0" + inst.node[1])
        report.check("new-node-points-at-old",
                     jt_edge(lifted, z, embedded_w), f"table={bits}")
        # the designated node is never a 1-king, so the shift is never a 2-king
        report.check("shift-is-strict",
                     not jt_k_king(lifted, z, 2), f"table={bits}")


def _suite_fourking(report, seed, sample):
    rng = random.Random(seed)
    count = sample or 1000
    for i in range(count):
        force = i % 3 == 2
        mpt = random_multipartite_tournament(rng, rng.randint(2, 4), 4,
                                             force_two_sources=force)
        g = mpt.graph
        sources = sum(1 for v in range(g.num_nodes) if not g.adj[:, v].any())
        if sources >= 2:
            report.check("two-sources-no-king",
                         not all_k_kings(g, 10), f"instance={i}")
        else:
            report.check("at-most-one-source-has-4king",
                         bool(all_k_kings(g, 4)), f"instance={i}")


# -- explicit-graph suites ---------------------------------------------------

def _suite_landau(report, seed, sample):
    for n in range(1, 6):
        for t in enumerate_tournaments(n):
            try:
                king = find_king_landau(t)
                ok = is_k_king(t, king, 2)
            except ValueError:
                ok = False
            report.check("max-outdegree-is-2king", ok, f"n={n}")


def _suite_patterns(report, seed, sample):
    for n in range(1, 5):
        for g in enumerate_all_digraphs(n):
            for j in (2, 3, 4):
                report.check("pattern-vs-direct",
                             recognize_jpartite_patterns(g, j)
                             == recognize_jpartite_direct(g, j),
                             f"n={n} j={j}")
    rng = random.Random(seed)
    for i in range(sample or 10000):
        g = random_digraph(rng, rng.randint(2, 7), p=rng.choice((0.2, 0.5, 0.8)))
        for j in (2, 3, 4):
            report.check("pattern-vs-direct-random",
                         recognize_jpartite_patterns(g, j)
                         == recognize_jpartite_direct(g, j),
                         f"i={i} j={j}")


def _suite_assoc_max(report, seed, sample):
    spec = max_specifier()
    for m in range(1, 7):
        rep = check_associativity(spec, m)
        report.check("associative", rep.associative is True, f"m={m}")
        report.check("exactly-one-king", rep.king_count == 1,
                     f"m={m} kings={rep.king_count}")
        report.check("king-is-all-ones", rep.king == "1" * m, f"m={m} king={rep.king}")
        report.check("king-beats-all-directly", bool(rep.king_universal), f"m={m}")


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------

_SUITES = {
    "claim2.2:n=1": ("one-formula 2-king vs forall-exists truth, exhaustive n=1",
                     lambda r, s, c: _suite_claim22(r, s, c, 1)),
    "claim2.2:n=2": ("one-formula 2-king vs forall-exists truth, exhaustive n=2",
                     lambda r, s, c: _suite_claim22(r, s, c, 2)),
    "claim2.2:n=3s": ("one-formula 2-king vs forall-exists truth, sampled n=3",
                      lambda r, s, c: _suite_claim22(r, s, c, 3)),
    "claim2.8": ("tautology-weave side facts, exhaustive n<=2, sampled n=3",
                 _suite_claim28),
    "claim2.11": ("satisfiability-weave side facts, exhaustive n<=2, sampled n=3",
                  _suite_claim211),
    "weave-pi2:m=12": ("full forall-exists weave at length 12",
                       lambda r, s, c: _suite_weave_pi2(r, s, c, 12)),
    "weave-conp:m=8": ("full tautology weave at length 8",
                       lambda r, s, c: _suite_weave_conp(r, s, c, 8)),
    "weave-conp:m=13": ("full tautology weave at length 13",
                        lambda r, s, c: _suite_weave_conp(r, s, c, 13)),
    "weave-np:m=9": ("full satisfiability weave at length 9",
                     lambda r, s, c: _suite_weave_np(r, s, c, 9)),
    "weave-kkings:k=3:m=13": ("3-king weave over the catalog at length 13",
                              lambda r, s, c: _suite_weave_kkings(r, s, c, 3, 13)),
    "antenna:k=2": ("chain-lift instances, k=2", lambda r, s, c: _suite_antenna(r, s, c, 2)),
    "antenna:k=3": ("chain-lift instances, k=3", lambda r, s, c: _suite_antenna(r, s, c, 3)),
    "antenna:k=4": ("chain-lift instances, k=4", lambda r, s, c: _suite_antenna(r, s, c, 4)),
    "antenna:k=5": ("chain-lift instances, k=5", lambda r, s, c: _suite_antenna(r, s, c, 5)),
    "onekings-gw": ("header 1-king vs tautology on succinct graphs",
                    _suite_onekings_gw),
    "lemma4.2": ("fast multipartite 1-king test vs brute force", _suite_lemma42),
    "lemma4.3:n=1": ("two-part 2-king instances, exhaustive n=1",
                     lambda r, s, c: _suite_lemma43(r, s, c, 1)),
    "lemma4.3:n=2": ("two-part 2-king instances, sampled n=2",
                     lambda r, s, c: _suite_lemma43(r, s, c, 2)),
    "lemma4.4": ("sink-part lift preserves kingship", _suite_lemma44),
    "lemma4.5": ("two-part shift moves k to k+1", _suite_lemma45),
    "landau:n<=5": ("every tournament on <=5 nodes has a 2-king", _suite_landau),
    "patterns-eq": ("multipartite recognizers agree", _suite_patterns),
    "fourking-mpt": ("multipartite 4-king / two-sources dichotomy", _suite_fourking),
    "assoc-max": ("associativity and unique kings of the max family",
                  _suite_assoc_max),
}


def list_suites() -> List[str]:
    return sorted(_SUITES)


def verify_suite(suite: str, seed: int = 0,
                 sample: Optional[int] = None) -> VerificationReport:
    """Run one named suite and return its report."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; see list_suites()")
    _check_sample(sample)
    description, fn = _SUITES[suite]
    report = VerificationReport(suite=suite, description=description)
    start = time.perf_counter()
    fn(report, seed, sample)
    report.elapsed = time.perf_counter() - start
    return report
