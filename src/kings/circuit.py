"""Boolean circuits and the two succinct graph models built on them.

A circuit is a flat gate list in topological order over the gate set
{INPUT, CONST, NOT, AND, OR} with a single designated output.  The text
format is line oriented and bit exact; see :func:`parse_circuit`.

Succinct graphs come in two flavors:

* a 2n-input circuit specifies a digraph on the 2**n length-n strings,
  with an edge x -> y exactly when the circuit accepts x concatenated
  with y (self-pairs are never queried);
* a j(n+1)-input circuit specifies a balanced j-partite tournament whose
  parts each hold the 2**n length-n strings.  An edge query activates two
  of the j (n+1)-bit fields through their leading control bits; the model
  itself guarantees the result is a multipartite tournament.

The reductions build their circuits from parts on ``_Builder``: a
comparator on node ids, equality tests against fixed ids, and a mux over
id bits whose constant leaves come from a formula's table, with constants
folded and equal gates shared.  So a circuit grows with the table, not
with the square of the node count.  ``table_to_circuit`` wraps an explicit
edge function the same way, as one lookup over the queried pair; it asks
the function about every node pair, so it is capped by the query cap.
Materialization is capped by the node cap; evaluation over many queries
runs gate by gate on numpy boolean columns.  Both models materialize
through one row-blocked pair evaluator, ``_pair_matrix``: the gw model pairs
x·0 with 0·y, the jt model each part's field vectors with later parts'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .bitstrings import check_bits, int_to_bits
from .digraph import ExplicitDigraph, MultipartiteTournament, is_k_king
from .limits import check_length_cap, check_query_cap, check_strings_node_cap


class CircuitParseError(ValueError):
    pass


@dataclass(frozen=True)
class BooleanCircuit:
    """Gate list referencing earlier gates only; exactly one output."""

    num_inputs: int
    gates: Tuple[tuple, ...]
    output: int

    def __post_init__(self):
        if self.num_inputs < 0:
            raise ValueError("negative input arity")
        if not self.gates:
            raise ValueError("a circuit needs at least one gate")
        for pos, gate in enumerate(self.gates):
            op = gate[0]
            if op == "INPUT":
                if not 0 <= gate[1] < self.num_inputs:
                    raise ValueError(f"gate {pos}: input index out of range")
            elif op == "CONST":
                if gate[1] not in (0, 1):
                    raise ValueError(f"gate {pos}: const must be 0 or 1")
            elif op == "NOT":
                if not 0 <= gate[1] < pos:
                    raise ValueError(f"gate {pos}: reference must point backward")
            elif op in ("AND", "OR"):
                if not (0 <= gate[1] < pos and 0 <= gate[2] < pos):
                    raise ValueError(f"gate {pos}: reference must point backward")
            else:
                raise ValueError(f"gate {pos}: unknown op {op!r}")
        if not 0 <= self.output < len(self.gates):
            raise ValueError("output gate out of range")


def eval_circuit(c: BooleanCircuit, bits: str) -> bool:
    """Single forward pass over the gate list."""
    check_bits(bits)
    if len(bits) != c.num_inputs:
        raise ValueError(f"expected {c.num_inputs} input bits, got {len(bits)}")
    values: List[bool] = []
    for gate in c.gates:
        op = gate[0]
        if op == "INPUT":
            v = bits[gate[1]] == "1"
        elif op == "CONST":
            v = bool(gate[1])
        elif op == "NOT":
            v = not values[gate[1]]
        elif op == "AND":
            v = values[gate[1]] and values[gate[2]]
        else:
            v = values[gate[1]] or values[gate[2]]
        values.append(v)
    return values[c.output]


def eval_circuit_batch(c: BooleanCircuit, inputs: np.ndarray) -> np.ndarray:
    """Evaluate on a (queries, num_inputs) boolean matrix, one pass per gate.

    Gate values are freed as soon as no later gate references them, so peak
    memory stays proportional to the live frontier rather than gate count.
    """
    inputs = np.asarray(inputs, dtype=bool)
    if inputs.ndim != 2 or inputs.shape[1] != c.num_inputs:
        raise ValueError("inputs must be a (queries, num_inputs) matrix")
    last_use = list(range(len(c.gates)))
    for pos, gate in enumerate(c.gates):
        if gate[0] in ("NOT", "AND", "OR"):
            for ref in gate[1:]:
                last_use[ref] = pos
    last_use[c.output] = len(c.gates)
    q = inputs.shape[0]
    values = {}
    for pos, gate in enumerate(c.gates):
        op = gate[0]
        if op == "INPUT":
            v = inputs[:, gate[1]]
        elif op == "CONST":
            v = np.full(q, bool(gate[1]))
        elif op == "NOT":
            v = ~values[gate[1]]
        elif op == "AND":
            v = values[gate[1]] & values[gate[2]]
        else:
            v = values[gate[1]] | values[gate[2]]
        values[pos] = v
        if op in ("NOT", "AND", "OR"):
            for ref in set(gate[1:]):
                if last_use[ref] == pos:
                    del values[ref]
    return values[c.output]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_circuit(text: str) -> BooleanCircuit:
    """Parse the line format: ``inputs N``, ``g<k> OP ...`` lines, ``output g<k>``.

    Gate indices must be strictly increasing; ``#`` starts a comment.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise CircuitParseError("empty circuit text")
    lineno, first = lines[0]
    parts = first.split()
    if len(parts) != 2 or parts[0] != "inputs":
        raise CircuitParseError(f"line {lineno}: expected 'inputs <N>'")
    num_inputs = int(parts[1])

    defined_anywhere = set()
    for _, line in lines[1:]:
        toks = line.split()
        if toks and toks[0].startswith("g") and len(toks) >= 2 and toks[1] in (
                "INPUT", "CONST", "NOT", "AND", "OR"):
            defined_anywhere.add(toks[0])

    gates = []
    name_to_pos = {}
    output = None
    last_index = -1

    def resolve(lineno, name):
        if name in name_to_pos:
            return name_to_pos[name]
        if name in defined_anywhere:
            raise CircuitParseError(f"line {lineno}: forward reference {name}")
        raise CircuitParseError(f"line {lineno}: undefined gate {name}")

    for lineno, line in lines[1:]:
        toks = line.split()
        if toks[0] == "output":
            if len(toks) != 2:
                raise CircuitParseError(f"line {lineno}: bad output line")
            output = resolve(lineno, toks[1])
            continue
        if output is not None:
            raise CircuitParseError(f"line {lineno}: text after the output line")
        name = toks[0]
        if not name.startswith("g") or not name[1:].isdigit():
            raise CircuitParseError(f"line {lineno}: bad gate name {name!r}")
        index = int(name[1:])
        if index <= last_index:
            raise CircuitParseError(f"line {lineno}: gate indices must increase")
        last_index = index
        op = toks[1] if len(toks) > 1 else ""
        if op == "INPUT" and len(toks) == 3:
            gate = ("INPUT", int(toks[2]))
        elif op == "CONST" and len(toks) == 3 and toks[2] in ("0", "1"):
            gate = ("CONST", int(toks[2]))
        elif op == "NOT" and len(toks) == 3:
            gate = ("NOT", resolve(lineno, toks[2]))
        elif op in ("AND", "OR") and len(toks) == 4:
            gate = (op, resolve(lineno, toks[2]), resolve(lineno, toks[3]))
        else:
            raise CircuitParseError(f"line {lineno}: bad gate line {line!r}")
        name_to_pos[name] = len(gates)
        gates.append(gate)
    if output is None:
        raise CircuitParseError("missing output line")
    try:
        return BooleanCircuit(num_inputs, tuple(gates), output)
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


def format_circuit(c: BooleanCircuit) -> str:
    lines = [f"inputs {c.num_inputs}"]
    for pos, gate in enumerate(c.gates):
        op = gate[0]
        if op in ("INPUT", "CONST"):
            lines.append(f"g{pos} {op} {gate[1]}")
        elif op == "NOT":
            lines.append(f"g{pos} NOT g{gate[1]}")
        else:
            lines.append(f"g{pos} {op} g{gate[1]} g{gate[2]}")
    lines.append(f"output g{c.output}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Circuit builders
# ---------------------------------------------------------------------------

class _Builder:
    """A gate list under construction.

    ``add`` appends a gate as given; ``inputs`` uses it.  The parts
    (``const`` onward) fold constants and hash gates, so a gate equal to one
    already built is reused and a block of equal leaves collapses to the
    leaf.  Node ids are bit lists, most significant bit first.
    """

    def __init__(self, num_inputs):
        self.num_inputs = num_inputs
        self.gates = []
        self._known = {}

    def add(self, gate):
        self.gates.append(gate)
        return len(self.gates) - 1

    def _hashed(self, gate):
        pos = self._known.get(gate)
        if pos is None:
            pos = self._known[gate] = self.add(gate)
        return pos

    def _value(self, g):
        gate = self.gates[g]
        return gate[1] if gate[0] == "CONST" else None

    def const(self, value):
        return self._hashed(("CONST", int(bool(value))))

    def not_(self, a):
        gate = self.gates[a]
        if gate[0] == "CONST":
            return self.const(not gate[1])
        if gate[0] == "NOT":
            return gate[1]
        return self._hashed(("NOT", a))

    def _complements(self, a, b):
        return self.gates[a] == ("NOT", b) or self.gates[b] == ("NOT", a)

    def and_(self, a, b):
        va, vb = self._value(a), self._value(b)
        if va == 0 or vb == 0 or self._complements(a, b):
            return self.const(0)
        if va == 1 or a == b:
            return b
        if vb == 1:
            return a
        return self._hashed(("AND", min(a, b), max(a, b)))

    def or_(self, a, b):
        va, vb = self._value(a), self._value(b)
        if va == 1 or vb == 1 or self._complements(a, b):
            return self.const(1)
        if va == 0 or a == b:
            return b
        if vb == 0:
            return a
        return self._hashed(("OR", min(a, b), max(a, b)))

    def choose(self, s, a, b):
        """``a`` where ``s`` holds, else ``b``."""
        va, vb = self._value(a), self._value(b)
        if a == b:
            return a
        if va is not None and vb is not None:
            return s if va else self.not_(s)
        if va is not None:
            return self.or_(s, b) if va else self.and_(self.not_(s), b)
        if vb is not None:
            return self.or_(self.not_(s), a) if vb else self.and_(s, a)
        return self.or_(self.and_(s, a), self.and_(self.not_(s), b))

    def xor(self, a, b):
        return self.choose(a, self.not_(b), b)

    def mux(self, sel, leaves):
        """The leaf indexed by the select bits; leaves past the end read 0."""
        if not leaves:
            return self.const(0)
        if not sel:
            return leaves[0]
        half = 1 << (len(sel) - 1)
        return self.choose(sel[0], self.mux(sel[1:], leaves[half:]),
                           self.mux(sel[1:], leaves[:half]))

    def lookup(self, sel, bits):
        """A mux whose leaves are the constants ``bits``."""
        return self.mux(sel, [self.const(v) for v in bits])

    def number(self, value, width):
        """The fixed id ``value`` as ``width`` constant bits."""
        if not 0 <= value < 1 << width:
            raise ValueError(f"id {value} does not fit in {width} bits")
        return [self.const((value >> (width - 1 - i)) & 1) for i in range(width)]

    def eq_const(self, bits, value):
        """The id ``bits`` equals the fixed id ``value``."""
        width = len(bits)
        if value >> width:
            return self.const(0)
        out = self.const(1)
        for i, g in enumerate(bits):
            want = (value >> (width - 1 - i)) & 1
            out = self.and_(out, g if want else self.not_(g))
        return out

    def lt(self, xs, ys):
        """The id ``xs`` is below the id ``ys``; either may hold constants."""
        out = self.const(0)
        for x, y in zip(reversed(xs), reversed(ys)):
            nx = self.not_(x)
            # borrow of x - y: majority(not x, y, borrow from the lower bits)
            out = self.or_(self.and_(nx, y), self.and_(out, self.or_(nx, y)))
        return out

    def successor(self, xs, ys):
        """The id ``ys`` is ``xs + 1`` (same width, no wraparound)."""
        out = self.const(0)
        trail = self.const(1)  # xs ends in ones and ys in zeros below bit i
        for x, y in zip(reversed(xs), reversed(ys)):
            out = self.and_(self.choose(x, y, self.not_(y)), out)
            out = self.or_(out, self.and_(trail, self.and_(self.not_(x), y)))
            trail = self.and_(trail, self.and_(x, self.not_(y)))
        return out

    def inputs(self):
        return [self.add(("INPUT", i)) for i in range(self.num_inputs)]

    def finish(self, output):
        return BooleanCircuit(self.num_inputs, tuple(self.gates), output)


# ---------------------------------------------------------------------------
# Succinct graphs on the length-n strings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuccinctGraph:
    """A 2n-input circuit specifying a digraph on the length-n strings."""

    n: int
    circuit: BooleanCircuit

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.circuit.num_inputs != 2 * self.n:
            raise ValueError("circuit arity must be 2n")


def table_to_circuit(n: int, edge_fn: Callable[[str, str], bool]) -> SuccinctGraph:
    """Wrap an explicit edge table as a succinct graph: one lookup over x + y."""
    check_query_cap((1 << n) * ((1 << n) - 1))
    nodes = [int_to_bits(v, n) for v in range(1 << n)]
    table = [x != y and bool(edge_fn(x, y)) for x in nodes for y in nodes]
    b = _Builder(2 * n)
    return SuccinctGraph(n, b.finish(b.lookup(b.inputs(), table)))


def gw_edge(sg: SuccinctGraph, x: str, y: str) -> bool:
    check_bits(x)
    check_bits(y)
    if len(x) != sg.n or len(y) != sg.n:
        raise ValueError(f"node strings must have length {sg.n}")
    if x == y:
        raise ValueError("self-pairs are never queried")
    return eval_circuit(sg.circuit, x + y)


def _node_bit_matrix(count: int, width: int) -> np.ndarray:
    if width == 0:
        return np.zeros((count, 0), dtype=bool)
    shifts = np.arange(width - 1, -1, -1)
    return ((np.arange(count)[:, None] >> shifts) & 1).astype(bool)


# Query bytes _pair_matrix holds at once (at least one row of queries).
_QUERY_BYTES = 1 << 22


def _pair_matrix(c: BooleanCircuit, left: np.ndarray, right: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Entry (a, b) is the circuit on the query ``left[a] | right[b]``,
    asked a block of rows at a time within ``_QUERY_BYTES`` of queries;
    written into out if given."""
    if out is None:
        out = np.empty((len(left), len(right)), dtype=bool)
    rows = max(1, _QUERY_BYTES // right.size)
    for start in range(0, len(left), rows):
        block = left[start:start + rows, None, :] | right[None, :, :]
        res = eval_circuit_batch(c, block.reshape(-1, c.num_inputs))
        out[start:start + len(block)] = res.reshape(len(block), len(right))
    return out


def gw_materialize(sg: SuccinctGraph) -> ExplicitDigraph:
    """The explicit digraph on 2**n nodes labeled by their bit-strings."""
    check_strings_node_cap(sg.n)
    bits = _node_bit_matrix(1 << sg.n, sg.n)
    zeros = np.zeros_like(bits)
    edges = _pair_matrix(sg.circuit, np.hstack([bits, zeros]), np.hstack([zeros, bits]))
    np.fill_diagonal(edges, False)
    labels = [int_to_bits(i, sg.n) for i in range(1 << sg.n)]
    return ExplicitDigraph._adopt(edges, labels)


def gw_k_king(sg: SuccinctGraph, x: str, k: int) -> bool:
    check_bits(x)
    if len(x) != sg.n:
        raise ValueError(f"node strings must have length {sg.n}")
    g = gw_materialize(sg)
    return is_k_king(g, int(x, 2), k)


# ---------------------------------------------------------------------------
# Multipartite tournament circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JTournamentCircuit:
    """A j(n+1)-input circuit specifying a balanced j-partite tournament."""

    j: int
    n: int
    circuit: BooleanCircuit

    def __post_init__(self):
        if self.j < 2:
            raise ValueError("j must be at least 2")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        check_length_cap(self.n)  # payloads are n-bit strings
        if self.circuit.num_inputs != self.j * (self.n + 1):
            raise ValueError("circuit arity must be j(n+1)")

    def part_size(self) -> int:
        return 1 << self.n


def jt_query(j: int, n: int, i: int, s: str, i2: int, s2: str) -> str:
    """The canonical input activating fields i < i2 with payloads s, s2."""
    if not 1 <= i < i2 <= j:
        raise ValueError("canonical queries need 1 <= i < i2 <= j")
    f = n + 1
    return ("0" * ((i - 1) * f) + "1" + s + "0" * ((i2 - i - 1) * f)
            + "1" + s2 + "0" * ((j - i2) * f))


def _check_jt_node(jc, node):
    i, s = node
    if not 1 <= i <= jc.j:
        raise ValueError(f"part index {i} out of range 1..{jc.j}")
    check_bits(s)
    if len(s) != jc.n:
        raise ValueError(f"node strings must have length {jc.n}")
    return i, s


def jt_edge(jc: JTournamentCircuit, a: Tuple[int, str], b: Tuple[int, str]) -> bool:
    """True iff the edge goes a -> b.  Same-part queries are an error."""
    i, s = _check_jt_node(jc, a)
    i2, s2 = _check_jt_node(jc, b)
    if i == i2:
        raise ValueError("nodes in the same part have no edge")
    if i < i2:
        return eval_circuit(jc.circuit, jt_query(jc.j, jc.n, i, s, i2, s2))
    return not eval_circuit(jc.circuit, jt_query(jc.j, jc.n, i2, s2, i, s))


def jt_node_index(jc: JTournamentCircuit, node: Tuple[int, str]) -> int:
    i, s = _check_jt_node(jc, node)
    return (i - 1) * jc.part_size() + (int(s, 2) if s else 0)


def jt_materialize(jc: JTournamentCircuit) -> MultipartiteTournament:
    """Explicit multipartite tournament; parts listed in field order.  A
    node's field vector (control bit and payload in its part's field) ORed
    with one in a later part is their ``jt_query``."""
    check_strings_node_cap(jc.n, jc.j)
    size = jc.part_size()
    total = jc.j * size
    fields = np.zeros((jc.j, size, jc.j, jc.n + 1), dtype=bool)
    part = np.arange(jc.j)
    fields[part, :, part, 0] = True
    fields[part, :, part, 1:] = _node_bit_matrix(size, jc.n)
    fields = fields.reshape(total, -1)
    adj = np.zeros((total, total), dtype=bool)
    for start in range(0, total - size, size):
        rows = slice(start, start + size)
        later = slice(start + size, total)
        res = _pair_matrix(jc.circuit, fields[rows], fields[later], out=adj[rows, later])
        np.logical_not(res.T, out=adj[later, rows])
    labels = [f"{i}:{int_to_bits(v, jc.n)}" for i in range(1, jc.j + 1)
              for v in range(size)]
    parts = [list(range((i - 1) * size, i * size)) for i in range(1, jc.j + 1)]
    return MultipartiteTournament(ExplicitDigraph._adopt(adj, labels), parts)


def jt_k_king(jc: JTournamentCircuit, node: Tuple[int, str], k: int) -> bool:
    mpt = jt_materialize(jc)
    return is_k_king(mpt.graph, jt_node_index(jc, node), k)


def mpt_has_1king_fast(jc: JTournamentCircuit) -> Optional[Tuple[int, str]]:
    """Polynomial-time 1-king search: only singleton parts can have one.

    With parts of size >= 2 no node reaches its part-mates in one step, so
    the answer is immediately "none"; with singleton parts the j nodes are
    checked by direct edge queries.
    """
    if jc.n >= 1:
        return None
    for i in range(1, jc.j + 1):
        if all(jt_edge(jc, (i, ""), (i2, "")) for i2 in range(1, jc.j + 1) if i2 != i):
            return (i, "")
    return None

