"""Tournament family specifiers and their induced graphs.

A tournament family specifier is a total, commutative, selecting function
on pairs of bit-strings; at every length m it induces a tournament on all
2**m strings (edge x -> y exactly when the specifier picks x).  Besides
the trivial ``max`` specifier, the built-ins here weave one small
formula-indexed subtournament per decodable formula into each length,
plus bookkeeping nodes, so that membership of a designated "potential
king" node in the king set tracks a formula property:

* ``pi2``:   the potential king is a 2-king iff its forall-exists formula
             is true;
* ``conp``:  ... iff its propositional formula is a tautology;
* ``np``:    ... iff its propositional formula is satisfiable (this weave
             uses the second pairing and two extra special nodes per
             length so that every node's king test stays easy);
* ``kkings:k``: the forall-exists weave with an antenna chain of k-2 nodes
             hung off every potential king, so that the chain head is a
             k-king iff the formula is true.  For k = 2 there are no
             antennas and the construction coincides with ``pi2``.

Node classification is total: every string of every length falls in
exactly one class (all-zeros, marker, member, antenna, special, or
leftover "other").  The pairwise selection rule is one ordered table,
``GUARDS``, with one row per guard: winner classes, loser classes and an
optional condition.  ``select`` takes the first row that fires on a pair;
``validate_specifier`` counts every row that fires and reports pairs with
none (gaps) or several (overlaps).  No gap and no overlap at any length is
what makes the rule well defined, commutative and selecting.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .bitstrings import all_bits, check_bits, int_to_bits
from .digraph import ExplicitDigraph, all_k_kings
from .formula import (
    CatalogCodec,
    ForallExistsFormula,
    PropFormula,
    TTFECodec,
    TTPlainCodec,
    codec_by_name,
)
from .limits import (
    DEFAULT_NODE_CAP,
    DEFAULT_PAIR_BUDGET,
    DEFAULT_TRIPLE_BUDGET,
    CapExceeded,
    check_node_cap,
)
from .pairing import Pairing, unpair

# node classes
ZERO, MARKER, MEMBER, ANTENNA, OTHER, SPECIAL_A, SPECIAL_B = range(7)

_CATEGORY_NAMES = {
    ZERO: "zero",
    MARKER: "marker",
    MEMBER: "member",
    ANTENNA: "antenna",
    OTHER: "other",
    SPECIAL_A: "special-a",
    SPECIAL_B: "special-b",
}


class _Info:
    __slots__ = ("cls", "phi", "n", "suffix", "level", "pk", "table")

    def __init__(self, cls, phi=None, n=0, suffix=None, level=0, pk=False, table=None):
        self.cls = cls
        self.phi = phi
        self.n = n
        self.suffix = suffix
        self.level = level
        self.pk = pk
        self.table = table


_ZERO_INFO = _Info(ZERO)
_OTHER_INFO = _Info(OTHER)
_SA_INFO = _Info(SPECIAL_A)
_SB_INFO = _Info(SPECIAL_B)

@dataclass(frozen=True)
class NodeClass:
    """Public view of a node classification."""

    category: str
    phi: Optional[str] = None
    suffix: Optional[str] = None
    level: Optional[int] = None


# ---------------------------------------------------------------------------
# Subtournament edge rules
# ---------------------------------------------------------------------------

def _edge_rule_lt(style, table, n, w, w2):
    """Edge w -> w2 between member suffixes, assuming w < w2."""
    if style == "fe":
        if "1" not in w:  # w == 0^{n+2}, the potential king
            return w2[:2] == "10"
        p, q = w[:2], w2[:2]
        if p == "10":
            if q == "11":
                return table[int(w2[2:] + w[2:], 2)] == "1"
            return True  # q == "10": same layer goes right
        return True  # p == q == "11"
    if style == "taut":
        if "1" not in w:
            return w2 == "10" + "0" * n
        if w == "10" + "0" * n:
            return w2[:2] == "11" and table[int(w2[2:], 2)] == "1"
        return True  # both in the "11" layer
    # style == "sat"
    certs = "00" + "1" * n
    if "1" not in w:
        return w2 == certs or w2[:2] == "10"
    if w == certs:
        return w2[:2] == "10" or w2 == "1" * (n + 2)
    if w[:2] == "10":
        if w2[:2] == "10":
            return True
        return w2 == "11" + "0" * n and table[int(w[2:], 2)] == "1"
    return False  # w == 11 0^n against 1^{n+2}


def edge_within_family(style, table, n, w, w2) -> bool:
    """Edge direction between two member suffixes of one subtournament."""
    if w < w2:
        return _edge_rule_lt(style, table, n, w, w2)
    return not _edge_rule_lt(style, table, n, w2, w)


_MEMBER_SUFFIX_BUILDERS = {
    "fe": lambda n: ["0" * (n + 2)]
    + ["10" + y for y in all_bits(n)]
    + ["11" + x for x in all_bits(n)],
    "taut": lambda n: ["0" * (n + 2), "10" + "0" * n]
    + ["11" + x for x in all_bits(n)],
    "sat": lambda n: ["0" * (n + 2), "00" + "1" * n]
    + ["10" + x for x in all_bits(n)]
    + ["11" + "0" * n, "1" * (n + 2)],
}

_KIND_TO_STYLE = {"pi2": "fe", "conp": "taut", "np": "sat", "kkings": "fe"}


def build_subtournament(kind: str, phi,
                        node_cap: int = DEFAULT_NODE_CAP) -> ExplicitDigraph:
    """The one-formula tournament, nodes labeled by their suffix strings.

    Node 0 is always the potential king (its suffix, all zeros, sorts
    first).  ``kind`` is one of pi2 / conp / np.
    """
    if kind not in ("pi2", "conp", "np"):
        raise ValueError(f"unknown subtournament kind {kind!r}")
    style = _KIND_TO_STYLE[kind]
    if style == "fe":
        if not isinstance(phi, ForallExistsFormula):
            raise TypeError("pi2 subtournaments take forall-exists formulas")
        n = phi.n
        table = phi.matrix.bits
    else:
        if not isinstance(phi, PropFormula):
            raise TypeError(f"{kind} subtournaments take propositional formulas")
        n = phi.num_vars
        table = phi.bits
    suffixes = sorted(_MEMBER_SUFFIX_BUILDERS[style](n))
    check_node_cap(len(suffixes), node_cap)
    g = ExplicitDigraph(len(suffixes), labels=suffixes)
    for i, w in enumerate(suffixes):
        for j in range(i + 1, len(suffixes)):
            if _edge_rule_lt(style, table, n, w, suffixes[j]):
                g.add_edge(i, j)
            else:
                g.add_edge(j, i)
    return g


# ---------------------------------------------------------------------------
# Selection rule of the weaves
# ---------------------------------------------------------------------------

def _chain_step(s, z, iz, w, iw):
    """z is the antenna one step closer to w's end of the same chain."""
    if iw.cls == MEMBER:
        return iw.pk and iw.phi == iz.phi and iz.level == 1
    return iw.phi == iz.phi and iw.level == iz.level - 1


# (name, winner classes, loser classes, condition or None).  A row fires on
# an ordered pair (z, w) of distinct same-length strings when z's class is a
# winner class, w's class a loser class and condition(spec, z, iz, w, iw)
# holds; z then wins.  Every row is tried in both orientations.
GUARDS = (
    # special nodes of the sat weave
    ("sa+", (SPECIAL_A,), (SPECIAL_B, OTHER, MARKER), None),
    ("sa-", (ZERO, MEMBER, ANTENNA), (SPECIAL_A,), None),
    ("sb+", (SPECIAL_B,), (ZERO, MARKER, MEMBER, ANTENNA, OTHER), None),
    # the all-zeros string
    ("g2", (ZERO,), (MARKER,), None),
    ("g3", (ZERO,), (ANTENNA, OTHER), None),
    # markers: lower formula first, and each marker beats its own members
    ("g4", (MARKER,), (MARKER,), lambda s, z, iz, w, iw: iz.phi < iw.phi),
    ("g5", (MARKER,), (MEMBER,), lambda s, z, iz, w, iw: iz.phi == iw.phi),
    ("g6", (MARKER,), (ANTENNA, OTHER), None),
    # members: the subtournament edge within a formula, else lower formula
    ("g7", (MEMBER,), (ZERO, OTHER), None),
    ("g8", (MEMBER,), (MARKER,), lambda s, z, iz, w, iw: iz.phi != iw.phi),
    ("g9", (MEMBER,), (MEMBER,), lambda s, z, iz, w, iw: iz.phi == iw.phi
     and edge_within_family(s.style, iz.table, iz.n, iz.suffix, iw.suffix)),
    ("g10", (MEMBER,), (MEMBER,), lambda s, z, iz, w, iw: iz.phi < iw.phi),
    ("g11", (MEMBER,), (ANTENNA,), lambda s, z, iz, w, iw: not iz.pk),
    ("g12", (MEMBER,), (ANTENNA,), lambda s, z, iz, w, iw: iz.pk
     and not (iw.phi == iz.phi and iw.level == 1)),
    # antennas: adjacent chain steps point toward the potential king; all
    # other antenna pairs point toward the lower level, then lower formula
    ("g13", (ANTENNA,), (MEMBER, ANTENNA), _chain_step),
    ("g14", (ANTENNA,), (ANTENNA,), lambda s, z, iz, w, iw: iz.level == iw.level
     and iz.phi < iw.phi),
    ("g15", (ANTENNA,), (ANTENNA,), lambda s, z, iz, w, iw: iz.level < iw.level
     and not (iz.phi == iw.phi and iw.level == iz.level + 1)),
    ("g16", (ANTENNA,), (OTHER,), None),
    # leftovers: lexicographically smaller wins
    ("g17", (OTHER,), (OTHER,), lambda s, z, iz, w, iw: z < w),
)


def _build_dispatch():
    """cell [cx][cy]: the rows that can fire on (x, y), in table order, as
    (name, condition, x_wins); each row appears once per orientation."""
    cells = [[[] for _ in range(7)] for _ in range(7)]
    for name, winners, losers, cond in GUARDS:
        for cz in winners:
            for cw in losers:
                cells[cz][cw].append((name, cond, True))
                cells[cw][cz].append((name, cond, False))
    return tuple(tuple(map(tuple, row)) for row in cells)


_DISPATCH = _build_dispatch()


# ---------------------------------------------------------------------------
# Specifier classes
# ---------------------------------------------------------------------------

class TournamentFamilySpecifier:
    """Total commutative selecting rule; subclasses implement select()."""

    name = "abstract"
    has_cross_length_rule = False

    def select(self, x: str, y: str) -> str:
        raise NotImplementedError


class MaxSpecifier(TournamentFamilySpecifier):
    """Selects the lexicographically larger string at equal lengths."""

    name = "max"
    has_cross_length_rule = True

    def select(self, x, y):
        check_bits(x)
        check_bits(y)
        if len(x) != len(y):
            return x if len(x) < len(y) else y
        return x if x >= y else y


class FunctionSpecifier(TournamentFamilySpecifier):
    """In-code extension point: wrap any two-argument selection rule."""

    def __init__(self, name, fn, has_cross_length_rule=False):
        self.name = name
        self._fn = fn
        self.has_cross_length_rule = has_cross_length_rule

    def select(self, x, y):
        return self._fn(x, y)


class GraphFamilySpecifier:
    """Total 0/1 edge rule inducing one simple digraph per length."""

    def __init__(self, name, edge_fn):
        self.name = name
        self._edge = edge_fn

    def edge(self, x: str, y: str) -> bool:
        return bool(self._edge(x, y))


class WeaveSpecifier(TournamentFamilySpecifier):
    """The formula-indexed built-ins (pi2 / conp / np / kkings)."""

    has_cross_length_rule = True

    def __init__(self, style, codec, k=2, name=None):
        if style not in ("fe", "taut", "sat"):
            raise ValueError(f"unknown weave style {style!r}")
        if k < 2:
            raise ValueError("k must be at least 2")
        if style != "fe" and k != 2:
            raise ValueError("antenna chains only apply to the forall-exists weave")
        want = "fe" if style == "fe" else "prop"
        if codec.kind != want:
            raise ValueError(f"style {style!r} needs a {want} codec, got {codec.name}")
        self.style = style
        self.codec = codec
        self.k = k
        self.version = Pairing.V2 if style == "sat" else Pairing.V1
        self.name = name or f"{style}:{codec.name}"
        self._cache = {}
        self._members = {}

    # -- classification ----------------------------------------------------

    def classify(self, z: str) -> _Info:
        info = self._cache.get(z)
        if info is None:
            info = self._classify(check_bits(z))
            self._cache[z] = info
        return info

    def _decode_member(self, enc):
        if enc in self._members:
            return self._members[enc]
        params = self.codec.decode_params(enc)
        if params is not None and self.style == "fe" and params[0] <= self.k - 2:
            params = None  # too few universal variables for this k
        self._members[enc] = params
        return params

    def _classify(self, z):
        m = len(z)
        if "1" not in z:
            return _ZERO_INFO
        if self.style == "sat" and m >= 2:
            if z[-1] == "1" and "1" not in z[:-1]:
                return _SA_INFO
            if z[0] == "1" and "1" not in z[1:]:
                return _SB_INFO
        res = unpair(self.version, z)
        if res is None:
            return _OTHER_INFO
        enc, w = res
        params = self._decode_member(enc)
        if params is None:
            return _OTHER_INFO
        n, table = params
        if len(w) != n + 2:
            return _OTHER_INFO
        if w == "01" + "0" * n:
            return _Info(MARKER, phi=enc, n=n, suffix=w, table=table)
        if self.style == "fe":
            if "1" not in w:
                return _Info(MEMBER, phi=enc, n=n, suffix=w, pk=True, table=table)
            if w[0] == "1":  # 10y and 11x layers
                return _Info(MEMBER, phi=enc, n=n, suffix=w, table=table)
            zeros = n + 2 - len(w.lstrip("0"))
            level = n + 2 - zeros
            if "0" not in w[zeros:] and 1 <= level <= self.k - 2:
                return _Info(ANTENNA, phi=enc, n=n, suffix=w, level=level, table=table)
            return _OTHER_INFO
        if self.style == "taut":
            if "1" not in w or w == "10" + "0" * n or w[:2] == "11":
                pk = "1" not in w
                return _Info(MEMBER, phi=enc, n=n, suffix=w, pk=pk, table=table)
            return _OTHER_INFO
        # sat
        if ("1" not in w or w[:2] == "10"
                or w == "11" + "0" * n or w == "00" + "1" * n or w == "1" * (n + 2)):
            pk = "1" not in w
            return _Info(MEMBER, phi=enc, n=n, suffix=w, pk=pk, table=table)
        return _OTHER_INFO

    # -- selection ---------------------------------------------------------

    def select(self, x, y):
        check_bits(x)
        check_bits(y)
        if len(x) != len(y):
            return x if len(x) < len(y) else y
        if x == y:
            return x
        return self._winner(x, self.classify(x), y, self.classify(y))

    def _winner(self, x, ix, y, iy):
        """The first guard row that fires on the pair decides it."""
        for _, cond, x_wins in _DISPATCH[ix.cls][iy.cls]:
            if x_wins:
                if cond is None or cond(self, x, ix, y, iy):
                    return x
            elif cond is None or cond(self, y, iy, x, ix):
                return y
        raise RuntimeError(f"no guard decides {x} against {y}")

    def _guards_firing(self, x, ix, y, iy):
        """Every guard row that fires on the pair, in table order."""
        return [name for name, cond, x_wins in _DISPATCH[ix.cls][iy.cls]
                if cond is None or (cond(self, x, ix, y, iy) if x_wins
                                    else cond(self, y, iy, x, ix))]


# ---------------------------------------------------------------------------
# Built-in factory
# ---------------------------------------------------------------------------

def max_specifier() -> MaxSpecifier:
    return MaxSpecifier()


def pi2_specifier(codec=None) -> WeaveSpecifier:
    codec = codec or TTFECodec()
    return WeaveSpecifier("fe", codec, k=2, name=f"pi2:{codec.name}")


def conp_specifier(codec=None) -> WeaveSpecifier:
    codec = codec or TTPlainCodec()
    return WeaveSpecifier("taut", codec, k=2, name=f"conp:{codec.name}")


def np_specifier(codec=None) -> WeaveSpecifier:
    codec = codec or TTPlainCodec()
    return WeaveSpecifier("sat", codec, k=2, name=f"np:{codec.name}")


def kkings_specifier(k: int, codec=None) -> WeaveSpecifier:
    if k < 2:
        raise ValueError("k must be at least 2")
    codec = codec or CatalogCodec()
    return WeaveSpecifier("fe", codec, k=k, name=f"kkings:{k}:{codec.name}")


def make_builtin_specifier(name: str) -> TournamentFamilySpecifier:
    """Build a specifier from its CLI name.

    Names: ``max``, ``pi2[:ttfe]``, ``conp[:ttplain]``, ``np[:ttplain]``,
    ``kkings:<k>[:catalog|:ttfe]``.
    """
    parts = name.split(":")
    head = parts[0]
    if head == "max":
        if len(parts) != 1:
            raise ValueError("max takes no codec")
        return max_specifier()
    if head in ("pi2", "conp", "np"):
        if len(parts) > 2:
            raise ValueError(f"bad specifier name {name!r}")
        codec = codec_by_name(parts[1]) if len(parts) == 2 else None
        return {"pi2": pi2_specifier, "conp": conp_specifier,
                "np": np_specifier}[head](codec)
    if head == "kkings":
        if len(parts) not in (2, 3):
            raise ValueError("kkings names look like kkings:<k>[:codec]")
        k = int(parts[1])
        codec = codec_by_name(parts[2]) if len(parts) == 3 else None
        return kkings_specifier(k, codec)
    raise ValueError(f"unknown specifier {name!r}")


def classify_node(spec: WeaveSpecifier, z: str) -> NodeClass:
    """Public classification of one string under a built-in weave."""
    if not isinstance(spec, WeaveSpecifier):
        raise TypeError("only the formula-weave built-ins classify nodes")
    info = spec.classify(z)
    return NodeClass(
        category=_CATEGORY_NAMES[info.cls],
        phi=info.phi,
        suffix=info.suffix,
        level=info.level if info.cls == ANTENNA else None,
    )


def select(spec: TournamentFamilySpecifier, x: str, y: str) -> str:
    return spec.select(x, y)


# ---------------------------------------------------------------------------
# Induced graphs and kingship
# ---------------------------------------------------------------------------

def induced_graph(spec, m: int, node_cap: int = DEFAULT_NODE_CAP) -> ExplicitDigraph:
    """Materialize the length-m member of the family, labels = bit-strings."""
    count = 1 << m
    check_node_cap(count, node_cap)
    names = [int_to_bits(v, m) for v in range(count)]
    if isinstance(spec, GraphFamilySpecifier):
        g = ExplicitDigraph(count, labels=names)
        edge = spec.edge
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                if i != j and edge(x, y):
                    g.add_edge(i, j)
        return g
    rows = [bytearray(count) for _ in range(count)]
    if isinstance(spec, WeaveSpecifier):
        infos = [spec.classify(z) for z in names]
        winner = spec._winner
        for i in range(count):
            x = names[i]
            ix = infos[i]
            row_i = rows[i]
            for j in range(i + 1, count):
                if winner(x, ix, names[j], infos[j]) is x:
                    row_i[j] = 1
                else:
                    rows[j][i] = 1
    else:
        sel = spec.select
        for i in range(count):
            x = names[i]
            row_i = rows[i]
            for j in range(i + 1, count):
                if sel(x, names[j]) == x:
                    row_i[j] = 1
                else:
                    rows[j][i] = 1
    adj = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(count, count)
    return ExplicitDigraph.from_adjacency(adj.astype(bool), labels=names)


def specifier_k_king(spec: TournamentFamilySpecifier, z: str, k: int,
                     node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Is z a k-king of the induced tournament at its own length?

    A breadth-first search on demand, via select calls only: step i finds
    the strings first reached in i steps, and the last step stops at the
    first string it cannot reach.
    """
    check_bits(z)
    if k < 1:
        raise ValueError("k must be at least 1")
    m = len(z)
    check_node_cap(1 << m, node_cap)
    sel = spec.select
    frontier = [z]
    unreached = [w for w in all_bits(m) if w != z]
    for steps_left in range(k, 0, -1):
        if not unreached:
            return True
        new = []
        still = []
        for w in unreached:
            for u in frontier:
                if sel(u, w) == u:
                    new.append(w)
                    break
            else:
                if steps_left == 1:
                    return False
                still.append(w)
        if not new:
            return False
        frontier = new
        unreached = still
    return True


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class SpecifierValidation:
    spec: str
    m: int
    mode: str
    pairs_checked: int = 0
    commutativity_violations: List[tuple] = field(default_factory=list)
    selection_violations: List[tuple] = field(default_factory=list)
    guard_overlaps: List[tuple] = field(default_factory=list)
    guard_gaps: List[tuple] = field(default_factory=list)
    cross_length_checked: int = 0
    cross_length_violations: List[tuple] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (self.commutativity_violations or self.selection_violations
                    or self.guard_overlaps or self.guard_gaps
                    or self.cross_length_violations)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"validate spec={self.spec} m={self.m} mode={self.mode} "
                f"pairs={self.pairs_checked} commut={len(self.commutativity_violations)} "
                f"select={len(self.selection_violations)} overlap={len(self.guard_overlaps)} "
                f"gap={len(self.guard_gaps)} crosslen={self.cross_length_checked} "
                f"crosslen_bad={len(self.cross_length_violations)} -> {status}")


_WITNESS_CAP = 20


def validate_specifier(spec, m: int, sample: Optional[int] = None, seed: int = 0,
                       pair_budget: int = DEFAULT_PAIR_BUDGET) -> SpecifierValidation:
    """Check the specifier axioms at length m, exhaustively or by sampling.

    For the weave built-ins this also audits guard uniqueness: exactly one
    guard may claim each pair.  Built-ins additionally get their fixed
    cross-length rule probed on mixed-length samples.
    """
    count = 1 << m
    mode = "exhaustive" if sample is None else f"sampled({sample},seed={seed})"
    report = SpecifierValidation(spec=spec.name, m=m, mode=mode)
    rng = random.Random(seed)

    if sample is None:
        total_pairs = count * (count - 1) // 2
        if total_pairs > pair_budget:
            raise CapExceeded(f"{total_pairs} pairs exceeds the budget {pair_budget}")
        pair_iter = combinations_with_replacement(
            [int_to_bits(v, m) for v in range(count)], 2)
    else:
        pair_iter = ((int_to_bits(rng.randrange(count), m),
                      int_to_bits(rng.randrange(count), m)) for _ in range(sample))

    if isinstance(spec, WeaveSpecifier):
        fired = spec._guards_firing
        classify = spec.classify
        for x, y in pair_iter:
            report.pairs_checked += 1
            if x == y:
                continue
            matches = fired(x, classify(x), y, classify(y))
            if len(matches) == 0 and len(report.guard_gaps) < _WITNESS_CAP:
                report.guard_gaps.append((x, y))
            elif len(matches) > 1 and len(report.guard_overlaps) < _WITNESS_CAP:
                report.guard_overlaps.append((x, y, tuple(matches)))
        # spot-check the public select against itself on both orders
        for _ in range(min(2000, count * 4)):
            _check_select(report, spec, int_to_bits(rng.randrange(count), m),
                          int_to_bits(rng.randrange(count), m))
    else:
        for x, y in pair_iter:
            report.pairs_checked += 1
            _check_select(report, spec, x, y)

    if spec.has_cross_length_rule and m >= 2:
        for _ in range(256):
            l1 = rng.randrange(1, m)
            l2 = rng.randrange(l1 + 1, m + 1)
            x = int_to_bits(rng.randrange(1 << l1), l1)
            y = int_to_bits(rng.randrange(1 << l2), l2)
            report.cross_length_checked += 1
            if spec.select(x, y) != x or spec.select(y, x) != x:
                if len(report.cross_length_violations) < _WITNESS_CAP:
                    report.cross_length_violations.append((x, y))
    return report


def _check_select(report, spec, x, y):
    """Record (x, y) if select is not commutative or not selecting on it."""
    a = spec.select(x, y)
    b = spec.select(y, x)
    if a != b and len(report.commutativity_violations) < _WITNESS_CAP:
        report.commutativity_violations.append((x, y, a, b))
    if a not in (x, y) and len(report.selection_violations) < _WITNESS_CAP:
        report.selection_violations.append((x, y, a))


# ---------------------------------------------------------------------------
# Associativity
# ---------------------------------------------------------------------------

@dataclass
class AssociativityReport:
    spec: str
    m: int
    mode: str
    triples_checked: int = 0
    witness: Optional[tuple] = None
    associative: Optional[bool] = None  # None = sampled and inconclusive
    king_count: Optional[int] = None
    king: Optional[str] = None
    king_universal: Optional[bool] = None

    def summary(self) -> str:
        out = (f"assoc spec={self.spec} m={self.m} mode={self.mode} "
               f"triples={self.triples_checked} associative={self.associative}")
        if self.witness:
            out += f" witness={self.witness[:3]}"
        if self.king_count is not None:
            out += (f" kings={self.king_count} king={self.king} "
                    f"universal={self.king_universal}")
        return out


def check_associativity(spec, m: int, sample: Optional[int] = None, seed: int = 0,
                        triple_budget: int = DEFAULT_TRIPLE_BUDGET,
                        node_cap: int = DEFAULT_NODE_CAP) -> AssociativityReport:
    """Probe f(x, f(y, z)) == f(f(x, y), z) at length m.

    Exhaustive mode proves associativity at that length and then checks the
    structural consequences: the induced tournament has exactly one 2-king
    and that king beats every string directly.  Sampled mode draws random
    triples plus a stratified set built from one representative per node
    class, which is what finds witnesses in the weave families where pure
    uniform sampling almost never leaves the leftover class.
    """
    count = 1 << m
    sel = spec.select
    report = AssociativityReport(
        spec=spec.name, m=m,
        mode="exhaustive" if sample is None else f"sampled({sample},seed={seed})")

    def triples():
        if sample is None:
            total = count ** 3
            if total > triple_budget:
                raise CapExceeded(f"{total} triples exceeds the budget {triple_budget}")
            for xv in range(count):
                x = int_to_bits(xv, m)
                for yv in range(count):
                    y = int_to_bits(yv, m)
                    for zv in range(count):
                        yield x, y, int_to_bits(zv, m)
        else:
            reps = _representatives(spec, m)
            for x in reps:
                for y in reps:
                    for z in reps:
                        yield x, y, z
            rng = random.Random(seed)
            for _ in range(sample):
                yield (int_to_bits(rng.randrange(count), m),
                       int_to_bits(rng.randrange(count), m),
                       int_to_bits(rng.randrange(count), m))

    for x, y, z in triples():
        report.triples_checked += 1
        left = sel(x, sel(y, z))
        right = sel(sel(x, y), z)
        if left != right:
            report.witness = (x, y, z, left, right)
            report.associative = False
            return report
    if sample is None:
        report.associative = True
        graph = induced_graph(spec, m, node_cap)
        kings = sorted(all_k_kings(graph, 2))
        report.king_count = len(kings)
        if len(kings) == 1:
            king = graph.label_of(kings[0])
            report.king = king
            report.king_universal = all(
                sel(y, king) == king for y in all_bits(m))
    return report


def _representatives(spec, m):
    if not isinstance(spec, WeaveSpecifier):
        return ["0" * m, "1" * m, int_to_bits((1 << m) // 3, m)]
    seen = {}
    for z in all_bits(m):
        bucket = seen.setdefault(spec.classify(z).cls, [])
        if len(bucket) < 2:
            bucket.append(z)
    return [z for bucket in seen.values() for z in bucket]
