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

Core/leftover split.  Almost every string is a leftover (class OTHER; 177
of 8192 at kkings:3 m=13 are not); the others form the length's core.  The
core is listed by construction, not found by classifying every string: it
is the all-zeros string, the specials, and ``pair(enc, w)`` for the one
encoding length that fits m, so its cost is its size, and a core past the
node cap is refused before any of it is formed.  The class dispatch built
from ``GUARDS`` is checked once, at import: every cell with one OTHER side
must hold exactly one unconditional row, won by the other class, and the
OTHER x OTHER cell must hold only the declared strict order
``_smaller_wins``, which decides each leftover pair exactly once by
trichotomy.  So every core string beats every leftover, and leftovers beat
the leftovers above them.  ``induced_graph`` starts from the strict upper
triangle, makes every core row True and every core column False and copies
in the core tournament, the one part that goes through the guards; the
exhaustive guard audit in ``validate_specifier`` walks only core x core
pairs.  ``specifier_k_king`` answers on the core tournament alone: a core
string reaches every leftover in one step and no leftover leads back into
the core, while a leftover never beats the all-zeros string, which is core
at every length.  So a weave's ``spec king`` on a core string is bounded by
its core, not by the 2**m strings.

Block rule.  A second import-time check, ``_check_formula_reads``, runs
every condition of a cell with no leftover side on probe ``_Info`` objects
whose formula answers only ``==``, ``!=`` and order comparisons against
another formula, and whose truth table records reads; a condition that
asks the formula anything else, reads a string, or reads a table when the
two formulas differ is refused.  So a core pair's winner depends only on
each side's key (class, n, suffix, level, pk), on whether the formulas are
lower, higher or the same (or one side has none), and inside one formula
on that formula's table.  ``_core_tournament`` makes one ``_winner`` call
per (key, key, order) cell on a representative pair, asks each
same-formula cell under probe tables for the one table entry it turns on,
and fills the core from the cells and the stacked tables.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, islice, product
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from .bitstrings import all_bits, bits_to_int, check_bits, int_to_bits
from .digraph import ExplicitDigraph, all_k_kings, is_k_king
from .formula import (
    CatalogCodec,
    ForallExistsFormula,
    PropFormula,
    TTFECodec,
    TTPlainCodec,
    codec_by_name,
)
from .limits import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_TRIPLE_BUDGET,
    DEFAULT_VAR_CAP,
    CapExceeded,
    check_length_cap,
    check_node_cap,
    check_strings_node_cap,
)
from .pairing import Pairing, pair, unpair

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


@lru_cache(maxsize=None)
def _member_suffixes(style: str, n: int) -> frozenset:
    return frozenset(_MEMBER_SUFFIX_BUILDERS[style](n))


_KIND_TO_STYLE = {"pi2": "fe", "conp": "taut", "np": "sat", "kkings": "fe"}


class _TableProbe:
    """A stand-in truth table: every entry reads ``answer``; reads are recorded.

    It supports indexing alone, so a rule can consult it in no other way.
    """

    __slots__ = ("answer", "reads")

    def __init__(self, answer):
        self.answer = answer
        self.reads = set()

    def __getitem__(self, index):
        self.reads.add(index)
        return self.answer


def _table_read(decide):
    """How ``decide(table) -> bool`` depends on a truth table.

    Returns ``(answer, entry)``: ``entry`` is None when no table entry
    changes the answer, else the one entry that does, and ``answer`` is the
    decision when that entry reads "1".  Decide is asked under an all-ones
    table that records the indices read.  If it reads none, its answer is
    fixed, since it reads none under any table; if it reads one, it is
    asked again under an all-zeros table, and equal answers are fixed.
    Returns None when decide reads two entries.
    """
    ones = _TableProbe("1")
    answer = decide(ones)
    if len(ones.reads) != 1:
        return None if ones.reads else (answer, None)
    zeros = _TableProbe("0")
    if_zeros = decide(zeros)
    read = ones.reads | zeros.reads
    if len(read) > 1:
        return None
    return answer, (None if if_zeros == answer else read.pop())


@lru_cache(maxsize=16)
def _subtournament_template(style: str, n: int):
    """The (style, n) tournament with its table-dependent edges left open.

    Returns ``(suffixes, fixed, rows, cols, at)``: the sorted suffixes, a
    read-only bool matrix of the edges no table entry decides, and ``intp``
    arrays such that the edge ``rows[i] -> cols[i]`` exists iff
    ``table[at[i]] == "1"`` and is reversed otherwise.  Each pair asks
    ``_edge_rule_lt`` through ``_table_read``; a pair that reads two
    entries, or that a "1" turns from an edge into a non-edge, is refused.
    """
    suffixes = tuple(sorted(_MEMBER_SUFFIX_BUILDERS[style](n)))
    count = len(suffixes)
    check_node_cap(count)
    fixed = np.zeros((count, count), dtype=bool)
    rows, cols, at = [], [], []
    for i, w in enumerate(suffixes):
        for j in range(i + 1, count):
            rule = _table_read(lambda table: _edge_rule_lt(style, table, n, w, suffixes[j]))
            if rule is None or rule[1] is not None and not rule[0]:
                raise RuntimeError(f"{style} edge {w} -> {suffixes[j]} at n={n} "
                                   "is not one table entry")
            edge, entry = rule
            if entry is None:
                fixed[i, j], fixed[j, i] = edge, not edge
            else:
                rows.append(i)
                cols.append(j)
                at.append(entry)
    rows, cols, at = (np.array(a, dtype=np.intp) for a in (rows, cols, at))
    for array in (fixed, rows, cols, at):
        array.flags.writeable = False
    return suffixes, fixed, rows, cols, at


def build_subtournament(kind: str, phi) -> ExplicitDigraph:
    """The one-formula tournament, nodes labeled by their suffix strings.

    Node 0 is always the potential king (its suffix, all zeros, sorts
    first).  ``kind`` is one of pi2 / conp / np.  The edges that no table
    entry decides come from a template cached per (style, n) and derived
    from ``_edge_rule_lt`` (see ``_subtournament_template``); the rest are
    filled from the formula's table in one indexed write.
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
    suffixes, fixed, rows, cols, at = _subtournament_template(style, n)
    won = np.frombuffer(table.encode("ascii"), dtype=np.uint8)[at] == ord("1")
    adj = fixed.copy()
    adj[rows, cols] = won
    adj[cols, rows] = ~won
    return ExplicitDigraph.from_adjacency(adj, labels=suffixes)


# ---------------------------------------------------------------------------
# Selection rule of the weaves
# ---------------------------------------------------------------------------

def _chain_step(s, z, iz, w, iw):
    """z is the antenna one step closer to w's end of the same chain."""
    if iw.cls == MEMBER:
        return iw.pk and iw.phi == iz.phi and iz.level == 1
    return iw.phi == iz.phi and iw.level == iz.level - 1


def _smaller_wins(s, z, iz, w, iw):
    """A declared strict order: the dispatch check trusts it by identity."""
    return z < w


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
    ("g17", (OTHER,), (OTHER,), _smaller_wins),
)


class _FormulaProbe:
    """A stand-in formula of a given rank for the guard gate.

    It compares with another probe by rank (==, !=, <, <=, >, >=), and
    answers == and != against None, the formula of a formula-free class.
    Every other use raises TypeError.
    """

    __slots__ = ("rank",)

    def __init__(self, rank):
        self.rank = rank

    def _rank_of(self, other):
        if not isinstance(other, _FormulaProbe):
            raise TypeError(f"a formula compared with {type(other).__name__}")
        return other.rank

    def __eq__(self, other):
        return other is not None and self.rank == self._rank_of(other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        return self.rank < self._rank_of(other)

    def __le__(self, other):
        return self.rank <= self._rank_of(other)

    def __gt__(self, other):
        return self.rank > self._rank_of(other)

    def __ge__(self, other):
        return self.rank >= self._rank_of(other)

    def _refuse(self, *args):
        raise TypeError("a formula may only be compared with another")

    __getattr__ = __getitem__ = __len__ = __iter__ = __contains__ = _refuse
    __bool__ = __hash__ = __str__ = __repr__ = __format__ = _refuse


_FORMULA_FREE = (ZERO, SPECIAL_A, SPECIAL_B)


def _probe_infos(style, cls, rank, table):
    """Stand-in ``_Info`` objects of class cls, one per key a one-variable
    formula gives the class in the style's weave (antennas at levels 1 and
    2), with formula ``_FormulaProbe(rank)`` and the given truth table."""
    if cls in _FORMULA_FREE:
        return [_Info(cls)]
    phi = _FormulaProbe(rank)
    if cls == MARKER:
        return [_Info(MARKER, phi, 1, "010", table=table)]
    if cls == MEMBER:
        return [_Info(MEMBER, phi, 1, w, pk="1" not in w, table=table)
                for w in _MEMBER_SUFFIX_BUILDERS[style](1)]
    return [_Info(ANTENNA, phi, 1, "0" * (3 - level) + "1" * level, level=level, table=table)
            for level in (1, 2)]


def _check_formula_reads(guards):
    """Refuse (ValueError) a guard table that tells core strings apart by
    more than their keys and the order of their formulas.

    A key is (class, n, suffix, level, pk).  Every condition of a cell with
    no leftover side runs, in each weave style, on probe ``_Info`` pairs
    whose formulas are ``_FormulaProbe`` objects of lower, equal and higher
    rank, whose truth tables are ``_TableProbe`` objects shared only by
    equal formulas, and whose strings are None.  A condition that uses a
    formula other than by comparing it with another, reads a string, or
    reads a truth table when the two formulas differ is refused.  Passing
    is what lets ``_core_tournament`` decide a whole class block by one
    representative pair.
    """
    for style in _MEMBER_SUFFIX_BUILDERS:
        spec = SimpleNamespace(style=style)
        for name, winners, losers, cond in guards:
            if cond is None:
                continue
            for cz, cw in product(winners, losers):
                if OTHER in (cz, cw):
                    continue  # the core holds no leftover
                both_formulas = cz not in _FORMULA_FREE and cw not in _FORMULA_FREE
                for rank in (-1, 0, 1):
                    tz, tw = _TableProbe("1"), _TableProbe("1")
                    if rank == 0:
                        tw = tz
                    for iz, iw in product(_probe_infos(style, cz, 0, tz),
                                          _probe_infos(style, cw, rank, tw)):
                        if rank == 0 and (iz.cls, iz.suffix) == (iw.cls, iw.suffix):
                            continue  # one string, not a pair
                        try:
                            cond(spec, None, iz, None, iw)
                        except Exception as exc:
                            raise ValueError(
                                f"guard {name} reads more of {_CATEGORY_NAMES[cz]} x "
                                f"{_CATEGORY_NAMES[cw]} than keys and formula order: "
                                f"{exc}") from exc
                    if (tz.reads or tw.reads) and not (rank == 0 and both_formulas):
                        raise ValueError(f"guard {name} reads a truth table of "
                                         f"{_CATEGORY_NAMES[cz]} x {_CATEGORY_NAMES[cw]} "
                                         "across two formulas")


def _build_dispatch(guards):
    """The class dispatch of a guard table.

    cell [cx][cy]: the rows that can fire on (x, y), in table order, as
    (name, condition, x_wins); each row appears once per orientation.
    Raises ValueError if ``_check_formula_reads`` refuses the table, and
    unless every cell with one OTHER side holds exactly one unconditional
    row, won by the other class, and the OTHER x OTHER cell holds only the
    two orientations of one ``_smaller_wins`` row (any row there has both).
    """
    _check_formula_reads(guards)
    cells = [[[] for _ in range(7)] for _ in range(7)]
    for name, winners, losers, cond in guards:
        for cz in winners:
            for cw in losers:
                cells[cz][cw].append((name, cond, True))
                cells[cw][cz].append((name, cond, False))
    dispatch = tuple(tuple(map(tuple, row)) for row in cells)
    for c in range(7):
        cell = dispatch[c][OTHER]
        if c != OTHER and (len(cell) != 1 or cell[0][1:] != (None, True)):
            raise ValueError(f"cell {_CATEGORY_NAMES[c]} x other needs exactly one "
                             f"unconditional row that {_CATEGORY_NAMES[c]} wins, "
                             f"has {[row[0] for row in cell]}")
    cell = dispatch[OTHER][OTHER]
    if len(cell) != 2 or any(cond is not _smaller_wins for _, cond, _ in cell):
        raise ValueError("cell other x other needs exactly one _smaller_wins row, "
                         f"has {[row[0] for row in cell]}")
    return dispatch


_DISPATCH = _build_dispatch(GUARDS)


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
        self._cores = {}
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
        if params is not None and not self._indexes_members(params[0]):
            params = None
        self._members[enc] = params
        return params

    def _indexes_members(self, n):
        """Do n-variable formulas index members?  The forall-exists weave
        needs more than k - 2 universal variables to hang its antennas."""
        return self.style != "fe" or n > self.k - 2

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
        if w in _member_suffixes(self.style, n):
            return _Info(MEMBER, phi=enc, n=n, suffix=w, pk="1" not in w, table=table)
        if self.style == "fe":
            level = len(w.lstrip("0"))  # antenna suffixes are 0^(n+2-level) 1^level
            if "0" not in w[n + 2 - level:] and 1 <= level <= self.k - 2:
                return _Info(ANTENNA, phi=enc, n=n, suffix=w, level=level, table=table)
        return _OTHER_INFO

    # -- selection ---------------------------------------------------------

    def select(self, x, y):
        if isinstance(x, str) and isinstance(y, str) and len(x) == len(y):
            ix = self.classify(x)  # classify validates the strings
            iy = self.classify(y)
            return x if x == y else self._winner(x, ix, y, iy)
        check_bits(x)
        check_bits(y)
        return x if len(x) < len(y) else y

    def _winner(self, x, ix, y, iy):
        """The first guard row that fires on the pair decides it."""
        for _, cond, x_wins in _DISPATCH[ix.cls][iy.cls]:
            if x_wins:
                if cond is None or cond(self, x, ix, y, iy):
                    return x
            elif cond is None or cond(self, y, iy, x, ix):
                return y
        raise RuntimeError(f"no guard decides {x} against {y}")

    def _core(self, m):
        """The length-m core strings in string order, listed by construction.

        The core is the all-zeros string, the two specials of the sat weave,
        and ``pair(enc, w)`` for every encoding enc of an n-variable formula
        and every marker, member or antenna suffix w of width n + 2, where
        2|enc| + 1 + n + 2 == m (V1) or 2|enc| + 2 + n + 2 == m (V2).  Each
        codec accepts every encoding of the length it gives for n, so the
        count is known before any string is formed; past the node cap it
        raises CapExceeded.
        """
        sep = 1 if self.version is Pairing.V1 else 2
        groups = []  # (encoding length, suffixes) of each n that fits m
        for n in range(1, DEFAULT_VAR_CAP + 1):
            length = self.codec.encoding_length_for(n)
            if length is None or 2 * length + sep + n + 2 != m \
                    or not self._indexes_members(n):
                continue
            suffixes = {"01" + "0" * n} | _member_suffixes(self.style, n)
            if self.style == "fe":
                suffixes |= {"0" * (n + 2 - level) + "1" * level
                             for level in range(1, self.k - 1)}
            groups.append((length, suffixes))
        specials = 2 if self.style == "sat" and m >= 2 else 0
        check_node_cap(1 + specials + sum(len(w) << length for length, w in groups))
        core = ["0" * m] + ["0" * (m - 1) + "1", "1" + "0" * (m - 1)][:specials]
        for length, suffixes in groups:
            for v in range(1 << length):
                enc = int_to_bits(v, length)
                if self._decode_member(enc) is not None:
                    head = pair(self.version, enc, "")
                    core += [head + w for w in suffixes]
        return sorted(core)

    def _core_tournament(self, m):
        """The guards' tournament on the length-m core, labeled by the core
        strings in string order; built once per length, by class blocks.

        ``_check_formula_reads`` lets a guard see a core string only
        through its key (class, n, suffix, level, pk), the order of the two
        formulas and, inside one formula, that formula's truth table.  So a
        pair's winner is its (key, key, order) cell's, where the order is
        lower, or one side formula-free, or the same formula.  One
        ``_winner`` call on a representative pair decides each cell of
        different formulas.  A same-formula cell is asked once on the first
        formula that has it, under probe tables (``_table_read``): most
        read no entry, and the rest are filled from the one entry they
        read, gathered from the stacked tables of all the formulas.  One
        pass over the key and rank arrays fills everything else.
        """
        core = self._cores.get(m)
        if core is None:
            names = self._core(m)
            infos = [self.classify(z) for z in names]
            for z, info in zip(names, infos):
                if info.cls == OTHER:
                    raise RuntimeError(f"listed core string {z} is a leftover")
            adj = self._core_adjacency(names, infos)
            core = self._cores[m] = ExplicitDigraph.from_adjacency(adj, labels=names)
        return core

    def _core_adjacency(self, names, infos):
        """The adjacency of ``_core_tournament``, by class blocks."""
        keys = {}
        key = [keys.setdefault((i.cls, i.n, i.suffix, i.level, i.pk), len(keys))
               for i in infos]
        # formulas ranked in their order; each formula-free string on its own
        order = {phi: r for r, phi in enumerate(sorted({i.phi for i in infos} - {None}))}
        rank = [-1 - s if i.phi is None else order[i.phi] for s, i in enumerate(infos)]
        low, high = {}, {}  # key -> its string of lowest and of highest rank
        formulas = {}  # rank -> the formula's strings, in string order
        for s in sorted(range(len(names)), key=rank.__getitem__):
            low.setdefault(key[s], s)
            high[key[s]] = s
            if rank[s] >= 0:
                formulas.setdefault(rank[s], []).append(s)
        # cells[0][a, b]: does key a beat key b of a higher formula (or with
        # a formula-free side)?  cells[1][a, b]: ... of the same formula?
        cells = np.zeros((2, len(keys), len(keys)), dtype=bool)
        for a, x in low.items():
            for b, y in high.items():
                if rank[x] < rank[y]:
                    cells[0, a, b] = self._winner(names[x], infos[x], names[y],
                                                  infos[y]) is names[x]
        blocks = {}  # key sequence -> its formulas' strings
        for ids in formulas.values():
            blocks.setdefault(tuple(key[s] for s in ids), []).append(ids)
        reads = [self._same_formula_cells(names, infos, ids[0], key, cells[1])
                 for ids in blocks.values()]
        key, rank = np.array(key), np.array(rank)
        adj = np.where(rank[:, None] < rank, cells[0][key][:, key], (~cells[0].T)[key][:, key])
        np.copyto(adj, cells[1][key][:, key], where=rank[:, None] == rank)
        for ids, (rows, cols, entries, answers) in zip(blocks.values(), reads):
            if entries:
                ids = np.array(ids)
                tables = np.frombuffer("".join(infos[s].table for s in ids[:, 0])
                                       .encode("ascii"), dtype=np.uint8).reshape(len(ids), -1)
                won = (tables[:, entries] == ord("1")) == answers
                adj[ids[:, rows], ids[:, cols]] = won
                adj[ids[:, cols], ids[:, rows]] = ~won
        return adj

    def _same_formula_cells(self, names, infos, first, key, same):
        """Ask every pair of one formula's strings ``first`` under probe
        tables.  A pair that reads no entry sets its two cells of ``same``;
        the others are returned as lists (rows, cols, entries, answers):
        the two positions in ``first``, the entry read, and the winner of
        the row side when that entry is "1".
        """
        probes = [_Info(i.cls, i.phi, i.n, i.suffix, i.level, i.pk)
                  for i in (infos[s] for s in first)]
        reads = ([], [], [], [])
        for a, b in combinations(range(len(first)), 2):
            x, y, ix, iy = names[first[a]], names[first[b]], probes[a], probes[b]

            def decide(table):
                ix.table = iy.table = table
                return self._winner(x, ix, y, iy) is x

            rule = _table_read(decide)
            if rule is None:
                raise RuntimeError(f"{x} against {y} is not one table entry")
            answer, entry = rule
            if entry is None:
                same[key[first[a]], key[first[b]]] = answer
                same[key[first[b]], key[first[a]]] = not answer
            else:
                for out, value in zip(reads, (a, b, entry, answer)):
                    out.append(value)
        return reads

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

def induced_graph(spec, m: int) -> ExplicitDigraph:
    """Materialize the length-m member of the family, labels = bit-strings.

    For the weaves only core x core pairs go through the guards: leftover
    pairs follow the strict upper triangle (the smaller string wins), and a
    core string beats every leftover.
    """
    check_strings_node_cap(m)
    count = 1 << m
    names = [int_to_bits(v, m) for v in range(count)]
    if isinstance(spec, WeaveSpecifier):
        core = spec._core_tournament(m)
        ids = np.array([bits_to_int(z) for z in core.labels], dtype=np.intp)
        order = np.arange(count)
        adj = order[:, None] < order[None, :]  # g17: the smaller leftover wins
        adj[ids, :] = True
        adj[:, ids] = False
        adj[np.ix_(ids, ids)] = core.adj
        return ExplicitDigraph.from_adjacency(adj, labels=names)
    rows = [bytearray(count) for _ in range(count)]
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
    return ExplicitDigraph.from_adjacency(adj, labels=names)


def specifier_k_king(spec: TournamentFamilySpecifier, z: str, k: int) -> bool:
    """Is z a k-king of the induced tournament at its own length?

    A weave answers on its core tournament: a leftover is no king, and a
    core string is a k-king of the whole length iff it is one of the core.
    So a core string is bounded by its core, which ``_core`` refuses past
    the node cap, not by the 2**m strings.  A leftover past the node cap
    is still refused, as every string there was before the core
    tournament: ``perfbench/test_perfbench.py`` sends one as its example of
    a capped request.  Any other specifier materializes the length.
    """
    check_bits(z)
    if k < 1:
        raise ValueError("k must be at least 1")
    m = len(z)
    if isinstance(spec, WeaveSpecifier):
        check_length_cap(m)
        if spec.classify(z).cls == OTHER:
            check_strings_node_cap(m)
            return False
        g = spec._core_tournament(m)
    else:
        check_strings_node_cap(m)
        g = induced_graph(spec, m)
    return is_k_king(g, g.node_index(z), k)


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


def _check_sample(sample):
    """Refuse a sample size below 1, which would pass vacuously."""
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")


def validate_specifier(spec, m: int, sample: Optional[int] = None,
                       seed: int = 0) -> SpecifierValidation:
    """Check the specifier axioms at length m, exhaustively or by sampling.

    For the weave built-ins this also audits guard uniqueness: exactly one
    guard may claim each pair.  A pair with a leftover side is settled by
    the dispatch check made at import, so it counts as checked but only
    core x core pairs go through the guards.  Built-ins additionally get
    their fixed cross-length rule probed on mixed-length samples.
    """
    _check_sample(sample)
    check_length_cap(m)
    count = 1 << m
    mode = "exhaustive" if sample is None else f"sampled({sample},seed={seed})"
    report = SpecifierValidation(spec=spec.name, m=m, mode=mode)
    rng = random.Random(seed)

    if sample is None:
        total_pairs = count * (count - 1) // 2
        if total_pairs > DEFAULT_PAIR_BUDGET:
            raise CapExceeded(
                f"{total_pairs} pairs exceeds the budget {DEFAULT_PAIR_BUDGET}")

    if isinstance(spec, WeaveSpecifier):
        fired = spec._guards_firing
        classify = spec.classify
        if sample is None:
            report.pairs_checked = count * (count + 1) // 2
            pair_iter = combinations(spec._core(m), 2)
        else:
            # The sampled audit runs at every length up to the length cap,
            # also where the core is past the node cap (655,361 strings at
            # pi2 m=37) and cannot be listed, so it classifies what it draws.
            report.pairs_checked = sample
            pair_iter = _core_pairs(rng, count, m, sample, classify)
        for x, y in pair_iter:
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
        if sample is None:
            names = [int_to_bits(v, m) for v in range(count)]
            pair_iter = combinations_with_replacement(names, 2)
        else:
            pair_iter = ((int_to_bits(rng.randrange(count), m),
                          int_to_bits(rng.randrange(count), m)) for _ in range(sample))
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


def _core_pairs(rng, count, m, sample, classify):
    """The distinct drawn pairs with no leftover side, as strings, in draw
    order.  Each pair draws two ints below count, as the other specifiers'
    sampled pairs do; a drawn int is formatted and classified once, and
    only a core string is kept."""
    def core_name(v):
        z = int_to_bits(v, m)
        return z if classify(z).cls != OTHER else ""

    draw = rng.randrange
    core = {}  # drawn int -> core_name of it
    pairs = []
    for _ in range(sample):
        a = draw(count)
        b = draw(count)
        if a == b:
            continue
        x = core.get(a)
        if x is None:
            x = core[a] = core_name(a)
        if not x:
            continue
        y = core.get(b)
        if y is None:
            y = core[b] = core_name(b)
        if y:
            pairs.append((x, y))
    return pairs


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


def check_associativity(spec, m: int, sample: Optional[int] = None,
                        seed: int = 0) -> AssociativityReport:
    """Probe f(x, f(y, z)) == f(f(x, y), z) at length m.

    Exhaustive mode proves associativity at that length and then checks the
    structural consequences: the induced tournament has exactly one 2-king
    and that king beats every string directly.  Sampled mode draws random
    triples plus a stratified set built from one representative per node
    class, which is what finds witnesses in the weave families where pure
    uniform sampling almost never leaves the leftover class.
    """
    _check_sample(sample)
    check_length_cap(m)
    count = 1 << m
    sel = spec.select
    report = AssociativityReport(
        spec=spec.name, m=m,
        mode="exhaustive" if sample is None else f"sampled({sample},seed={seed})")

    def triples():
        if sample is None:
            total = count ** 3
            if total > DEFAULT_TRIPLE_BUDGET:
                raise CapExceeded(
                    f"{total} triples exceeds the budget {DEFAULT_TRIPLE_BUDGET}")
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
        graph = induced_graph(spec, m)
        kings = sorted(all_k_kings(graph, 2))
        report.king_count = len(kings)
        if len(kings) == 1:
            king = graph.label_of(kings[0])
            report.king = king
            report.king_universal = all(
                sel(y, king) == king for y in all_bits(m))
    return report


def _representatives(spec, m):
    """Two strings of each node class, the first two in string order, with
    the classes in order of first appearance.  For a weave the core, listed
    by construction, and the two smallest leftovers stand in for all 2**m
    strings, since every other string is a leftover."""
    if not isinstance(spec, WeaveSpecifier):
        return ["0" * m, "1" * m, int_to_bits((1 << m) // 3, m)]
    core = spec._core(m)
    taken = {bits_to_int(z) for z in core}
    leftovers = islice((v for v in range(1 << m) if v not in taken), 2)
    seen = {}
    for z in sorted(core + [int_to_bits(v, m) for v in leftovers]):
        bucket = seen.setdefault(spec.classify(z).cls, [])
        if len(bucket) < 2:
            bucket.append(z)
    return [z for bucket in seen.values() for z in bucket]
