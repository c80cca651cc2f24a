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
encoding length that fits m, each listed with the class its suffix w gives.
So its cost is its size, no listed string is classified again (``classify``
serves other strings, and is the listing's oracle in the tests), and a core
past the node cap is refused before any of it is formed.  The class
dispatch built from ``GUARDS`` is checked once, at import: every cell with
one OTHER side must hold exactly one unconditional row, won by the other
class, and the OTHER x OTHER cell must hold only the declared strict order
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

Block rule.  ``_suffix_classes`` is the one table of which suffix makes a
string of an n-variable formula a marker, member or antenna; classifying,
listing the core and the guard gate all read it.  A second import-time
check, ``_check_formula_reads``, runs every condition of a cell with no
leftover side on probe ``_Info`` objects whose formula answers only ``==``,
``!=`` and order comparisons against another formula, and whose truth
table records reads; a condition that asks the formula anything else,
reads a string, or reads a table when the two formulas differ is refused.
So a core pair's winner depends only on each side's key (its class, or its
suffix), on the order of the formulas, and inside one formula on its
table.  ``_formula_split`` asks every pair of one formula's strings under
probe tables: under ``_edge_rule_lt`` it builds the one-formula
tournament, and under the guards the same-formula pairs of the core.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, islice, product
from dataclasses import dataclass, field
from types import MappingProxyType, SimpleNamespace
from typing import List, Optional

import numpy as np

from .bitstrings import all_bits, bits_to_int, check_bits, drawn_pairs, int_to_bits, pair_draws
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
from .pairing import Pairing, _unpair, pair

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
def _suffix_classes(style: str, k: int, n: int) -> MappingProxyType:
    """Suffix -> (class, level, pk) of every marker, member and antenna
    string an n-variable formula pairs with in the style's weave: the
    marker ``01 0^n``, the member suffixes, and for the forall-exists weave
    the antennas ``0^(n+2-level) 1^level`` at levels 1 to k - 2.  Read-only,
    since every caller shares it."""
    classes = {"01" + "0" * n: (MARKER, 0, False)}
    classes.update((w, (MEMBER, 0, "1" not in w)) for w in _MEMBER_SUFFIX_BUILDERS[style](n))
    if style == "fe":
        classes.update(("0" * (n + 2 - level) + "1" * level, (ANTENNA, level, False))
                       for level in range(1, k - 1))
    return MappingProxyType(classes)


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


def _formula_split(suffixes, beats):
    """How one formula's tournament on ``suffixes`` reads its truth table.

    Asks ``beats(w, w2, table)``, does w beat w2, through ``_table_read``
    for every pair with w before w2.  Returns ``(fixed, winners, losers,
    at)``: a bool matrix of the edges no table entry decides, and ``intp``
    arrays such that the edge ``winners[i] -> losers[i]`` exists iff
    ``table[at[i]] == "1"`` and is reversed otherwise.  A pair that reads
    two entries is refused.
    """
    count = len(suffixes)
    fixed = np.zeros((count, count), dtype=bool)
    read = []  # (winner, loser, entry) of each pair that reads an entry
    for i, j in combinations(range(count), 2):
        w, w2 = suffixes[i], suffixes[j]
        rule = _table_read(lambda table: beats(w, w2, table))
        if rule is None:
            raise RuntimeError(f"{w} against {w2} is not one table entry")
        won, entry = rule
        if entry is None:
            fixed[i, j], fixed[j, i] = won, not won
        else:
            read.append((i, j, entry) if won else (j, i, entry))
    winners, losers, at = np.array(read, dtype=np.intp).reshape(-1, 3).T.copy()
    return fixed, winners, losers, at


@lru_cache(maxsize=16)
def _subtournament_template(style: str, n: int):
    """The (style, n) tournament with its table-dependent edges left open:
    the sorted member suffixes and their read-only ``_formula_split`` under
    ``_edge_rule_lt``."""
    suffixes = tuple(sorted(_MEMBER_SUFFIX_BUILDERS[style](n)))
    check_node_cap(len(suffixes))
    split = _formula_split(suffixes, lambda w, w2, table: _edge_rule_lt(style, table, n, w, w2))
    for array in split:
        array.flags.writeable = False
    return (suffixes,) + split


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
    suffixes, fixed, winners, losers, at = _subtournament_template(style, n)
    won = np.frombuffer(table.encode("ascii"), dtype=np.uint8)[at] == ord("1")
    adj = fixed.copy()
    adj[winners, losers] = won
    adj[losers, winners] = ~won
    return ExplicitDigraph._adopt(adj, labels=suffixes)


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
    2, as at k = 4), with formula ``_FormulaProbe(rank)`` and the given
    truth table."""
    if cls in _FORMULA_FREE:
        return [_Info(cls)]
    phi = _FormulaProbe(rank)
    return [_Info(c, phi, 1, w, level, pk, table)
            for w, (c, level, pk) in _suffix_classes(style, 4, 1).items() if c == cls]


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

    def string_length_for(self, n):
        """The length of the strings an n-variable formula's encodings pair
        with their suffixes: 2|enc| + 1 + n + 2 (V1) or 2|enc| + 2 + n + 2
        (V2).  None when no n-variable formula indexes members."""
        length = self.codec.encoding_length_for(n)
        if length is None or not self._indexes_members(n):
            return None
        return 2 * length + (1 if self.version is Pairing.V1 else 2) + n + 2

    def _classify(self, z):
        if "1" not in z:
            return _ZERO_INFO
        if self.style == "sat" and len(z) >= 2:
            if z[-1] == "1" and "1" not in z[:-1]:
                return _SA_INFO
            if z[0] == "1" and "1" not in z[1:]:
                return _SB_INFO
        res = _unpair(self.version, z)  # classify checked z
        if res is None:
            return _OTHER_INFO
        enc, w = res
        params = self._decode_member(enc)
        if params is None:
            return _OTHER_INFO
        n, table = params
        key = _suffix_classes(self.style, self.k, n).get(w)
        if key is None:
            return _OTHER_INFO
        cls, level, pk = key
        return _Info(cls, enc, n, w, level, pk, table)

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
        """The length-m core strings in string order, listed by construction,
        and the ``_Info`` that ``classify`` gives each: ``(names, infos)``.

        The core is the all-zeros string, the two specials of the sat weave,
        and ``pair(enc, w)`` for every encoding enc of an n-variable formula
        with ``string_length_for(n) == m`` and every key w of
        ``_suffix_classes``, whose entry is its class.  Lengths grow with n,
        so at most one n fits m.  Each codec accepts every encoding of the
        length it gives for n, so the count is known before any string is
        formed; past the node cap it raises CapExceeded.
        """
        core = [("0" * m, _ZERO_INFO), ("0" * (m - 1) + "1", _SA_INFO),
                ("1" + "0" * (m - 1), _SB_INFO)][:3 if self.style == "sat" and m >= 2 else 1]
        n = next((n for n in range(1, DEFAULT_VAR_CAP + 1) if self.string_length_for(n) == m),
                 None)
        if n is not None:
            length = self.codec.encoding_length_for(n)
            suffixes = _suffix_classes(self.style, self.k, n)
            check_node_cap(len(core) + (len(suffixes) << length))
            for v in range(1 << length):
                enc = int_to_bits(v, length)
                params = self._decode_member(enc)
                if params is not None:
                    head = pair(self.version, enc, "")
                    core += [(head + w, _Info(cls, enc, n, w, level, pk, params[1]))
                             for w, (cls, level, pk) in suffixes.items()]
        return [list(column) for column in zip(*sorted(core))]  # distinct names: no _Info compared

    def _core_tournament(self, m):
        """The guards' tournament on the length-m core, labeled by the core
        strings in string order; built once per length from the listed keys.

        ``_check_formula_reads`` lets a guard see a core string only
        through its key (its class, or its suffix and the suffix's entry in
        ``_suffix_classes``), the order of the two formulas and, inside one
        formula, that formula's truth table.  So one ``_winner`` call per
        ordered pair of keys, on stand-ins for a lower and a higher formula,
        decides every pair of different formulas or with a formula-free
        side, and one ``_formula_split`` on stand-ins of one formula decides
        the pairs inside every formula: all formulas at a length share one
        formula size and so one key list.  Its table-dependent edges are
        filled from the stacked tables of all the formulas in one gather.
        """
        core = self._cores.get(m)
        if core is None:
            names, infos = self._core(m)
            adj = self._core_adjacency(infos)
            core = self._cores[m] = ExplicitDigraph.from_adjacency(adj, labels=names)
        return core

    def _core_adjacency(self, infos):
        """The adjacency of ``_core_tournament`` on the listed core."""
        n = next((i.n for i in infos if i.phi is not None), 0)
        classes = _suffix_classes(self.style, self.k, n) if n else {}
        suffixes = list(classes)
        free = sorted({i.cls for i in infos if i.phi is None})  # ZERO, the specials

        def keys(phi):
            return ([(f"{w} of formula {phi}", _Info(cls, phi, n, w, level, pk))
                     for w, (cls, level, pk) in classes.items()]
                    + [(_CATEGORY_NAMES[c], _Info(c)) for c in free])

        # Stand-in formulas "0" below "1": the gate lets a guard only
        # compare two formulas, so any two ordered strings act as two real
        # ones.  lower[a, b]: does key a beat key b of a higher formula?  A
        # formula-free string ranks below every formula (see rank below),
        # so a formula key is never the lower side against a free one, and
        # a free key never meets itself.
        lows, highs = keys("0"), keys("1")
        lower = np.array([[(a != b if a >= len(suffixes) else b < len(suffixes))
                           and self._winner(x, ix, y, iy) is x
                           for b, (y, iy) in enumerate(highs)]
                          for a, (x, ix) in enumerate(lows)], dtype=bool)
        probes = {w: info for w, (_, info) in zip(suffixes, lows)}

        def beats(w, w2, table):
            probes[w].table = probes[w2].table = table
            return self._winner(w, probes[w], w2, probes[w2]) is w

        fixed, winners, losers, at = _formula_split(suffixes, beats)
        same = np.zeros_like(lower)
        same[:len(suffixes), :len(suffixes)] = fixed
        index = {w: a for a, w in enumerate(suffixes)}
        key = np.array([len(suffixes) + free.index(i.cls) if i.phi is None
                        else index[i.suffix] for i in infos])
        # formulas ranked in their order; each formula-free string on its own
        order = {p: r for r, p in enumerate(sorted({i.phi for i in infos} - {None}))}
        rank = np.array([-1 - s if i.phi is None else order[i.phi]
                         for s, i in enumerate(infos)])
        adj = np.where(rank[:, None] < rank, lower[key][:, key], (~lower.T)[key][:, key])
        np.copyto(adj, same[key][:, key], where=rank[:, None] == rank)
        if len(at):
            formula = np.flatnonzero(rank >= 0)
            ids = np.empty((len(order), len(suffixes)), dtype=np.intp)
            ids[rank[formula], key[formula]] = formula  # each formula's strings by key
            tables = np.frombuffer("".join(infos[s].table for s in ids[:, 0]).encode("ascii"),
                                   dtype=np.uint8).reshape(len(ids), -1)
            won = tables[:, at] == ord("1")
            adj[ids[:, winners], ids[:, losers]] = won
            adj[ids[:, losers], ids[:, winners]] = ~won
        return adj

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
        order = np.arange(count)
        return ExplicitDigraph._adopt(_weave_entries(spec, m, order, order), labels=names)
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


def _weave_entries(spec: WeaveSpecifier, m: int, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """Entry (a, b) is True iff string rows[a] beats string cols[b] (both
    given by value) in the weave's induced tournament at length m: core
    pairs as in the core tournament, a core string beats every leftover,
    and of two leftovers the smaller string wins."""
    core = spec._core_tournament(m)
    at = np.full(1 << m, -1, dtype=np.intp)  # each string's core index, or -1
    at[[bits_to_int(z) for z in core.labels]] = np.arange(core.num_nodes)
    r, c = at[rows], at[cols]
    entries = rows[:, None] < cols[None, :]  # g17: the smaller leftover wins
    entries[r >= 0, :] = True
    entries[:, c >= 0] = False
    r_core, c_core = np.flatnonzero(r >= 0), np.flatnonzero(c >= 0)
    entries[np.ix_(r_core, c_core)] = core.adj[np.ix_(r[r_core], c[c_core])]
    return entries


def _weave_mismatches(a: WeaveSpecifier, b: WeaveSpecifier, m: int) -> int:
    """Half the number of entries in which the length-m induced adjacencies
    of weaves a and b differ, without either whole matrix: two leftovers of
    both follow one rule in both weaves, so only the rows and columns of
    the strings in either core can differ."""
    ids = np.union1d(*[[bits_to_int(z) for z in spec._core_tournament(m).labels]
                       for spec in (a, b)])
    every = np.arange(1 << m)
    rest = np.setdiff1d(every, ids)
    rows = _weave_entries(a, m, ids, every) != _weave_entries(b, m, ids, every)
    cols = _weave_entries(a, m, rest, ids) != _weave_entries(b, m, rest, ids)
    return int(rows.sum() + cols.sum()) // 2


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
            pair_iter = combinations(spec._core(m)[0], 2)
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
        for x, y in drawn_pairs(rng, m, min(2000, count * 4)):
            _check_select(report, spec, x, y)
    else:
        if sample is None:
            names = [int_to_bits(v, m) for v in range(count)]
            pair_iter = combinations_with_replacement(names, 2)
        else:
            pair_iter = drawn_pairs(rng, m, sample)
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
    """The drawn pairs of two different core strings, as strings, in draw
    order; a pair drawn twice is listed twice.  Each pair draws two ints
    below count, as the other specifiers' sampled pairs do.  A first int is
    classified if its pair has two different ints, a second one if its
    first is core too, each distinct int once."""
    # the ints classified so far, ascending, then count, which no draw
    # reaches; and whether each one's string is core
    seen, core = np.array([count]), np.zeros(1, dtype=bool)
    pairs = []
    for first, second in pair_draws(rng, count, sample):
        keep = first != second
        for side in (first, second):
            distinct, where = np.unique(side[keep], return_inverse=True)
            at = np.searchsorted(seen, distinct)
            fresh = seen[at] != distinct
            flags = core[at]
            flags[fresh] = [classify(int_to_bits(v, m)).cls != OTHER
                            for v in distinct[fresh].tolist()]
            seen = np.insert(seen, at[fresh], distinct[fresh])
            core = np.insert(core, at[fresh], flags[fresh])
            keep[keep] = flags[where]
        pairs += [(int_to_bits(x, m), int_to_bits(y, m))
                  for x, y in zip(first[keep].tolist(), second[keep].tolist())]
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

    Exhaustive mode asks ``select`` once per ordered pair for a table of
    indexes and gathers both sides of every triple from it; the witness is
    the first mismatch in (x, y, z) order.  A proof is followed by its
    consequences: one 2-king, which beats every string directly.  Sampled
    mode draws random triples plus every triple of two representatives per
    node class, which finds the weave witnesses uniform draws almost miss.
    """
    _check_sample(sample)
    check_length_cap(m)
    count = 1 << m
    sel = spec.select
    report = AssociativityReport(
        spec=spec.name, m=m,
        mode="exhaustive" if sample is None else f"sampled({sample},seed={seed})")
    if sample is not None:
        rng = random.Random(seed)
        drawn = (tuple(int_to_bits(rng.randrange(count), m) for _ in range(3))
                 for _ in range(sample))
        for x, y, z in chain(product(_representatives(spec, m), repeat=3), drawn):
            report.triples_checked += 1
            left = sel(x, sel(y, z))
            right = sel(sel(x, y), z)
            if left != right:
                report.witness = (x, y, z, left, right)
                report.associative = False
                return report
        return report
    total = count ** 3
    if total > DEFAULT_TRIPLE_BUDGET:
        raise CapExceeded(f"{total} triples exceeds the budget {DEFAULT_TRIPLE_BUDGET}")
    names = list(all_bits(m))
    table = np.empty((count, count), dtype=np.min_scalar_type(count - 1))
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            w = sel(x, y)
            if w != x and w != y:
                raise ValueError(f"select({x!r}, {y!r}) = {w!r} is neither argument")
            table[i, j] = i if w == x else j
    left = table[:, table]   # left[x, y, z] = f(x, f(y, z))
    right = table[table]     # right[x, y, z] = f(f(x, y), z)
    differ = left != right
    first = int(differ.argmax())
    if differ.flat[first]:
        report.triples_checked = first + 1
        at = np.unravel_index(first, differ.shape) + (left.flat[first], right.flat[first])
        report.witness = tuple(names[v] for v in at)
        report.associative = False
        return report
    report.triples_checked = total
    report.associative = True
    graph = induced_graph(spec, m)
    kings = sorted(all_k_kings(graph, 2))
    report.king_count = len(kings)
    if len(kings) == 1:
        report.king = graph.label_of(kings[0])
        report.king_universal = bool((table[:, kings[0]] == kings[0]).all())
    return report


def _representatives(spec, m):
    """Two strings of each node class, the first two in string order, with
    the classes in order of first appearance.  For a weave the core, listed
    by construction with its classes, and the two smallest leftovers stand
    in for all 2**m strings, since every other string is a leftover."""
    if not isinstance(spec, WeaveSpecifier):
        return ["0" * m, "1" * m, int_to_bits((1 << m) // 3, m)]
    core = list(zip(*spec._core(m)))
    taken = {bits_to_int(z) for z, _ in core}
    leftovers = islice((v for v in range(1 << m) if v not in taken), 2)
    seen = {}
    for z, info in sorted(core + [(int_to_bits(v, m), _OTHER_INFO) for v in leftovers]):
        bucket = seen.setdefault(info.cls, [])
        if len(bucket) < 2:
            bucket.append(z)
    return [z for bucket in seen.values() for z in bucket]
