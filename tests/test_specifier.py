import hashlib
import random
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from kings import specifier as S
from kings.bitstrings import all_bits, bits_to_int, check_bits, int_to_bits
from kings.digraph import ExplicitDigraph, check_tournament, is_k_king, k_king_mask
from kings.formula import (
    ForallExistsFormula,
    TTFECodec,
    TTPlainCodec,
    decode_formula,
    formula_from_table,
    parse_formula_input,
)
from kings.limits import DEFAULT_NODE_CAP, CapExceeded, check_node_cap
from kings.pairing import Pairing, pair, unpair
from kings.reductions import reduce_to_kings, reduce_to_kkings
from kings.specifier import (
    ANTENNA,
    GUARDS,
    MEMBER,
    OTHER,
    SpecifierValidation,
    TournamentFamilySpecifier,
    WeaveSpecifier,
    build_subtournament,
    check_associativity,
    classify_node,
    conp_specifier,
    induced_graph,
    kkings_specifier,
    make_builtin_specifier,
    max_specifier,
    np_specifier,
    pi2_specifier,
    specifier_k_king,
    validate_specifier,
)


# ---------------------------------------------------------------------------
# built-ins and classification
# ---------------------------------------------------------------------------

def test_max_select():
    mx = max_specifier()
    assert mx.select("01", "10") == "10"
    assert mx.select("10", "01") == "10"
    assert mx.select("0", "0") == "0"
    assert mx.select("111", "0000") == "111"  # shorter string wins across lengths


def test_builtin_factory_names():
    assert make_builtin_specifier("max").name == "max"
    assert make_builtin_specifier("pi2").name == "pi2:ttfe"
    assert make_builtin_specifier("conp:ttplain").name == "conp:ttplain"
    assert make_builtin_specifier("np").name == "np:ttplain"
    assert make_builtin_specifier("kkings:3").name == "kkings:3:catalog"
    assert make_builtin_specifier("kkings:2:ttfe").name == "kkings:2:ttfe"
    for bad in ("kkings:1", "nope", "max:ttfe", "pi2:ttplain", "conp:ttfe"):
        with pytest.raises(ValueError):
            make_builtin_specifier(bad)


def test_classify_examples():
    spec = pi2_specifier()
    assert classify_node(spec, "0" * 12).category == "zero"
    member = classify_node(spec, "010000011000")
    assert (member.category, member.phi, member.suffix) == ("member", "1001", "000")
    marker = classify_node(spec, "010000011010")
    assert (marker.category, marker.phi, marker.suffix) == ("marker", "1001", "010")
    assert classify_node(spec, "111111111111").category == "other"


def test_classify_np_specials():
    spec = np_specifier()
    assert classify_node(spec, "000000001").category == "special-a"
    assert classify_node(spec, "100000000").category == "special-b"
    assert classify_node(spec, "1").category == "other"  # no specials at length 1


def test_classify_antenna():
    spec = kkings_specifier(3)  # catalog, n = 2, suffix width 4
    z = pair(Pairing.V1, "0110", "0001")
    info = classify_node(spec, z)
    assert (info.category, info.phi, info.level) == ("antenna", "0110", 1)
    # the same string is just a leftover when k = 2 admits no antennas
    spec2 = kkings_specifier(2)
    assert classify_node(spec2, z).category == "other"


def _reference_category(spec, z):
    """Classification re-derived from pairing + codec + literal suffix sets."""
    if set(z) <= {"0"}:
        return "zero"
    m = len(z)
    if spec.style == "sat" and m >= 2:
        if z == "0" * (m - 1) + "1":
            return "special-a"
        if z == "1" + "0" * (m - 1):
            return "special-b"
    res = unpair(spec.version, z)
    if res is None:
        return "other"
    enc, w = res
    phi = decode_formula(enc, spec.codec)
    if phi is None:
        return "other"
    n = phi.n if isinstance(phi, ForallExistsFormula) else phi.num_vars
    if spec.style == "fe" and n <= spec.k - 2:
        return "other"
    if w == "01" + "0" * n:
        return "marker"
    if spec.style == "fe":
        members = {"0" * (n + 2)} | {"10" + y for y in all_bits(n)} \
            | {"11" + x for x in all_bits(n)}
        antennas = {"0" * (n + 2 - i) + "1" * i: i for i in range(1, spec.k - 1)}
    elif spec.style == "taut":
        members = {"0" * (n + 2), "10" + "0" * n} | {"11" + x for x in all_bits(n)}
        antennas = {}
    else:
        members = {"0" * (n + 2), "00" + "1" * n, "11" + "0" * n, "1" * (n + 2)} \
            | {"10" + x for x in all_bits(n)}
        antennas = {}
    if w in members:
        return "member"
    if w in antennas:
        return "antenna"
    return "other"


def test_classification_partition_matches_reference():
    specs = [pi2_specifier(), conp_specifier(), np_specifier(), kkings_specifier(3)]
    for spec in specs:
        for length in range(0, 10):
            for z in all_bits(length):
                assert classify_node(spec, z).category == _reference_category(spec, z), \
                    (spec.name, z)


def test_classification_counts_at_key_lengths():
    by_cat = lambda spec, m: _count(spec, m)

    def _count(spec, m):
        counts = {}
        for z in all_bits(m):
            cat = classify_node(spec, z).category
            counts[cat] = counts.get(cat, 0) + 1
        return counts

    c = by_cat(pi2_specifier(), 12)
    assert c == {"zero": 1, "marker": 16, "member": 16 * 5, "other": 4096 - 97}
    c = by_cat(conp_specifier(), 8)
    assert c == {"zero": 1, "marker": 4, "member": 4 * 4, "other": 256 - 21}
    c = by_cat(np_specifier(), 9)
    assert c == {"zero": 1, "marker": 4, "member": 4 * 6,
                 "special-a": 1, "special-b": 1, "other": 512 - 31}
    c = by_cat(kkings_specifier(3), 13)
    assert c == {"zero": 1, "marker": 16, "member": 16 * 9, "antenna": 16,
                 "other": 8192 - 177}


def test_select_guard_examples():
    spec = pi2_specifier()
    zero = "0" * 12
    member = "010000011000"
    marker = "010000011010"
    assert spec.select(member, zero) == member
    assert spec.select(zero, marker) == zero
    assert spec.select("01", "000") == "01"  # shorter length always wins
    other_a = "000000000001"
    other_b = "000000000011"
    assert spec.select(other_a, other_b) == other_a


@pytest.mark.parametrize("name", ["pi2", "conp", "np"])
def test_weave_select_rejects_non_bit_strings(name):
    spec = make_builtin_specifier(name)
    for x, y in (("0120", "0000"), ("0000", "0a00"), ("0a0", "0a0"), ("01", "000x"),
                 ("1", 1), (5, "0"), (["0"], ["1"]), (None, None)):
        with pytest.raises(ValueError):
            spec.select(x, y)
        with pytest.raises(ValueError):
            spec.select(y, x)


def test_np_special_node_dominates_all_but_one():
    spec = np_specifier()
    m = 9
    sb = "1" + "0" * (m - 1)
    sa = "0" * (m - 1) + "1"
    for z in all_bits(m):
        if z == sb:
            continue
        want = z if z == sa else sb
        assert spec.select(sb, z) == spec.select(z, sb) == want


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_max_exhaustive():
    report = validate_specifier(max_specifier(), 6)
    assert report.passed and report.pairs_checked == 64 * 63 // 2 + 64


def test_validate_small_weaves():
    for spec in (conp_specifier(), np_specifier()):
        report = validate_specifier(spec, 8)
        assert report.passed, report.summary()


class _AlwaysFirst(TournamentFamilySpecifier):
    name = "always-first"

    def select(self, x, y):
        return x


def test_validate_catches_broken_specifier():
    report = validate_specifier(_AlwaysFirst(), 3)
    assert not report.passed
    assert report.commutativity_violations


def test_validate_budget():
    # 2**14 strings make 134M pairs against the 2**26 budget: refused at once
    with pytest.raises(CapExceeded):
        validate_specifier(max_specifier(), 14)


_WEAVES = ["pi2", "conp", "np", "kkings:3"]


def _reference_validation(spec, m, sample=None, seed=0):
    """The full pair walk: every drawn pair, leftover or not, goes through
    the guards, with the pair order and RNG draws of validate_specifier."""
    count = 1 << m
    mode = "exhaustive" if sample is None else f"sampled({sample},seed={seed})"
    report = SpecifierValidation(spec=spec.name, m=m, mode=mode)
    rng = random.Random(seed)
    if sample is None:
        pairs = combinations_with_replacement(list(all_bits(m)), 2)
    else:
        pairs = ((int_to_bits(rng.randrange(count), m),
                  int_to_bits(rng.randrange(count), m)) for _ in range(sample))
    for x, y in pairs:
        report.pairs_checked += 1
        if x == y:
            continue
        fired = spec._guards_firing(x, spec.classify(x), y, spec.classify(y))
        if not fired and len(report.guard_gaps) < 20:
            report.guard_gaps.append((x, y))
        elif len(fired) > 1 and len(report.guard_overlaps) < 20:
            report.guard_overlaps.append((x, y, tuple(fired)))
    for _ in range(min(2000, count * 4)):
        S._check_select(report, spec, int_to_bits(rng.randrange(count), m),
                        int_to_bits(rng.randrange(count), m))
    for _ in range(256 if m >= 2 else 0):
        l1 = rng.randrange(1, m)
        l2 = rng.randrange(l1 + 1, m + 1)
        x = int_to_bits(rng.randrange(1 << l1), l1)
        y = int_to_bits(rng.randrange(1 << l2), l2)
        report.cross_length_checked += 1
        if spec.select(x, y) != x or spec.select(y, x) != x:
            if len(report.cross_length_violations) < 20:
                report.cross_length_violations.append((x, y))
    return report


@pytest.mark.parametrize("name", _WEAVES)
def test_core_audit_matches_the_full_pair_walk(name):
    spec = make_builtin_specifier(name)
    for m in range(11):
        got = validate_specifier(spec, m)
        want = _reference_validation(spec, m)
        assert got == want and got.summary() == want.summary(), (name, m)


class _LopsidedWeave(WeaveSpecifier):
    """A weave whose public select ignores the guards and keeps its first
    argument on pairs with an odd number of ones, so that the spot-check and
    cross-length witnesses depend on every RNG draw before them."""

    def select(self, x, y):
        return x if (x + y).count("1") % 2 or x < y else y


_TABLES = {
    "as-is": GUARDS,
    "overlap": GUARDS + (("gx", (MEMBER,), (MEMBER,), None),),
    "gap": tuple(row for row in GUARDS if row[0] != "g10"),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_core_audit_reports_like_the_full_pair_walk(table, monkeypatch):
    monkeypatch.setattr(S, "_DISPATCH", S._build_dispatch(_TABLES[table]))
    for style, m, sample in (("taut", 8, None), ("taut", 8, 5000), ("sat", 9, 5000)):
        spec = _LopsidedWeave(style, TTPlainCodec(), name="lopsided")
        got = validate_specifier(spec, m, sample=sample, seed=3)
        want = _reference_validation(spec, m, sample, seed=3)
        assert got == want and got.summary() == want.summary(), (style, m, sample)
        assert got.commutativity_violations and got.cross_length_violations
        assert bool(got.guard_overlaps) == (table == "overlap")
        assert bool(got.guard_gaps) == (table == "gap")


def _outcome(audit):
    """The report of an audit, or the error that stopped it: under a gapped
    table the select spot-check can draw a pair no guard decides."""
    try:
        return audit()
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_sampled_audit_draws_like_the_full_pair_walk(table, monkeypatch):
    """pi2 at m = 10 (a core of one string) and 12, kkings:3 at m = 13, and
    np at m = 3, where a pair often draws one core string twice; the planted
    witnesses are pairs the two walks must draw alike."""
    monkeypatch.setattr(S, "_DISPATCH", S._build_dispatch(_TABLES[table]))
    witnesses = 0
    for name, m, sample in (("pi2", 10, 5000), ("pi2", 12, 20000),
                            ("kkings:3", 13, 30000), ("np", 3, 500)):
        for seed in (0, 1, 2):
            got = _outcome(lambda: validate_specifier(
                make_builtin_specifier(name), m, sample=sample, seed=seed))
            want = _outcome(lambda: _reference_validation(
                make_builtin_specifier(name), m, sample, seed=seed))
            assert got == want, (name, m, seed)
            if isinstance(got, SpecifierValidation):
                assert got.summary() == want.summary() and got.pairs_checked == sample
                witnesses += len(got.guard_gaps) + len(got.guard_overlaps)
    assert (witnesses > 0) == (table != "as-is")


def test_sampled_audit_classifies_only_drawn_strings():
    spec = pi2_specifier()
    real = spec._classify
    calls = []

    def counted(z):
        calls.append(z)
        return real(z)

    spec._classify = counted
    report = validate_specifier(spec, 40, sample=1000)
    assert report.passed and report.pairs_checked == 1000
    # the pair draws classify a first string, and a second one only after a
    # core first; the spot-check classifies both strings of its 2,000 pairs
    assert len(calls) <= 2 * 1000 + 4000


def _always(s, z, iz, w, iw):
    return True


@pytest.mark.parametrize("guards", [
    GUARDS + (("gx", (MEMBER,), (OTHER,), _always),),  # conditional row added
    tuple(row[:3] + (_always,) if row[0] == "g16" else row for row in GUARDS),
    GUARDS + (("gx", (OTHER,), (MEMBER,), None),),  # second row in a cell
    tuple(row for row in GUARDS if row[0] != "g7"),  # member x other empty
    GUARDS[:-1] + (("g17", (OTHER,), (OTHER,), lambda s, z, iz, w, iw: z < w),),
    tuple(("g16", (OTHER,), (ANTENNA,), None) if row[0] == "g16" else row
          for row in GUARDS),  # antennas lose to every leftover
], ids=["conditional-added", "conditional-only", "two-rows", "no-row",
        "undeclared-order", "leftover-wins"])
def test_dispatch_refuses_a_leftover_cell_it_cannot_settle(guards):
    with pytest.raises(ValueError):
        S._build_dispatch(guards)


@pytest.mark.parametrize("k", [4, 5])
def test_guard_table_is_a_partition_for_long_antennas(k):
    # two antenna levels of one formula only coexist for k >= 4, which needs
    # n = k - 1 universal variables: lengths 134 (k = 4) and 519 (k = 5), far
    # beyond exhaustive validation.  Audit every pair among all strings two
    # formulas pair with, plus the all-zeros string.
    n = k - 1
    spec = kkings_specifier(k, TTFECodec())
    width = 1 << (2 * n)
    encs = ["0" * width, "01" * (width // 2)]
    strings = [pair(Pairing.V1, enc, w) for enc in encs for w in all_bits(n + 2)]
    strings.append("0" * len(strings[0]))
    views = [classify_node(spec, z) for z in strings]
    levels = {v.level for v in views if v.category == "antenna"}
    assert levels == set(range(1, k - 1))
    overlaps, gaps = [], []
    for i, x in enumerate(strings):
        for y in strings[i + 1:]:
            fired = spec._guards_firing(x, spec.classify(x), y, spec.classify(y))
            if len(fired) > 1:
                overlaps.append((x, y, fired))
            elif not fired:
                gaps.append((x, y))
    assert overlaps == [] and gaps == []
    # selection is unchanged: the chain step toward the potential king wins
    a1 = pair(Pairing.V1, encs[0], "0" * (n + 1) + "1")
    a2 = pair(Pairing.V1, encs[0], "0" * n + "11")
    assert classify_node(spec, a1).level == 1
    assert classify_node(spec, a2).level == 2
    assert spec.select(a1, a2) == spec.select(a2, a1) == a2


# ---------------------------------------------------------------------------
# the core, listed by construction
# ---------------------------------------------------------------------------

_CORE_WEAVES = ["pi2", "conp", "np", "kkings:2", "kkings:3", "kkings:4", "pi2:ttfe",
                "kkings:3:ttfe", "conp:ttplain", "np:ttplain"]


@pytest.mark.parametrize("name", _CORE_WEAVES)
def test_core_is_the_classified_core(name):
    spec = make_builtin_specifier(name)
    for m in range(17):
        assert spec._core(m) == [z for z in all_bits(m) if spec.classify(z).cls != OTHER], m
    # and the classification re-derived from the codec, through m = 13,
    # where the catalog's 2-variable formulas would first index members
    for m in range(14):
        assert spec._core(m) == [z for z in all_bits(m)
                                 if _reference_category(spec, z) != "other"], m


@pytest.mark.parametrize("name", _WEAVES)
def test_exhaustive_audit_asks_the_guards_about_every_core_pair(name):
    spec = make_builtin_specifier(name)
    real = spec._guards_firing
    asked = []

    def counted(x, ix, y, iy):
        asked.append((x, y))
        return real(x, ix, y, iy)

    spec._guards_firing = counted
    for m in (8, 9, 12, 13):
        asked.clear()
        assert validate_specifier(spec, m).passed
        core = [z for z in all_bits(m) if spec.classify(z).cls != OTHER]
        assert asked == list(combinations(core, 2)), m


def _classified_core_tournament(spec, m):
    """The core tournament found by classifying all 2**m strings: the core
    positions among them, in string order, and the guards' tournament on
    the core, labeled by the strings."""
    names = [int_to_bits(v, m) for v in range(1 << m)]
    infos = [spec.classify(z) for z in names]
    ids = [i for i, info in enumerate(infos) if info.cls != OTHER]
    adj = np.zeros((len(ids), len(ids)), dtype=bool)
    for (a, i), (b, j) in combinations(enumerate(ids), 2):
        x_wins = spec._winner(names[i], infos[i], names[j], infos[j]) is names[i]
        adj[a, b] = x_wins
        adj[b, a] = not x_wins
    return ids, ExplicitDigraph.from_adjacency(adj, labels=[names[i] for i in ids])


def _pair_loop_core_tournament(spec, m):
    """The guards' tournament on the listed core, one ``_winner`` call per
    pair: the build that class blocks replace."""
    names = spec._core(m)
    infos = [spec.classify(z) for z in names]
    won = np.fromiter((spec._winner(x, ix, y, iy) is x for (x, ix), (y, iy)
                       in combinations(zip(names, infos), 2)), dtype=bool)
    rows, cols = np.triu_indices(len(names), 1)
    adj = np.zeros((len(names), len(names)), dtype=bool)
    adj[rows, cols] = won
    adj[cols, rows] = ~won
    return ExplicitDigraph.from_adjacency(adj, labels=names)


def _assert_same_tournament(got, want, where):
    assert got.labels == want.labels and np.array_equal(got.adj, want.adj), where


@pytest.mark.parametrize("name", _CORE_WEAVES)
def test_core_tournament_matches_the_pair_loop(name):
    for m in range(17):
        _assert_same_tournament(make_builtin_specifier(name)._core_tournament(m),
                                _pair_loop_core_tournament(make_builtin_specifier(name), m),
                                m)


@pytest.mark.parametrize("name,m", [("conp", 22), ("np", 23)])
def test_core_tournament_matches_the_pair_loop_past_the_node_cap(name, m):
    spec = make_builtin_specifier(name)
    assert len(spec._core(m)) > 2000 and 1 << m > DEFAULT_NODE_CAP
    _assert_same_tournament(spec._core_tournament(m),
                            _pair_loop_core_tournament(make_builtin_specifier(name), m), m)


@pytest.mark.parametrize("name", _CORE_WEAVES)
def test_core_tournament_matches_the_classified_build(name):
    for m in range(15):
        ids, want = _classified_core_tournament(make_builtin_specifier(name), m)
        got = make_builtin_specifier(name)._core_tournament(m)
        assert [bits_to_int(z) for z in got.labels] == ids, m
        assert got.labels == want.labels and np.array_equal(got.adj, want.adj), m


def test_core_tournament_refuses_a_gapped_table(monkeypatch):
    monkeypatch.setattr(S, "_DISPATCH", S._build_dispatch(_TABLES["gap"]))
    for name, m in (("pi2", 12), ("conp", 8), ("kkings:3", 13)):
        with pytest.raises(RuntimeError, match="no guard decides"):
            _classified_core_tournament(make_builtin_specifier(name), m)
        with pytest.raises(RuntimeError, match="no guard decides"):
            make_builtin_specifier(name)._core_tournament(m)


def test_core_tournament_refuses_a_listed_leftover():
    spec = pi2_specifier()
    spec._core = lambda m: ["0" * m, "1" * m]
    with pytest.raises(RuntimeError, match="is a leftover"):
        spec._core_tournament(12)


def _planted(name, cond):
    """GUARDS with the condition of row ``name`` replaced."""
    return tuple(row[:3] + (cond,) if row[0] == name else row for row in GUARDS)


def test_the_guards_read_formulas_only_by_order():
    S._check_formula_reads(GUARDS)
    S._check_formula_reads(_TABLES["gap"])


@pytest.mark.parametrize("guards", [
    _planted("g4", lambda s, z, iz, w, iw: iz.phi[0] < iw.phi[0]),
    _planted("g10", lambda s, z, iz, w, iw: len(iz.phi) > 0 and iz.phi < iw.phi),
    _planted("g10", lambda s, z, iz, w, iw: iz.phi < iw.phi and iz.table[0] == "1"),
    _planted("g10", lambda s, z, iz, w, iw: iz.phi < iw.phi and z < w),
    _planted("g14", lambda s, z, iz, w, iw: iz.level == iw.level and iz.phi < "1"),
], ids=["phi-index", "phi-len", "table-across-formulas", "string-order",
        "phi-against-a-string"])
def test_the_gate_refuses_a_guard_that_reads_more_than_formula_order(guards):
    with pytest.raises(ValueError):
        S._check_formula_reads(guards)
    with pytest.raises(ValueError):
        S._build_dispatch(guards)


def test_core_tournament_refuses_a_same_formula_cell_on_two_entries(monkeypatch):
    # reading a table inside one formula passes the gate, but a cell must
    # turn on one entry for the formulas' tables to fill it
    guards = _planted("g9", lambda s, z, iz, w, iw: iz.phi == iw.phi
                      and iz.table[0] == iz.table[1] == "1")
    monkeypatch.setattr(S, "_DISPATCH", S._build_dispatch(guards))
    with pytest.raises(RuntimeError, match="is not one table entry"):
        pi2_specifier()._core_tournament(12)


def test_a_core_past_the_node_cap_is_refused_before_classifying():
    # pi2 m=37 pairs the 65,536 two-variable matrices: 655,361 core strings
    spec = pi2_specifier()
    real = spec._classify
    calls = []

    def counted(z):
        calls.append(z)
        return real(z)

    spec._classify = counted
    with pytest.raises(CapExceeded, match="655361 nodes"):
        spec._core(37)
    with pytest.raises(CapExceeded, match="655361 nodes"):
        check_associativity(spec, 37, sample=5)
    assert calls == []


def _scanned_representatives(spec, m):
    """Two strings of each class from a scan of all 2**m strings."""
    seen = {}
    for z in all_bits(m):
        bucket = seen.setdefault(spec.classify(z).cls, [])
        if len(bucket) < 2:
            bucket.append(z)
    return [z for bucket in seen.values() for z in bucket]


@pytest.mark.parametrize("name", _CORE_WEAVES)
def test_representatives_match_the_full_scan(name):
    spec = make_builtin_specifier(name)
    for m in range(15):
        assert S._representatives(spec, m) == _scanned_representatives(spec, m), m


# sha256 over the winner of every same-length pair (i < j in string order)
# with at least one non-leftover endpoint: b"1" when the first string wins.
_ADJACENCY_DIGESTS = {
    ("pi2", 12): "d41ec56cf976a39f6027caecc0ce4161e52327690215af0a0e68e25984d8b519",
    ("conp", 8): "6229743600ea897ae9dd9603379a57c1d93a6cc57945a367fe72305da431c13f",
    ("np", 9): "975b7efef0da0d05fa2d1348fbdccb3df43828ecc25cc0614fdc93233de39949",
    ("kkings:3", 13): "0e0b6834f9ec27f7e9358b718bc65ce42999cca2423076bd384eae0295eebf45",
}


@pytest.mark.parametrize("name,m", sorted(_ADJACENCY_DIGESTS))
def test_weave_adjacency_is_pinned(name, m):
    spec = make_builtin_specifier(name)
    names = [int_to_bits(v, m) for v in range(1 << m)]
    infos = [spec.classify(z) for z in names]
    out = bytearray()
    for i, x in enumerate(names):
        ix = infos[i]
        for j in range(i + 1, len(names)):
            iy = infos[j]
            if ix.cls != OTHER or iy.cls != OTHER:
                out.append(49 if spec._winner(x, ix, names[j], iy) is x else 48)
    assert hashlib.sha256(bytes(out)).hexdigest() == _ADJACENCY_DIGESTS[name, m]


@pytest.mark.parametrize("name,m", sorted(_ADJACENCY_DIGESTS))
def test_induced_weave_adjacency_is_pinned(name, m):
    spec = make_builtin_specifier(name)
    g = induced_graph(spec, m)
    adj = g.adj
    other = np.array([spec.classify(z).cls == OTHER for z in g.labels])
    core = np.flatnonzero(~other)
    leftovers = np.flatnonzero(other)
    out = bytearray()
    for i in range(len(other)):
        row = adj[i, i + 1:] if not other[i] else adj[i, core[core > i]]
        out += (row.view(np.uint8) + 48).tobytes()
    assert hashlib.sha256(bytes(out)).hexdigest() == _ADJACENCY_DIGESTS[name, m]
    # leftover against leftover: the smaller string wins
    for a, i in enumerate(leftovers):
        assert not adj[i, leftovers[:a]].any() and adj[i, leftovers[a + 1:]].all()


def _pairwise_adjacency(spec, m):
    """The per-pair walk: every same-length pair goes through the guards."""
    count = 1 << m
    names = [int_to_bits(v, m) for v in range(count)]
    infos = [spec.classify(z) for z in names]
    rows = [bytearray(count) for _ in range(count)]
    for i in range(count):
        x, ix = names[i], infos[i]
        for j in range(i + 1, count):
            if spec._winner(x, ix, names[j], infos[j]) is x:
                rows[i][j] = 1
            else:
                rows[j][i] = 1
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(count, count).astype(bool)


@pytest.mark.parametrize("name", _WEAVES)
def test_induced_weave_matches_the_pair_walk(name):
    # every m <= 10, which covers the conp m=8 and np m=9 suites
    spec = make_builtin_specifier(name)
    for m in range(11):
        assert np.array_equal(induced_graph(spec, m).adj, _pairwise_adjacency(spec, m)), m


# ---------------------------------------------------------------------------
# subtournaments
# ---------------------------------------------------------------------------

def test_subtournament_node_counts():
    fe = parse_formula_input("fe:n=1:tt:1001")
    assert build_subtournament("pi2", fe).num_nodes == 5
    phi = parse_formula_input("tt:01")
    assert build_subtournament("conp", phi).num_nodes == 4
    assert build_subtournament("np", phi).num_nodes == 6
    fe2 = parse_formula_input("fe:n=2:tt:" + "1" * 16)
    assert build_subtournament("pi2", fe2).num_nodes == 9


def test_subtournament_kind_checks():
    with pytest.raises(TypeError):
        build_subtournament("pi2", parse_formula_input("tt:01"))
    with pytest.raises(TypeError):
        build_subtournament("conp", parse_formula_input("fe:n=1:tt:1001"))
    with pytest.raises(ValueError):
        build_subtournament("frob", parse_formula_input("tt:01"))


def test_subtournament_oracle_examples():
    assert is_k_king(build_subtournament("pi2", parse_formula_input("fe:n=1:tt:1001")), 0, 2)
    assert is_k_king(build_subtournament("conp", parse_formula_input("tt:11")), 0, 2)
    assert not is_k_king(build_subtournament("np", parse_formula_input("tt:00")), 0, 2)


def test_subtournaments_are_tournaments():
    rng = random.Random(3)
    for kind in ("pi2", "conp", "np"):
        for _ in range(8):
            bits = int_to_bits(rng.getrandbits(4), 4)
            if kind == "pi2":
                phi = ForallExistsFormula(1, formula_from_table(2, bits))
            else:
                phi = formula_from_table(2, bits)
            assert check_tournament(build_subtournament(kind, phi))


def _pair_loop_subtournament(kind, phi):
    """The one-formula tournament built pair by pair from the scalar rule."""
    style = S._KIND_TO_STYLE[kind]
    if style == "fe":
        n = phi.n
        table = phi.matrix.bits
    else:
        n = phi.num_vars
        table = phi.bits
    suffixes = sorted(S._MEMBER_SUFFIX_BUILDERS[style](n))
    count = len(suffixes)
    check_node_cap(count)
    adj = np.zeros((count, count), dtype=bool)
    for i, w in enumerate(suffixes):
        for j in range(i + 1, count):
            if S._edge_rule_lt(style, table, n, w, suffixes[j]):
                adj[i, j] = True
            else:
                adj[j, i] = True
    return ExplicitDigraph.from_adjacency(adj, labels=suffixes)


def _formula(kind, n, bits):
    if kind == "pi2":
        return ForallExistsFormula(n, formula_from_table(2 * n, bits))
    return formula_from_table(n, bits)


def _assert_matches_pair_loop(kind, n, tables):
    for bits in tables:
        phi = _formula(kind, n, bits)
        g, want = build_subtournament(kind, phi), _pair_loop_subtournament(kind, phi)
        assert np.array_equal(g.adj, want.adj), (kind, n, bits)
        assert g.labels == want.labels, (kind, n, bits)


@pytest.mark.parametrize("kind, n", [("pi2", 1)] + [(kind, n) for kind in ("conp", "np")
                                                   for n in (1, 2, 3)])
def test_subtournament_template_matches_the_pair_loop_on_every_table(kind, n):
    width = (1 << (2 * n)) if kind == "pi2" else (1 << n)
    _assert_matches_pair_loop(kind, n, [int_to_bits(t, width) for t in range(1 << width)])


@pytest.mark.parametrize("kind, n, count", [("pi2", 2, 512), ("pi2", 3, 32)]
                         + [(kind, n, 32) for kind in ("conp", "np") for n in (4, 5, 6)])
def test_subtournament_template_matches_the_pair_loop_on_seeded_tables(kind, n, count):
    width = (1 << (2 * n)) if kind == "pi2" else (1 << n)
    rng = random.Random(f"{kind}:{n}")
    _assert_matches_pair_loop(kind, n, [int_to_bits(rng.getrandbits(width), width)
                                        for _ in range(count)])


@pytest.mark.parametrize("rule", [
    lambda style, table, n, w, w2: table[0] == "1" and table[1] == "1",
    lambda style, table, n, w, w2: table[0] == "0",
], ids=["two-entries", "one-turns-an-edge-off"])
def test_template_refuses_a_rule_that_is_not_one_entry(monkeypatch, rule):
    S._subtournament_template.cache_clear()
    monkeypatch.setattr(S, "_edge_rule_lt", rule)
    try:
        with pytest.raises(RuntimeError, match="is not one table entry"):
            build_subtournament("conp", formula_from_table(1, "11"))
    finally:
        S._subtournament_template.cache_clear()


def test_subtournaments_own_their_adjacency():
    fe = parse_formula_input("fe:n=2:tt:" + "0110" * 4)
    first, second = build_subtournament("pi2", fe), build_subtournament("pi2", fe)
    suffixes, fixed, rows, cols, at = S._subtournament_template("fe", 2)
    assert not np.shares_memory(first.adj, second.adj)
    assert not np.shares_memory(first.adj, fixed)
    assert first.labels is suffixes
    for array in (fixed, rows, cols, at):
        with pytest.raises(ValueError):
            array[0] = array[0]


# ---------------------------------------------------------------------------
# induced graphs and kingship
# ---------------------------------------------------------------------------

def test_induced_max_is_transitive():
    g = induced_graph(max_specifier(), 2)
    assert check_tournament(g)
    top = g.node_index("11")
    assert g.out_degree(top) == 3
    assert is_k_king(g, top, 1)


def test_induced_weaves_are_tournaments():
    assert check_tournament(induced_graph(conp_specifier(), 8))
    g = induced_graph(np_specifier(), 9)
    assert g.num_nodes == 512 and check_tournament(g)


def test_induced_graph_cap():
    with pytest.raises(CapExceeded):
        induced_graph(max_specifier(), 14)


def test_induced_edges_follow_select():
    rng = random.Random(17)
    for spec in (max_specifier(), conp_specifier()):
        g = induced_graph(spec, 6)
        for _ in range(300):
            i, j = rng.randrange(64), rng.randrange(64)
            if i == j:
                continue
            x, y = g.label_of(i), g.label_of(j)
            assert g.has_edge(i, j) == (spec.select(x, y) == x)


def test_specifier_k_king_examples():
    assert specifier_k_king(max_specifier(), "1111", 1)
    assert not specifier_k_king(max_specifier(), "0000", 3)
    spec = pi2_specifier()
    assert specifier_k_king(spec, "010000011000", 2)  # table 1001 is true
    false_pk = pair(Pairing.V1, "1000", "000")
    assert not specifier_k_king(spec, false_pk, 2)


def test_specifier_k_king_paths_agree_with_materialization():
    spec = conp_specifier()
    g = induced_graph(spec, 8)
    rng = random.Random(1)
    nodes = [g.label_of(rng.randrange(256)) for _ in range(24)]
    nodes += [pair(Pairing.V1, e, s) for e in ("00", "01", "10", "11")
              for s in ("000", "010", "100", "110")]
    for z in nodes:
        want2 = is_k_king(g, g.node_index(z), 2)
        assert specifier_k_king(spec, z, 2) == want2
        assert specifier_k_king(spec, z, 3) == is_k_king(g, g.node_index(z), 3)
        assert specifier_k_king(spec, z, 1) == is_k_king(g, g.node_index(z), 1)


def _bfs_k_king(spec, z, k):
    """Breadth-first search on demand, via select calls only: step i finds
    the strings first reached in i steps, and the last step stops at the
    first string it cannot reach."""
    check_bits(z)
    if k < 1:
        raise ValueError("k must be at least 1")
    m = len(z)
    check_node_cap(1 << m)
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


@pytest.mark.parametrize("name", _WEAVES + ["kkings:4", "max"])
def test_specifier_k_king_matches_the_select_search_on_every_string(name):
    spec = make_builtin_specifier(name)
    for m in range(7):
        for z in all_bits(m):
            for k in (1, 2, 3, 4, 9):
                assert specifier_k_king(spec, z, k) == _bfs_k_king(spec, z, k), (m, z, k)


@pytest.mark.parametrize("name,m", [("conp", 8), ("np", 9)])
def test_specifier_k_king_matches_the_select_search_on_the_core(name, m):
    spec = make_builtin_specifier(name)
    core = [z for z in all_bits(m) if spec.classify(z).cls != OTHER]
    for z in core:
        for k in (1, 2, 3):
            assert specifier_k_king(spec, z, k) == _bfs_k_king(spec, z, k), (z, k)


@pytest.mark.parametrize("name,m", [("pi2", 12), ("kkings:3", 13)])
def test_specifier_k_king_matches_the_materialized_kings(name, m):
    g = induced_graph(make_builtin_specifier(name), m)
    spec = make_builtin_specifier(name)
    core = [v for v, z in enumerate(g.labels) if spec.classify(z).cls != OTHER]
    leftovers = sorted(set(range(g.num_nodes)) - set(core))
    nodes = core + random.Random(11).sample(leftovers, 64)
    for k in (1, 2, 3, 4, 10 ** 20):
        want = k_king_mask(g, nodes, k)
        got = [specifier_k_king(spec, g.label_of(v), k) for v in nodes]
        assert got == want.tolist(), k
        assert not want[len(core):].any()


def test_specifier_k_king_matches_the_formula_oracle():
    # the 16 pi2 potential kings at m=12 and the 16 catalog nodes of the
    # 3-king weave at m=13, each against forall-exists truth
    cases = [(pi2_specifier(), 2, reduce_to_kings(
        "pi2", ForallExistsFormula(1, formula_from_table(2, int_to_bits(v, 4)))))
        for v in range(16)]
    spec = kkings_specifier(3)
    cases += [(spec, 3, reduce_to_kkings(ForallExistsFormula(2, formula_from_table(4, t)), 3))
              for t in spec.codec.tables]
    for spec, k, inst in cases:
        assert spec.classify(inst.node).cls != OTHER, inst.node
        assert specifier_k_king(spec, inst.node, k) == inst.expected, inst.node
    assert [inst.length for _, _, inst in cases] == [12] * 16 + [13] * 16
    assert {inst.expected for _, _, inst in cases} == {False, True}


# ---------------------------------------------------------------------------
# associativity
# ---------------------------------------------------------------------------

def test_max_is_associative_with_unique_king():
    rep = check_associativity(max_specifier(), 4)
    assert rep.associative is True
    assert rep.king_count == 1 and rep.king == "1111" and rep.king_universal


def test_pi2_not_associative_witness_found_by_sampling():
    rep = check_associativity(pi2_specifier(), 12, sample=500, seed=0)
    assert rep.associative is False
    assert rep.witness is not None
    x, y, z, left, right = rep.witness
    spec = pi2_specifier()
    assert spec.select(x, spec.select(y, z)) == left
    assert spec.select(spec.select(x, y), z) == right
    assert left != right


def test_associativity_budget():
    with pytest.raises(CapExceeded):
        check_associativity(max_specifier(), 12)
