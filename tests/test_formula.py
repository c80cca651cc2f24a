from itertools import product

import pytest

from kings.bitstrings import all_bits, int_to_bits
from kings.formula import (
    CatalogCodec,
    CodecError,
    ForallExistsFormula,
    FormulaSyntaxError,
    Not,
    PropFormula,
    TTFECodec,
    TTPlainCodec,
    decode_formula,
    encode_formula,
    eval_forall_exists,
    eval_formula,
    formula_from_table,
    is_satisfiable,
    is_tautology,
    parse_formula,
    parse_formula_input,
    truth_table_of,
)
from kings.limits import CapExceeded


def tt(expr, n=None):
    return truth_table_of(parse_formula(expr, num_universal=n)).bits


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_basic():
    f = parse_formula("x1 & !x2")
    assert f.num_vars == 2
    assert eval_formula(f, "10") and not eval_formula(f, "11")


def test_parse_num_vars_is_highest_index():
    assert parse_formula("x1 | !x1").num_vars == 1
    assert parse_formula("x3").num_vars == 3
    assert parse_formula("vars=3: x1").num_vars == 3


def test_parse_error_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("x1 &")
    assert exc.value.offset == 4


def test_parse_rejects_index_zero():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x0")


def test_parse_rejects_vars_override_below_max():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("vars=1: x2")


def test_parse_y_needs_universal_count():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("y1")
    f = parse_formula("x1 & y1", num_universal=1)
    assert f.num_vars == 2


def test_parse_parens_and_precedence():
    # & binds tighter than |
    f = parse_formula("x1 | x2 & x3")
    assert eval_formula(f, "100") and not eval_formula(f, "010")
    g = parse_formula("(x1 | x2) & x3")
    assert not eval_formula(g, "100") and eval_formula(g, "101")


def test_parse_input_forms():
    fe = parse_formula_input("fe:n=1:tt:1001")
    assert isinstance(fe, ForallExistsFormula) and fe.n == 1
    fe2 = parse_formula_input("fe:n=1:!(x1&!y1)&!(!x1&y1)")
    assert truth_table_of(fe2.matrix).bits == "1001"
    p = parse_formula_input("tt:01")
    assert truth_table_of(p).bits == "01"
    cat = parse_formula_input("cat:0")
    assert isinstance(cat, ForallExistsFormula) and cat.n == 2
    with pytest.raises(ValueError):
        parse_formula_input("tt:011")  # not a power of two
    with pytest.raises(ValueError):
        parse_formula_input("fe:n=2:tt:1001")  # wrong matrix width


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_formula_nesting_limit():
    assert eval_formula(parse_formula("!" * 100 + "x1"), "1")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("!" * 101 + "x1")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(" * 101 + "x1" + ")" * 101)
    assert not eval_formula(parse_formula("&".join(["x1"] * 3000) + "&!x1"), "1")


def test_eval_examples():
    f = parse_formula("x1 | x2")
    assert not eval_formula(f, "00")
    with pytest.raises(ValueError):
        eval_formula(f, "0")


def test_forall_exists_examples():
    assert eval_forall_exists(parse_formula_input("fe:n=1:tt:1001"))
    assert not eval_forall_exists(
        ForallExistsFormula(1, parse_formula("x1 & y1", num_universal=1)))
    # true exactly when the existential block is all zeros
    assert eval_forall_exists(parse_formula_input("fe:n=2:tt:1000100010001000"))


def _fe_truth_reference(n, bits):
    # independently coded double loop over assignment tuples
    for xs in product("01", repeat=n):
        if not any(bits[int("".join(xs) + "".join(ys), 2)] == "1"
                   for ys in product("01", repeat=n)):
            return False
    return True


def test_forall_exists_matches_reference_oracle():
    for bits in ("".join(t) for t in product("01", repeat=4)):
        fe = ForallExistsFormula(1, formula_from_table(2, bits))
        assert eval_forall_exists(fe) == _fe_truth_reference(1, bits), bits
    import random
    rng = random.Random(7)
    for _ in range(60):
        bits = int_to_bits(rng.getrandbits(16), 16)
        fe = ForallExistsFormula(2, formula_from_table(4, bits))
        assert eval_forall_exists(fe) == _fe_truth_reference(2, bits), bits


def test_tautology_and_satisfiability_examples():
    assert is_tautology(parse_formula("x1 | !x1"))
    assert not is_tautology(parse_formula("x1"))
    assert is_tautology(parse_formula("!(x1 & !x1)"))
    assert not is_satisfiable(parse_formula("x1 & !x1"))
    assert is_satisfiable(parse_formula("x1"))
    assert is_satisfiable(parse_formula("(x1 | x2) & !x1"))


def test_tautology_is_dual_of_satisfiability():
    # exhaustive over every truth table with up to three variables
    for n in (1, 2, 3):
        for v in range(1 << (1 << n)):
            bits = int_to_bits(v, 1 << n)
            phi = formula_from_table(n, bits)
            negated = PropFormula(Not(phi.root), phi.num_vars)
            assert is_tautology(phi) == (not is_satisfiable(negated))


def test_enumeration_cap():
    big = PropFormula(parse_formula("x1").root, 13)
    with pytest.raises(CapExceeded):
        is_tautology(big)
    with pytest.raises(CapExceeded):
        truth_table_of(big)


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------

def test_truth_table_bit_order():
    assert tt("x1") == "01"
    assert tt("x1 | !x1") == "11"
    assert tt("!(x1&!y1)&!(!x1&y1)", n=1) == "1001"


def test_formula_from_table_roundtrip():
    for n in (1, 2, 3):
        for v in range(1 << (1 << n)):
            bits = int_to_bits(v, 1 << n)
            assert truth_table_of(formula_from_table(n, bits)).bits == bits


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

def test_encode_examples():
    assert encode_formula(parse_formula("x1 | !x1"), TTPlainCodec()) == "11"
    assert encode_formula(parse_formula_input("fe:n=1:tt:1001"), TTFECodec()) == "1001"
    cat = CatalogCodec()
    assert encode_formula(cat.entry(0), cat) == "0000"


def test_decode_examples():
    fe = decode_formula("1001", TTFECodec())
    assert isinstance(fe, ForallExistsFormula) and fe.n == 1
    assert truth_table_of(fe.matrix).bits == "1001"
    assert decode_formula("101", TTFECodec()) is None
    assert decode_formula("11", TTFECodec()) is None  # length 2 is not a code
    plain = decode_formula("11", TTPlainCodec())
    assert is_tautology(plain)


def test_decode_total_on_short_strings():
    codecs = [TTPlainCodec(), TTFECodec(), CatalogCodec()]
    for length in range(0, 13):
        for bits in all_bits(length):
            for codec in codecs:
                decode_formula(bits, codec)  # must not raise


def test_codec_roundtrip_preserves_truth_tables():
    plain = TTPlainCodec()
    fe_codec = TTFECodec()
    for n in (1, 2, 3):
        for v in range(1 << (1 << n)):
            bits = int_to_bits(v, 1 << n)
            phi = formula_from_table(n, bits)
            again = decode_formula(encode_formula(phi, plain), plain)
            assert truth_table_of(again).bits == truth_table_of(phi).bits
    for v in range(16):
        bits = int_to_bits(v, 4)
        fe = ForallExistsFormula(1, formula_from_table(2, bits))
        again = decode_formula(encode_formula(fe, fe_codec), fe_codec)
        assert truth_table_of(again.matrix).bits == bits


def test_codec_wrong_shape_rejected():
    with pytest.raises(CodecError):
        encode_formula(parse_formula("x1"), TTFECodec())
    with pytest.raises(CodecError):
        encode_formula(parse_formula_input("fe:n=1:tt:1001"), TTPlainCodec())
    with pytest.raises(CodecError):
        encode_formula(parse_formula_input("fe:n=1:tt:1001"), CatalogCodec())


def test_catalog_contents():
    cat = CatalogCodec()
    assert len(cat.tables) == 16
    truths = [eval_forall_exists(cat.entry(i)) for i in range(16)]
    assert sum(truths) >= 4
    assert sum(not t for t in truths) >= 4
    # encodings are the 4-bit indexes, so every length-4 string decodes
    for v in range(16):
        assert decode_formula(int_to_bits(v, 4), cat) is not None


def test_equal_length_encodings_per_length():
    # at any encoded length a codec accepts exactly one formula size
    fe_codec = TTFECodec()
    assert fe_codec.decode_params("1" * 4)[0] == 1
    assert fe_codec.decode_params("1" * 16)[0] == 2
    assert fe_codec.decode_params("1" * 8) is None
    plain = TTPlainCodec()
    assert plain.decode_params("1" * 8)[0] == 3
