import pytest

from kings.bitstrings import all_bits
from kings.pairing import Pairing, pair, unpair

V1, V2 = Pairing.V1, Pairing.V2


def pair_length(version, x_len, y_len):
    """The length of pair(version, x, y): 2|x| bits, the separator, then y."""
    extra = 1 if version is V1 else 2
    return 2 * x_len + extra + y_len


def test_pair_examples():
    assert pair(V1, "11", "000") == "01011000"
    assert pair(V1, "", "0") == "10"
    assert pair(V2, "01", "000") == "000111000"


def test_unpair_examples():
    assert unpair(V1, "01011000") == ("11", "000")
    assert unpair(V1, "0000") is None  # no separator, all zeros
    assert unpair(V2, "0001") is None  # runs out before the double separator
    assert unpair(V1, "10") == ("", "0")  # leading 1 decodes to an empty x


def test_alphabet_checked():
    with pytest.raises(ValueError):
        pair(V1, "0a", "0")
    with pytest.raises(ValueError):
        unpair(V2, "10x")


def _naive_candidates(version, s):
    found = []
    extra = 1 if version is V1 else 2
    for nx in range((len(s) - extra) // 2 + 1):
        ny = len(s) - 2 * nx - extra
        if ny < 0:
            continue
        x = s[1:2 * nx:2]
        if pair(version, x, s[2 * nx + extra:]) == s:
            found.append((x, s[2 * nx + extra:]))
    return found


def test_roundtrip_and_range_exclusions_exhaustive():
    for version in (V1, V2):
        for lx in range(0, 9):
            for x in all_bits(lx):
                for ly in range(0, 9):
                    for y in all_bits(ly):
                        s = pair(version, x, y)
                        assert len(s) == pair_length(version, lx, ly)
                        assert unpair(version, s) == (x, y)
                        assert "1" in s  # never a string of all zeros
                        if version is V2:
                            # never in 0*1 nor 10*
                            assert not (s.count("1") == 1 and s.endswith("1"))
                            assert not (s[0] == "1" and "1" not in s[1:])


def test_scan_agrees_with_naive_search():
    for version in (V1, V2):
        for length in range(0, 13):
            for s in all_bits(length):
                got = unpair(version, s)
                naive = _naive_candidates(version, s)
                if got is None:
                    assert naive == []
                else:
                    assert naive == [got]


def test_length_depends_only_on_component_lengths():
    assert pair_length(V1, 3, 5) == len(pair(V1, "101", "11011")) == 12
    assert pair_length(V2, 3, 5) == 13
