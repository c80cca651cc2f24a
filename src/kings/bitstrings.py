"""Bit-string helpers.

Bit-strings are ordinary Python ``str`` objects over the alphabet {'0','1'}.
Position 1 in prose corresponds to string index 0.  Assignments and node
labels are both bit-strings, ordered lexicographically (which for equal
lengths coincides with numeric order).  ``draws`` and ``drawn_pairs`` give
the values, and the strings, of ``random.Random.randrange(2**m)`` calls a
batch of words at a time.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_BITSET = frozenset("01")


def check_bits(s: str) -> str:
    """Validate that ``s`` is a bit-string and return it."""
    if not isinstance(s, str):
        raise ValueError(f"not a bit-string: {s!r}")
    if not _BITSET.issuperset(s):
        raise ValueError(f"not a bit-string: {s!r}")
    return s


def int_to_bits(value: int, width: int) -> str:
    if width == 0:
        return ""
    return format(value, f"0{width}b")


def bits_to_int(s: str) -> int:
    return int(s, 2) if s else 0


def all_bits(length: int) -> Iterator[str]:
    """All bit-strings of the given length in lexicographic order."""
    for v in range(1 << length):
        yield int_to_bits(v, length)


# Words read by one getrandbits call in draws (16 KiB).  pair_draws holds at
# most twice as many words of drawn values at once, whatever the total.
DRAW_WORDS = 1 << 12


def draws(rng, count, total):
    """The values of ``total`` calls of ``rng.randrange(count)``, for count a
    power of two, in draw order, leaving rng where those calls leave it.

    CPython's randrange(2**m) makes attempts of getrandbits(k), k = m + 1
    (``Random._randbelow_with_getrandbits``).  An attempt reads w = ceil(k /
    32) Mersenne Twister words, lowest first, and keeps the top k - 32(w - 1)
    bits of its last word; it is rejected iff bit 31 of that word is set.
    One getrandbits(32 w t) call reads the words of t attempts in the same
    order, and t is at most the number of values still needed, so no batch
    reads a word the calls would not.  A uint32 array when the values fit
    one word, else an object array of ints."""
    k = count.bit_length()
    w = -(-k // 32)
    values = np.empty(total, np.uint32 if w == 1 else object)
    done = 0
    while done < total:
        tries = min(total - done, max(1, DRAW_WORDS // w))
        words = np.frombuffer(rng.getrandbits(32 * w * tries).to_bytes(4 * w * tries, "little"),
                              "<u4").reshape(tries, w)
        kept = words[words[:, -1] < 1 << 31]
        kept[:, -1] >>= 32 * w - k
        values[done:done + len(kept)] = (
            kept[:, 0] if w == 1 else [int.from_bytes(row.tobytes(), "little") for row in kept])
        done += len(kept)
    return values


def pair_draws(rng, count, total):
    """The ints of ``total`` pairs of two randrange(count) draws each, as
    (first, second) arrays of at most DRAW_WORDS words a side, or one pair
    when a value is wider."""
    step = max(1, DRAW_WORDS // -(-count.bit_length() // 32))
    for done in range(0, total, step):
        drawn = draws(rng, count, 2 * min(step, total - done))
        yield drawn[::2], drawn[1::2]


def drawn_pairs(rng, m, total):
    """``total`` pairs of m-bit strings from two randrange(2**m) draws each."""
    for first, second in pair_draws(rng, 1 << m, total):
        for x, y in zip(first.tolist(), second.tolist()):
            yield int_to_bits(x, m), int_to_bits(y, m)
