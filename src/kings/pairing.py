"""Two invertible string pairings used to label composite nodes.

Both pairings interleave a 0 before every bit of the first component and
then emit a separator followed by the second component verbatim:

* version 1: ``0x1 0x2 ... 0xn 1 y``
* version 2: ``0x1 0x2 ... 0xn 11 y``

The output length depends only on the component lengths, version 1 never
outputs a string of all zeros, and version 2 additionally never outputs a
string in ``0*1`` or ``10*``.  Decoding is a single left-to-right scan that
consumes (0, bit) pairs until the separator.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from .bitstrings import check_bits


class Pairing(enum.Enum):
    V1 = 1
    V2 = 2


def pair(version: Pairing, x: str, y: str) -> str:
    check_bits(x)
    check_bits(y)
    head = "".join("0" + c for c in x)
    sep = "1" if version is Pairing.V1 else "11"
    return head + sep + y


def unpair(version: Pairing, s: str) -> Optional[Tuple[str, str]]:
    """Invert :func:`pair` on its range; None when ``s`` is not in range."""
    return _unpair(version, check_bits(s))


def _unpair(version, s):
    """:func:`unpair` on a string already checked to be a bit-string."""
    xs = []
    i = 0
    n = len(s)
    while i < n:
        if s[i] == "1":
            if version is Pairing.V1:
                return "".join(xs), s[i + 1:]
            if i + 1 < n and s[i + 1] == "1":
                return "".join(xs), s[i + 2:]
            return None
        if i + 1 >= n:
            return None
        xs.append(s[i + 1])
        i += 2
    return None
