"""Desk-scale resource limits shared across the package.

Every formula, brute-force oracle and materialization in this package
refuses work beyond a cap instead of silently grinding.  Every cap is a
fixed constant, read where the work is sized, and checked before any
enumeration starts.
"""

# Formulas with more variables than this are refused when they are built or
# parsed, before any table is formed: a formula is held as its truth table,
# and 2**12 entries is the largest table we consider desk scale.
DEFAULT_VAR_CAP = 12

# Materialized graphs refuse to build more nodes than this (length-13
# induced tournaments).
DEFAULT_NODE_CAP = 1 << 13

# Lengths past this are refused before any string of that length, or
# 2**length, is formed.  A sampled specifier audit of 1,000 pairs still
# finishes at this length: 4.6-7.2 s for pi2 on a 2-core host.
DEFAULT_LENGTH_CAP = 1 << 16

# Exhaustive pair validation refuses more unordered pairs than this.
DEFAULT_PAIR_BUDGET = 1 << 26

# Exhaustive associativity checks refuse more triples than this.  They hold
# three one-byte arrays of one entry per triple (the two sides and their
# mismatch mask): about 6 MB at this budget, which stops at length 7.
DEFAULT_TRIPLE_BUDGET = 1 << 21

# table_to_circuit refuses to query its Python edge function on more ordered
# node pairs than this.  The reductions build from parts and never reach it.
DEFAULT_QUERY_CAP = 1 << 18


class CapExceeded(RuntimeError):
    """Raised when an operation would exceed its configured desk-scale cap."""


def check_node_cap(count: int) -> None:
    """Refuse to materialize more than ``DEFAULT_NODE_CAP`` nodes."""
    if count > DEFAULT_NODE_CAP:
        raise CapExceeded(
            f"{count} nodes exceeds the materialization cap {DEFAULT_NODE_CAP}")


def _check_not_negative(length: int) -> None:
    """Refuse a negative string length; it is a usage error, not a cap."""
    if length < 0:
        raise ValueError(f"length {length} is negative")


def check_strings_node_cap(length: int, blocks: int = 1) -> None:
    """Refuse ``blocks`` copies of the 2**length strings past the node cap,
    judging a length past the cap's width before 2**length is formed."""
    _check_not_negative(length)
    if length > DEFAULT_NODE_CAP.bit_length():
        raise CapExceeded(
            f"2**{length} nodes exceeds the materialization cap {DEFAULT_NODE_CAP}")
    check_node_cap(blocks << length)


def check_length_cap(length: int) -> None:
    """Refuse strings longer than ``DEFAULT_LENGTH_CAP`` bits."""
    _check_not_negative(length)
    if length > DEFAULT_LENGTH_CAP:
        raise CapExceeded(
            f"length {length} exceeds the length cap {DEFAULT_LENGTH_CAP}")


def check_query_cap(count: int) -> None:
    """Refuse to query an edge table on more than ``DEFAULT_QUERY_CAP`` pairs."""
    if count > DEFAULT_QUERY_CAP:
        raise CapExceeded(
            f"{count} edge queries exceeds the query cap {DEFAULT_QUERY_CAP}")
