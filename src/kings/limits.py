"""Desk-scale resource limits shared across the package.

Every brute-force oracle and materialization in this package refuses work
beyond a configurable cap instead of silently grinding.  Callers can pass
larger caps explicitly when they know what they are doing.
"""

# Brute-force truth oracles refuse formulas with more variables than this
# (2**24 matrix evaluations is the ceiling we consider desk scale).
DEFAULT_VAR_CAP = 12

# Materialized graphs refuse to build more nodes than this (length-13
# induced tournaments).
DEFAULT_NODE_CAP = 1 << 13

# Exhaustive pair validation refuses more unordered pairs than this.
DEFAULT_PAIR_BUDGET = 1 << 26

# Exhaustive associativity checks refuse more triples than this.
DEFAULT_TRIPLE_BUDGET = 1 << 21


class CapExceeded(RuntimeError):
    """Raised when an operation would exceed its configured desk-scale cap."""


def check_node_cap(count: int, node_cap: int) -> None:
    """Refuse to materialize more than ``node_cap`` nodes."""
    if count > node_cap:
        raise CapExceeded(f"{count} nodes exceeds the materialization cap {node_cap}")
