"""Desk-scale resource limits shared across the package.

Every formula, brute-force oracle and materialization in this package
refuses work beyond a cap instead of silently grinding.  The node, pair and
triple caps can be raised per call by callers who know what they are doing;
the variable cap is fixed.
"""

# Formulas with more variables than this are refused when they are built or
# parsed, before any table is formed: a formula is held as its truth table,
# and 2**12 entries is the largest table we consider desk scale.
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
