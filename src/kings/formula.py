"""Propositional and forall-exists formulas, held as their truth tables.

Two formula shapes appear throughout the package: plain propositional
formulas over variables x1..xn, and balanced quantified formulas (a block
of n universal variables followed by n existential ones over a 2n-variable
matrix).  Everything in the package reads a formula only through its truth
table, so the table is the only form a formula takes: the parser computes
the table of each subexpression as it reads it, a variable being a column
and the operators acting on whole columns, and the truth oracles read their
answers off the table.  Formulas are capped at desk
scale: more than ``DEFAULT_VAR_CAP`` variables raise ``CapExceeded`` when a
formula is built or parsed.

Conventions
-----------
* An assignment is a bit-string whose leftmost character assigns variable 1.
* A truth table lists the value of every assignment in lexicographic order,
  i.e. bit ``i`` of the table is the value on the assignment whose binary
  reading is ``i`` (first variable most significant).
* In a 2n-variable matrix, variables 1..n are the universal block x1..xn and
  variables n+1..2n are the existential block y1..yn; the matrix is always
  evaluated on the concatenation ``x + y``.

Codecs turn formulas into bit-strings.  All codecs here are truth-table
based, so that deciding "is this bit-string a formula" is a pure length
check and decoding is total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Union

from .bitstrings import bits_to_int, check_bits, int_to_bits
from .limits import DEFAULT_VAR_CAP, CapExceeded


class FormulaSyntaxError(ValueError):
    """Parse failure, carrying the 0-based character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class CodecError(ValueError):
    """A formula is not encodable by the chosen codec."""


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

def _check_arity(num_vars: int) -> None:
    """Refuse arities below 1 or above the cap, before any 2**n is formed."""
    if num_vars < 1:
        raise ValueError("a formula must have at least one variable")
    if num_vars > DEFAULT_VAR_CAP:
        raise CapExceeded(
            f"{num_vars} variables exceeds the formula cap {DEFAULT_VAR_CAP}"
        )


@dataclass(frozen=True)
class PropFormula:
    """A propositional formula over x1..x<num_vars>, held as its truth table."""

    num_vars: int
    bits: str

    def __post_init__(self):
        _check_arity(self.num_vars)
        check_bits(self.bits)
        if len(self.bits) != 1 << self.num_vars:
            raise ValueError("table length must be 2**num_vars")


@dataclass(frozen=True)
class ForallExistsFormula:
    """Balanced quantified formula: n universal then n existential variables."""

    n: int
    matrix: PropFormula

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("the universal block must be nonempty")
        if self.matrix.num_vars != 2 * self.n:
            raise ValueError(
                f"matrix has {self.matrix.num_vars} variables, expected {2 * self.n}"
            )


def formula_from_table(arity: int, bits: str) -> PropFormula:
    """The formula whose truth table is ``bits``."""
    return PropFormula(arity, bits)


def fe_from_table(n: int, bits: str) -> ForallExistsFormula:
    """The forall-exists formula whose 2n-variable matrix table is ``bits``."""
    return ForallExistsFormula(n, PropFormula(2 * n, bits))


# ---------------------------------------------------------------------------
# Parsing, straight to the truth table
# ---------------------------------------------------------------------------

_VARS_PREFIX = re.compile(r"\s*vars\s*=\s*(\d+)\s*:")
_VAR_TOKEN = re.compile(r"[xy]\d+")

# The parser recurses once per '!' and three times per '('; this bound keeps
# it well inside the interpreter's recursion limit.
_MAX_NESTING = 100

# A subformula is its table over all DEFAULT_VAR_CAP variables, held as an
# int whose most significant bit is the all-zeros assignment.  Variable k's
# column is runs of 2**(cap - k) zeros and ones; an index past the cap reads
# as a zero column until the arity check refuses it.
_ROWS = 1 << DEFAULT_VAR_CAP
_ALL = (1 << _ROWS) - 1
_COLUMNS = [int(("0" * run + "1" * run) * (_ROWS // (2 * run)), 2)
            for run in (_ROWS >> k for k in range(1, DEFAULT_VAR_CAP + 1))]


class _Parser:
    """Recursive descent over ``text`` from ``pos``; offsets index ``text``."""

    def __init__(self, text: str, pos: int, num_universal):
        self.text = text
        self.pos = pos
        self.num_universal = num_universal
        self.max_index = 0
        self.depth = 0  # '!' and '(' currently open

    def error(self, message, at=None):
        raise FormulaSyntaxError(message, self.pos if at is None else at)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> int:
        table = self.parse_or()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return table

    def parse_or(self) -> int:
        table = self.parse_and()
        while self.peek() == "|":
            self.pos += 1
            table |= self.parse_and()
        return table

    def parse_and(self) -> int:
        table = self.parse_atom()
        while self.peek() == "&":
            self.pos += 1
            table &= self.parse_atom()
        return table

    def parse_atom(self) -> int:
        c = self.peek()
        if c in ("!", "("):
            if self.depth == _MAX_NESTING:
                self.error(f"'!' and '(' nest deeper than {_MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            if c == "!":
                table = _ALL ^ self.parse_atom()
            else:
                table = self.parse_or()
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
            self.depth -= 1
            return table
        if c in ("x", "y"):
            m = _VAR_TOKEN.match(self.text, self.pos)
            if not m:
                self.error("expected a variable index")
            start = self.pos
            self.pos = m.end()
            k = int(m.group()[1:])
            if k < 1:
                self.error("variable indices start at 1", at=start)
            if c == "y":
                if self.num_universal is None:
                    self.error("y-variables need a universal count", at=start)
                k = self.num_universal + k
            self.max_index = max(self.max_index, k)
            return _COLUMNS[k - 1] if k <= DEFAULT_VAR_CAP else 0
        self.error("expected a variable, '!' or '('")


def _parse_table(text: str, pos: int, num_universal, count=None) -> PropFormula:
    """The formula ``text[pos:]``; offsets index ``text``.

    ``count`` is a variable count the user wrote, as ``(num_vars, at,
    spelled)``: a count below the highest index is reported as ``spelled``
    at offset ``at``, where it was written.
    """
    parser = _Parser(text, pos, num_universal)
    table = parser.parse()  # every parse holds a variable, so max_index >= 1
    num_vars = parser.max_index
    if count is not None:
        num_vars, at, spelled = count
        if parser.max_index > num_vars:
            raise FormulaSyntaxError(
                f"{spelled} is below the highest index {parser.max_index}", at)
    _check_arity(num_vars)
    rows = format(table, f"0{_ROWS}b")
    return PropFormula(num_vars, rows[::1 << (DEFAULT_VAR_CAP - num_vars)])


def parse_formula(text: str, num_universal: Optional[int] = None) -> PropFormula:
    """Parse an expression over x<k>/y<k>, ``!``, ``&``, ``|`` and parentheses.

    ``y<k>`` is sugar for variable ``num_universal + k`` and is only legal when
    a universal count is supplied (matrix context).  A leading ``vars=<n>:``
    overrides the inferred variable count.  Each subexpression is parsed
    straight to its truth table, so the result is the formula's table.
    Raises :class:`FormulaSyntaxError` with the 0-based offset of the first
    problem, and then ``CapExceeded`` past the variable cap.
    """
    m = _VARS_PREFIX.match(text)
    if m:
        num_vars = int(m.group(1))
        count = (num_vars, 0, f"vars={num_vars}")
        return _parse_table(text, m.end(), num_universal, count)
    return _parse_table(text, 0, num_universal)


# ---------------------------------------------------------------------------
# Truth oracles, read off the table
# ---------------------------------------------------------------------------

def eval_formula(phi: PropFormula, assignment: str) -> bool:
    """Evaluate under the assignment whose bit i gives variable i+1."""
    check_bits(assignment)
    if len(assignment) != phi.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {phi.num_vars}"
        )
    return phi.bits[int(assignment, 2)] == "1"


def eval_forall_exists(phi: ForallExistsFormula) -> bool:
    """True iff for every x in {0,1}^n some y in {0,1}^n satisfies the matrix."""
    return forall_exists_truth(phi.n, phi.matrix.bits)


def is_tautology(phi: PropFormula) -> bool:
    return "0" not in phi.bits


def is_satisfiable(phi: PropFormula) -> bool:
    return "1" in phi.bits


def truth_table_of(phi: PropFormula) -> str:
    return phi.bits


def forall_exists_truth(n: int, table_bits: str) -> bool:
    """Forall-exists truth read straight off a 2n-variable matrix table."""
    if len(table_bits) != 1 << (2 * n):
        raise ValueError("table length must be 2**(2n)")
    block = 1 << n
    for x in range(block):
        row = table_bits[x * block:(x + 1) * block]
        if "1" not in row:
            return False
    return True


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------

class TTPlainCodec:
    """Encode a propositional formula as its full truth table.

    Accepted encodings are exactly the bit-strings of length 2**n, n >= 1.
    """

    name = "ttplain"
    kind = "prop"

    def encode(self, phi) -> str:
        if not isinstance(phi, PropFormula):
            raise CodecError("ttplain encodes propositional formulas")
        return phi.bits

    def encoding_length_for(self, n):
        return (1 << n) if 1 <= n <= DEFAULT_VAR_CAP else None

    def decode_params(self, bits):
        """(n, table) when the length is accepted, else None."""
        length = len(bits)
        if length < 2:
            return None
        n = length.bit_length() - 1
        if length != 1 << n or n > DEFAULT_VAR_CAP:
            return None
        return n, bits

    def decode(self, bits):
        check_bits(bits)
        params = self.decode_params(bits)
        return None if params is None else PropFormula(*params)


class TTFECodec:
    """Encode a forall-exists formula as its matrix truth table.

    Accepted encodings are exactly the bit-strings of length 2**(2n), n >= 1:
    lengths 4, 16, 64, ...; length 2 is not a code.
    """

    name = "ttfe"
    kind = "fe"

    def encode(self, phi) -> str:
        if not isinstance(phi, ForallExistsFormula):
            raise CodecError("ttfe encodes forall-exists formulas")
        return phi.matrix.bits

    def encoding_length_for(self, n):
        return (1 << (2 * n)) if 1 <= n and 2 * n <= DEFAULT_VAR_CAP else None

    def decode_params(self, bits):
        length = len(bits)
        if length < 4:
            return None
        t = length.bit_length() - 1
        if length != 1 << t or t % 2 or t > DEFAULT_VAR_CAP:
            return None
        return t // 2, bits

    def decode(self, bits):
        check_bits(bits)
        params = self.decode_params(bits)
        return None if params is None else fe_from_table(*params)


class CatalogCodec:
    """Sixteen fixed 4-variable matrices (n = 2), encoded by 4-bit index.

    The catalog ships as a data file; at least four entries are true and four
    are false as forall-exists formulas, which the tests establish with the
    brute-force oracle.
    """

    name = "catalog"
    kind = "fe"

    def __init__(self, tables=None):
        if tables is None:
            tables = load_catalog_tables()
        tables = tuple(tables)
        if len(tables) != 16:
            raise ValueError("the catalog must hold exactly 16 matrices")
        for t in tables:
            check_bits(t)
            if len(t) != 16:
                raise ValueError("catalog matrices are 4-variable tables (16 bits)")
        self.tables = tables
        self._index = {t: i for i, t in enumerate(tables)}

    def encode(self, phi) -> str:
        if not isinstance(phi, ForallExistsFormula) or phi.n != 2:
            raise CodecError("the catalog holds n=2 forall-exists formulas")
        bits = phi.matrix.bits
        if bits not in self._index:
            raise CodecError("matrix not in catalog")
        return int_to_bits(self._index[bits], 4)

    def encoding_length_for(self, n):
        return 4 if n == 2 else None

    def decode_params(self, bits):
        if len(bits) != 4:
            return None
        return 2, self.tables[bits_to_int(bits)]

    def decode(self, bits):
        check_bits(bits)
        params = self.decode_params(bits)
        return None if params is None else fe_from_table(*params)

    def entry(self, index: int) -> ForallExistsFormula:
        if not 0 <= index < 16:
            raise ValueError("catalog index out of range")
        return fe_from_table(2, self.tables[index])


# Every codec decodes totally: a formula when the bits are a code for one,
# else None.
FormulaCodec = Union[TTPlainCodec, TTFECodec, CatalogCodec]

_catalog_cache = None


def load_catalog_tables():
    global _catalog_cache
    if _catalog_cache is None:
        text = resources.files("kings").joinpath("data/catalog16.txt").read_text()
        tables = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                tables.append(line)
        _catalog_cache = tuple(tables)
    return _catalog_cache


def codec_by_name(name: str) -> FormulaCodec:
    if name == "ttplain":
        return TTPlainCodec()
    if name == "ttfe":
        return TTFECodec()
    if name == "catalog":
        return CatalogCodec()
    raise ValueError(f"unknown codec {name!r}")


# ---------------------------------------------------------------------------
# Text input for the CLI and the reductions front end
# ---------------------------------------------------------------------------

_FE_PREFIX = re.compile(r"fe:n=(\d+):(.*)$", re.DOTALL)


def _table_arity(bits: str) -> int:
    """The arity a truth-table literal's length gives, read without a 2**n."""
    n = len(bits).bit_length() - 1
    if len(bits) < 2 or len(bits) != 1 << n:
        raise ValueError("truth-table literals need a power-of-two length >= 2")
    return n


def parse_formula_input(text: str):
    """Parse any of the accepted formula spellings.

    ``tt:<bits>`` is a truth-table literal, ``fe:n=<n>:<matrix-expr-or-tt>``
    a forall-exists formula, ``cat:<index>`` a catalog entry, anything else a
    plain expression.  Returns a :class:`PropFormula` or
    :class:`ForallExistsFormula`; raises ``ValueError`` on malformed input
    and ``CapExceeded`` past the variable cap.  Syntax-error offsets index
    ``text`` as given, leading whitespace included.
    """
    t = text.strip()
    if t.startswith("tt:"):
        bits = t[3:]
        return PropFormula(_table_arity(bits), bits)
    if t.startswith("fe:"):
        lead = len(text) - len(text.lstrip())
        m = _FE_PREFIX.match(text, lead)
        if not m:
            raise ValueError("forall-exists input must look like fe:n=<n>:<matrix>")
        n = int(m.group(1))
        if n < 1:
            raise ValueError("the universal block must be nonempty")
        rest = m.group(2).strip()
        if rest.startswith("tt:"):
            bits = rest[3:]
            if _table_arity(bits) != 2 * n:
                raise ValueError(f"matrix table must have length 2**{2 * n}")
            return fe_from_table(n, bits)
        count = (2 * n, lead, f"n={n} (a {2 * n}-variable matrix)")
        return ForallExistsFormula(n, _parse_table(text, m.start(2), n, count))
    if t.startswith("cat:"):
        return CatalogCodec().entry(int(t[4:]))
    return parse_formula(text)
