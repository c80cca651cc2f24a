"""Property tests: no formula text crashes the parser or the reductions."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kings.cli import main  # noqa: E402
from kings.formula import (  # noqa: E402
    ForallExistsFormula,
    FormulaSyntaxError,
    parse_formula_input,
)
from kings.limits import CapExceeded  # noqa: E402

# derandomized so that every run tries the same inputs
SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=300)

# text steered toward the prefixes parse_formula_input dispatches on: small
# and huge counts, well-formed expressions and tables, and fragments of both
_NUMBER = st.one_of(st.integers(-1, 14), st.integers(0, 10 ** 15)).map(str)
_EXPR = st.recursive(
    st.builds("{}{}".format, st.sampled_from("xxy"),
              st.one_of(st.integers(1, 4), st.integers(0, 14))),
    lambda e: st.one_of(e.map("!{}".format),
                        st.builds("({}{}{})".format, e, st.sampled_from("&|"), e)),
    max_leaves=8)
_BITS = st.one_of(
    st.integers(0, 6).flatmap(lambda k: st.text("01", min_size=1 << k, max_size=1 << k)),
    st.text("01", max_size=70))
_FRAGMENT = st.one_of(
    st.sampled_from(["tt:", "fe:n=", "cat:", "vars=", ":", "!", "&", "|", "(", ")", " "]),
    _NUMBER, _EXPR, _BITS)
FORMULA_TEXT = st.one_of(
    _EXPR,
    _BITS.map("tt:{}".format),
    st.builds("fe:n={}:{}".format, _NUMBER, st.one_of(_EXPR, _BITS.map("tt:{}".format))),
    _NUMBER.map("cat:{}".format),
    st.builds("vars={}: {}".format, _NUMBER, _EXPR),
    st.lists(_FRAGMENT, max_size=6).map("".join),
    st.text(max_size=40),
)


@SETTINGS
@hypothesis.given(FORMULA_TEXT)
def test_parse_formula_input_returns_or_raises_an_input_error(text):
    try:
        parse_formula_input(text)
    except (ValueError, FormulaSyntaxError, CapExceeded):
        pass


# formulas of at most 7 variables (3 universal ones for a matrix), the
# sizes the circuit reductions take in full, each paired with its kinds
_SMALL_VARS = st.integers(1, 7)
_SMALL_PROP = st.one_of(
    _SMALL_VARS.flatmap(lambda k: st.text("01", min_size=1 << k, max_size=1 << k))
    .map("tt:{}".format),
    st.builds("vars={}: {}".format, st.integers(4, 7), _EXPR))
_SMALL_FE = st.integers(1, 3).flatmap(lambda n: st.one_of(
    st.text("01", min_size=4 ** n, max_size=4 ** n).map(f"fe:n={n}:tt:{{}}".format),
    _EXPR.map(f"fe:n={max(n, 2)}:{{}}".format)))
_FE_KIND = st.one_of(st.sampled_from(["2partite", "2partite", "gw-antenna:x"]),
                     st.integers(0, 40).map("gw-antenna:{}".format))
CIRCUIT_REDUCE = st.one_of(
    st.tuples(st.just("onekings"), _SMALL_PROP),
    st.tuples(_FE_KIND, _SMALL_FE),
    st.tuples(st.one_of(st.just("onekings"), _FE_KIND), FORMULA_TEXT))


def _reduce(kind, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", "--kind", kind, "--formula", text])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _truth(phi):
    """Tautology of a formula, or truth of a forall-exists formula, read off
    its table (the universal block indexes the rows)."""
    if not isinstance(phi, ForallExistsFormula):
        return "0" not in phi.bits
    block = 1 << phi.n
    table = phi.matrix.bits
    return all("1" in table[x * block:(x + 1) * block] for x in range(block))


@SETTINGS
@hypothesis.given(st.sampled_from(["pi2", "conp", "np"]), FORMULA_TEXT)
def test_reduce_never_crashes(kind, text):
    _reduce(kind, text)


@SETTINGS
@hypothesis.given(CIRCUIT_REDUCE)
def test_circuit_reductions_never_crash_and_match_the_oracle(case):
    kind, text = case
    code, out = _reduce(kind, text)
    if code == 0:
        want = _truth(parse_formula_input(text))
        assert f"expected {'true' if want else 'false'}" in out.splitlines()
