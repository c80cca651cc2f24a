"""Property tests: no formula text crashes the parser or the reductions."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kings.cli import main  # noqa: E402
from kings.formula import FormulaSyntaxError, parse_formula_input  # noqa: E402
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


@SETTINGS
@hypothesis.given(st.sampled_from(["pi2", "conp", "np"]), FORMULA_TEXT)
def test_reduce_never_crashes(kind, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", "--kind", kind, "--formula", text])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
