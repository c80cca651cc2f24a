"""Property tests: no graph text crashes ``kings king check`` or ``king find``."""

import contextlib
import io
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kings.cli import main  # noqa: E402

# derandomized so that every run tries the same inputs
SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=300)

# text steered toward the directives parse_graph_text dispatches on: graphs
# that build, node counts just past the node cap and huge ones, node ids in
# and out of range, and fragments of well-formed lines
_COUNT = st.one_of(st.integers(-1, 9), st.just(8193),
                   st.integers(10 ** 9, 10 ** 15)).map(str)
_ID = st.one_of(st.integers(-1, 9), st.integers(10 ** 9, 10 ** 20)).map(str)
_LABEL = st.sampled_from(["a", "b", "x y", "0", "#c"])
_LINE = st.one_of(
    st.builds("edge {} {}".format, _ID, _ID),
    st.builds("label {} {}".format, _ID, _LABEL),
    _COUNT.map("nodes {}".format),
    st.sampled_from(["", "# comment", "edge", "nodes", "label 1", "frob 1 2", "edge 0 1 2"]),
    st.text(max_size=12),
)


def _well_formed(n):
    ids = st.integers(0, n - 1)
    edge = st.builds(lambda u, d: f"edge {u} {(u + d) % n}", ids, st.integers(1, max(1, n - 1)))
    label = st.builds("label {} {}".format, ids, _LABEL)
    return st.lists(st.one_of(edge, edge, label), max_size=3 * n).map(
        lambda lines: "\n".join([f"nodes {n}"] + lines))


_BUILDS = st.integers(1, 7).flatmap(_well_formed)
GRAPH_TEXT = st.one_of(
    _BUILDS,
    st.builds("{}\n{}".format, _BUILDS, _LINE),
    st.builds(lambda count, lines: "\n".join([f"nodes {count}"] + lines),
              _COUNT, st.lists(_LINE, max_size=12)),
    st.lists(_LINE, max_size=8).map("\n".join),
)
_NODE = st.one_of(st.integers(0, 7).map(str), _ID, _LABEL, st.text(max_size=4))
_K = st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(-1, 0),
               st.just(10 ** 20)).map(str)


@SETTINGS
@hypothesis.given(st.sampled_from(["check", "find"]), GRAPH_TEXT, _NODE, _K)
def test_king_commands_never_crash(command, text, node, k):
    args = [f"--node={node}", f"--k={k}"] if command == "check" else []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["king", command, "--graph", path] + args)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
