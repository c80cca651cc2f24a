"""Property tests: no circuit text crashes ``kings gw`` or ``kings mpt king``."""

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

# text steered toward the lines parse_circuit dispatches on: circuits that
# build, input counts past the node cap and huge ones, gate references
# backward, forward and undefined, and fragments of well-formed lines
_SMALL = st.integers(-1, 9)
_HUGE = st.one_of(st.just(28), st.integers(10 ** 9, 10 ** 15))
_COUNT = st.one_of(_SMALL, _SMALL, _HUGE).map(str)
_GATE = st.one_of(_SMALL, st.just(10 ** 20)).map("g{}".format)
_LINE = st.one_of(
    _COUNT.map("inputs {}".format),
    st.builds("{} INPUT {}".format, _GATE, _COUNT),
    st.builds("{} CONST {}".format, _GATE, st.sampled_from(["0", "1", "2", "x"])),
    st.builds("{} NOT {}".format, _GATE, _GATE),
    st.builds("{} {} {} {}".format, _GATE, st.sampled_from(["AND", "OR"]), _GATE, _GATE),
    _GATE.map("output {}".format),
    st.sampled_from(["", "# comment", "inputs", "output", "g0", "g0 NOT", "g1 XOR g0 g0",
                     "inputs 1 2", "output g0 g1"]),
    st.text(max_size=12),
)


def _well_formed(num_inputs):
    """A valid circuit text: some of the inputs, then gates over earlier
    gates."""
    def text(ops):
        size = min(num_inputs, 6)
        lines = [f"inputs {num_inputs}"] + [f"g{i} INPUT {i}" for i in range(size)]
        for op, a, b in ops:
            if op == "CONST" or size == 0:
                lines.append(f"g{size} CONST {a % 2}")
            elif op == "NOT":
                lines.append(f"g{size} NOT g{a % size}")
            else:
                lines.append(f"g{size} {op} g{a % size} g{b % size}")
            size += 1
        return "\n".join(lines + [f"output g{size - 1}"])
    op = st.tuples(st.sampled_from(["CONST", "NOT", "AND", "OR", "AND", "OR"]),
                   st.integers(0, 99), st.integers(0, 99))
    return st.lists(op, min_size=0 if num_inputs else 1, max_size=12).map(text)


def circuit_text(num_inputs):
    """Circuit text: well formed over ``num_inputs`` inputs, with an extra
    line, or lines drawn at random."""
    builds = _well_formed(num_inputs)
    return st.one_of(
        builds,
        st.builds("{}\n{}".format, builds, _LINE),
        st.builds(lambda count, lines: "\n".join([f"inputs {count}"] + lines),
                  _COUNT, st.lists(_LINE, max_size=10)),
        st.lists(_LINE, max_size=8).map("\n".join),
    )


_K = st.one_of(st.integers(1, 3), st.integers(-1, 0), st.just(10 ** 20)).map(str)
_BITS = st.text("01", max_size=5)
_NODE_TEXT = st.one_of(_BITS, st.text(max_size=4))

# the gw model takes 2n inputs on nodes of length n; the mpt model takes
# j(n + 1) inputs on nodes <part>:<bits>.  Each command gets calls that
# decide (a circuit that builds, a node in range, k >= 1) and calls drawn
# with any counts and node text.
_GW_DECIDES = st.integers(1, 4).flatmap(lambda n: st.tuples(
    _well_formed(2 * n), st.text("01", min_size=n, max_size=n),
    st.integers(1, 3).map(str)))
_GW_ANY = st.one_of(st.integers(1, 4), _HUGE).flatmap(lambda n: st.tuples(
    circuit_text(2 * n), _NODE_TEXT, _K))
GW_ARGS = st.tuples(st.sampled_from(["king", "is-tournament"]),
                    st.one_of(_GW_DECIDES, _GW_ANY))

_MPT_DECIDES = st.tuples(st.integers(2, 4), st.integers(0, 2)).flatmap(
    lambda jn: st.tuples(
        st.just(jn), _well_formed(jn[0] * (jn[1] + 1)),
        st.builds("{}:{}".format, st.integers(1, jn[0]),
                  st.text("01", min_size=jn[1], max_size=jn[1])),
        st.integers(1, 3).map(str)))
_J = st.one_of(st.integers(-1, 4), _HUGE)
_N = st.one_of(st.integers(-1, 2), _HUGE)
_MPT_ANY = st.tuples(_J, _N).flatmap(lambda jn: st.tuples(
    st.just(jn), circuit_text(max(0, jn[0] * (jn[1] + 1))),
    st.one_of(st.builds("{}:{}".format, st.integers(0, 5), _BITS), st.text(max_size=4)),
    _K))
MPT_ARGS = st.one_of(_MPT_DECIDES, _MPT_ANY)


def _run(text, args):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "circuit.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args[:2] + ["--circuit", path] + args[2:])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@SETTINGS
@hypothesis.given(GW_ARGS)
def test_gw_commands_never_crash(case):
    command, (text, node, k) = case
    args = [f"--node={node}", f"--k={k}"] if command == "king" else []
    _run(text, ["gw", command] + args)


@SETTINGS
@hypothesis.given(MPT_ARGS)
def test_mpt_king_never_crashes(case):
    (j, n), text, node, k = case
    _run(text, ["mpt", "king", f"--j={j}", f"--n={n}", f"--node={node}", f"--k={k}"])
