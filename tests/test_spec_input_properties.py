"""Property tests: no specifier name, node string or length crashes ``kings spec``."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kings.cli import main  # noqa: E402
from kings.pairing import Pairing, pair  # noqa: E402

# derandomized so that every run tries the same inputs
SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=300)

_NAME = st.sampled_from(["max", "pi2", "pi2:ttfe", "conp", "conp:ttplain", "np",
                         "kkings:3", "kkings:4", "kkings:3:ttfe",
                         "kkings:", "kkings:1", "pi2:frob", "max:x", "nope", ""])
# strings of every weave's core (zero, markers, members, antennas, specials)
# and leftovers at the lengths the built-ins weave, short strings, strings
# past the node cap and one past any desk-scale length
_CORE = [
    "0" * 12, "010000011000", "010000011010", pair(Pairing.V1, "1000", "000"),
    pair(Pairing.V1, "01", "000"), pair(Pairing.V1, "11", "110"),
    "000000001", "100000000", pair(Pairing.V2, "10", "101"),
    pair(Pairing.V1, "0110", "0001"), pair(Pairing.V1, "0110", "0000"),
]
_LEFTOVER = ["1" * 12, "000000000011", "1" * 8, "11" * 4 + "1", "1" * 13, "0" * 12 + "1"]
_SHORT = st.text(alphabet="01", max_size=8)
_NODE = st.one_of(
    _SHORT,
    st.sampled_from(_CORE + _LEFTOVER),
    st.sampled_from(["0" * 14, "1" * 14, "0" * 10 ** 5, "01" * 50_000]),
    st.sampled_from(["01a", "2", " 0", "0 1", "0b1"]),
)
# ``max`` materializes the whole length to answer ``spec king``, which
# costs seconds from length 10 on; past the node cap it is refused at once
_MAX_NODE = _NODE.filter(lambda z: not 8 < len(z) <= 13)
_K = st.one_of(st.integers(-1, 4), st.just(10 ** 20)).map(str)
_M = st.one_of(st.integers(-1, 8), st.just(10 ** 12)).map(str)
_SAMPLE = st.sampled_from(["-1", "0", "1", "40"])


def _king(name):
    node = _MAX_NODE if name.startswith("max") else _NODE
    return st.builds(lambda z, k: ["king", "--spec", name, f"--node={z}", f"--k={k}"],
                     node, _K)


_ARGV = st.one_of(
    _NAME.flatmap(_king),
    st.builds(lambda name, x, y: ["select", "--spec", name, x, y], _NAME, _NODE, _NODE),
    st.builds(lambda command, name, m, sample: [command, "--spec", name, f"--m={m}"]
              + ([] if sample is None else [f"--sample={sample}"]),
              st.sampled_from(["validate", "assoc"]), _NAME,
              st.one_of(st.integers(-1, 5), st.just(10 ** 12)).map(str),
              st.one_of(st.none(), _SAMPLE)),
    st.builds(lambda command, name, m, sample: [command, "--spec", name, f"--m={m}",
                                                f"--sample={sample}"],
              st.sampled_from(["validate", "assoc"]), _NAME, _M, _SAMPLE),
    st.builds(lambda name, m: ["materialize", "--spec", name, f"--m={m}"], _NAME, _M),
)


@SETTINGS
@hypothesis.given(_ARGV)
def test_spec_commands_never_crash(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["spec"] + argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
