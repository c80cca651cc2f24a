import pytest

from kings.cli import main
from kings.digraph import format_graph_text, parse_graph_text
from kings.pairing import Pairing, pair
from kings.specifier import induced_graph, make_builtin_specifier


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def graph_file(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CYCLE = "nodes 3\nlabel 0 a\nlabel 1 b\nlabel 2 c\nedge 0 1\nedge 1 2\nedge 2 0\n"
TRANSITIVE = "nodes 3\nedge 0 1\nedge 0 2\nedge 1 2\n"


def test_king_check(tmp_path, capsys):
    g = graph_file(tmp_path, CYCLE)
    code, out, _ = run(capsys, "king", "check", "--graph", g, "--node", "a", "--k", "2")
    assert code == 0 and out.strip() == "true"
    g2 = graph_file(tmp_path, TRANSITIVE)
    code, out, _ = run(capsys, "king", "check", "--graph", g2, "--node", "1", "--k", "2")
    assert code == 1 and out.strip() == "false"


def test_king_check_usage_errors(tmp_path, capsys):
    g = graph_file(tmp_path, TRANSITIVE)
    code, _, _ = run(capsys, "king", "check", "--graph", g, "--node", "7", "--k", "0")
    assert code == 2
    code, _, _ = run(capsys, "king", "check", "--graph", g, "--node", "9", "--k", "2")
    assert code == 2
    code, _, _ = run(capsys, "king", "check", "--graph", g, "--wat", "1")
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("nodes 2\nedge 0 1\nlabel 7 a\nlabel -1 b\n",
     "line 3: label for node 7 not in graph of 2 nodes"),
    ("nodes 2\nedge 0 1\nlabel -1 b\n",
     "line 3: label for node -1 not in graph of 2 nodes"),
    ("nodes 2\nlabel 2 c\nedge 0 1\n",
     "line 2: label for node 2 not in graph of 2 nodes"),
    ("nodes 2\nlabel 0 a\nedge 0 1\nlabel 0 b\n",
     "line 4: second label for node 0"),
])
def test_label_lines_must_name_each_node_once(tmp_path, capsys, text, message):
    g = graph_file(tmp_path, text)
    for argv in (("check", "--graph", g, "--node", "0", "--k", "1"), ("find", "--graph", g)):
        code, out, err = run(capsys, "king", *argv)
        assert code == 2 and out == "" and message in err
        assert "Traceback" not in err


def test_king_find(tmp_path, capsys):
    g = graph_file(tmp_path, CYCLE)
    code, out, _ = run(capsys, "king", "find", "--graph", g)
    assert code == 0 and out.strip() == "0 a"


def test_king_commands_refuse_a_graph_over_the_node_cap(tmp_path, capsys):
    g = graph_file(tmp_path, "nodes 3000000000\nedge 0 1\n")
    code, out, err = run(capsys, "king", "check", "--graph", g, "--node", "0", "--k", "2")
    assert code == 3 and out == "" and "materialization cap" in err
    assert "Traceback" not in err
    code, out, err = run(capsys, "king", "find", "--graph", g)
    assert code == 3 and out == "" and "materialization cap" in err


def test_spec_select_and_king(capsys):
    code, out, _ = run(capsys, "spec", "select", "--spec", "max", "01", "10")
    assert code == 0 and out.strip() == "10"
    code, out, _ = run(capsys, "spec", "king", "--spec", "max",
                       "--node", "1111", "--k", "1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "spec", "king", "--spec", "max",
                       "--node", "0000", "--k", "2")
    assert code == 1 and out.strip() == "false"


def test_spec_king_cap_exceeded(capsys):
    code, _, err = run(capsys, "spec", "king", "--spec", "max",
                       "--node", "0" * 20, "--k", "2")
    assert code == 3 and "cap" in err


def test_weave_spec_king_is_bounded_by_the_core_not_the_length(capsys):
    # conp at m=22 pairs the 256 three-variable tables: a core of 2,817
    # strings among 2**22
    def spec_king(spec, node):
        return run(capsys, "spec", "king", "--spec", spec, "--node", node, "--k", "2")

    assert spec_king("conp", "0000000000000000111001") == (1, "false\n", "")
    assert spec_king("conp", pair(Pairing.V1, "11111111", "00000")) == (0, "true\n", "")
    for table in ("11111110", "00000000"):
        assert spec_king("conp", pair(Pairing.V1, table, "00000")) == (1, "false\n", "")
    # a leftover past the node cap is refused, as before the core tournament
    code, _, err = spec_king("conp", "1" * 22)
    assert code == 3 and "2**22 nodes exceeds" in err
    # pi2 at m=37 pairs the 65,536 two-variable matrices: 655,361 core strings
    code, out, err = spec_king("pi2", pair(Pairing.V1, "0110" * 4, "0000"))
    assert code == 3 and "655361 nodes exceeds" in err
    assert "Traceback" not in out + err and err.count("\n") == 1


def test_huge_lengths_are_refused_before_two_to_the_length(tmp_path, capsys):
    # a length far past the node cap is refused from the length alone
    huge = str(10 ** 12)
    code, _, err = run(capsys, "spec", "materialize", "--spec", "pi2", "--m", huge)
    assert code == 3 and f"2**{huge} nodes" in err
    circ = tmp_path / "c.txt"
    circ.write_text(f"inputs {2 * 10 ** 12}\ng0 CONST 1\noutput g0\n")
    code, _, err = run(capsys, "gw", "is-tournament", "--circuit", str(circ))
    assert code == 3 and f"2**{huge} nodes" in err
    # and so is a length that would size a string or 2**length of its own
    for argv in (["mpt", "lift-j", "--circuit", str(circ), "--j", "2", "--n", huge],
                 ["spec", "validate", "--spec", "max", "--m", huge, "--sample", "5"],
                 ["spec", "assoc", "--spec", "max", "--m", huge, "--sample", "5"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and f"length {huge} exceeds" in err, argv
        assert "Traceback" not in out + err and err.count("\n") == 1, argv


@pytest.mark.parametrize("command", ["validate", "assoc", "materialize"])
def test_negative_lengths_are_usage_errors(capsys, command):
    code, out, err = run(capsys, "spec", command, "--spec", "pi2", "--m", "-1")
    assert code == 2 and out == ""
    assert err == "error: length -1 is negative\n"


def test_spec_materialize(tmp_path, capsys):
    code, out, _ = run(capsys, "spec", "materialize", "--spec", "max", "--m", "2")
    assert code == 0
    g = parse_graph_text(out)
    assert g.num_nodes == 4
    dot = tmp_path / "t.dot"
    code, out, _ = run(capsys, "spec", "materialize", "--spec", "max", "--m", "2",
                       "--dot", str(dot))
    assert code == 0 and "->" in dot.read_text()


@pytest.mark.parametrize("name", ["pi2", "conp", "np", "kkings:3"])
def test_weave_graph_text_round_trips(name):
    spec = make_builtin_specifier(name)
    for m in range(4):
        g = induced_graph(spec, m)
        back = parse_graph_text(format_graph_text(g))
        assert back.labels == g.labels and (back.adj == g.adj).all(), (name, m)


def test_the_length_0_weave_goes_from_materialize_to_king_check(tmp_path, capsys):
    code, out, _ = run(capsys, "spec", "materialize", "--spec", "pi2", "--m", "0")
    assert code == 0 and out == "nodes 1\nlabel 0 \n"
    g = graph_file(tmp_path, out)
    code, out, err = run(capsys, "king", "check", "--graph", g, "--node", "0", "--k", "1")
    assert code == 0 and out == "true\n" and err == ""


def test_spec_validate(capsys):
    code, out, _ = run(capsys, "spec", "validate", "--spec", "conp:ttplain",
                       "--m", "8")
    assert code == 0 and "pass" in out
    code, _, err = run(capsys, "spec", "validate", "--spec", "max", "--m", "14")
    assert code == 3 and "budget" in err


def test_spec_assoc(capsys):
    code, out, _ = run(capsys, "spec", "assoc", "--spec", "max", "--m", "4")
    assert code == 0 and "associative=True" in out
    code, _, err = run(capsys, "spec", "assoc", "--spec", "max", "--m", "8")
    assert code == 3 and "budget" in err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--kind", "conp", "--formula", "tt:11")
    assert code == 0
    assert "node 01011000" in out and "length 8" in out and "expected true" in out
    code, out, _ = run(capsys, "reduce", "--kind", "kkings:3", "--formula", "cat:0")
    assert code == 0 and "length 13" in out
    code, out, _ = run(capsys, "reduce", "--kind", "2partite",
                       "--formula", "fe:n=1:tt:1001")
    assert code == 0 and "model jt j=2 n=2" in out and "inputs 6" in out
    code, out, _ = run(capsys, "reduce", "--kind", "gw-antenna:3",
                       "--formula", "fe:n=1:tt:1001")
    assert code == 0 and "model gw n=3" in out
    code, _, _ = run(capsys, "reduce", "--kind", "frob", "--formula", "x1")
    assert code == 2


@pytest.mark.parametrize("kind", ["conp", "onekings"])
def test_reduce_deeply_nested_formulas_do_not_crash(capsys, kind):
    # the conp reduction maps unparsable input to its fixed non-king node
    # (exit 0); onekings reports the syntax error (exit 2)
    for formula in ("!" * 3000 + "x1", "(" * 3000 + "x1" + ")" * 3000,
                    "&".join(["x1"] * 3000)):
        code, _, err = run(capsys, "reduce", "--kind", kind, "--formula", formula)
        assert code in (0, 2) and "Traceback" not in err


def test_reduce_over_the_variable_cap(capsys):
    # onekings reports the cap; conp maps the formula to its non-king node
    code, _, err = run(capsys, "reduce", "--kind", "onekings", "--formula", "vars=13: x1")
    assert code == 3 and "cap" in err
    code, out, _ = run(capsys, "reduce", "--kind", "conp", "--formula", "vars=13: x1")
    assert code == 0 and "node 00000001" in out and "expected false" in out


def _gate_count(out):
    return sum(1 for line in out.splitlines() if line.startswith("g"))


def test_reduce_and_lift_at_desk_scale_emit_small_circuits(tmp_path, capsys):
    # the 12-variable onekings circuit is a mux over the header's row, not
    # one minterm per edge of its 8192 nodes
    code, out, err = run(capsys, "reduce", "--kind", "onekings", "--formula", "vars=12: x1")
    assert code == 0 and "model gw n=13" in out and err == ""
    assert _gate_count(out) < 20_000
    # the k-shift copies its input circuit once, plus id tests linear in n
    sizes = {}
    for gates in (2, 201):
        circ = tmp_path / f"c{gates}.txt"
        lines = ["inputs 20", "g0 INPUT 3", "g1 INPUT 14"]
        lines += [f"g{i} {'AND' if i % 2 else 'OR'} g{i - 1} g{i - 2}"
                  for i in range(2, gates)]
        circ.write_text("\n".join(lines + [f"output g{gates - 1}"]) + "\n")
        code, out, _ = run(capsys, "mpt", "lift-k", "--circuit", str(circ),
                           "--j", "2", "--n", "9", "--node", "1:" + "0" * 9)
        assert code == 0 and "model jt j=2 n=10" in out and "node 2:1000000000" in out
        sizes[gates] = _gate_count(out)
    assert sizes[2] < 150 and 150 < sizes[201] - sizes[2] <= 199


def test_main_reuses_its_parser_without_leaking_defaults(tmp_path, capsys):
    # one parser serves every call: each call sets an option the next omits
    g = graph_file(tmp_path, CYCLE)
    for _ in range(2):
        code, _, err = run(capsys, "reduce", "--kind", "conp", "--formula", "tt:11",
                           "--codec", "ttfe")
        assert code == 2 and "prop codec" in err
        code, out, _ = run(capsys, "reduce", "--kind", "conp", "--formula", "tt:11")
        assert code == 0 and "node 01011000" in out and "expected true" in out
        code, out, _ = run(capsys, "verify", "--suite", "claim2.2:n=1", "--records")
        assert code == 0 and "suite=claim2.2:n=1 total=16" in out
        code, _, err = run(capsys, "king", "check", "--graph", g, "--node", "a")
        assert code == 2 and "--k" in err
        code, out, _ = run(capsys, "verify", "--suite", "claim2.2:n=1")
        assert code == 0 and "16/16 agree" in out and "suite=" not in out
        code, out, _ = run(capsys, "spec", "validate", "--spec", "max", "--m", "3",
                           "--sample", "5", "--seed", "2")
        assert code == 0 and "mode=sampled(5,seed=2)" in out
        code, out, _ = run(capsys, "spec", "validate", "--spec", "max", "--m", "3")
        assert code == 0 and "mode=exhaustive" in out


def test_reduce_huge_universal_block_does_not_crash(capsys):
    # the matrix arity is read off the table's length, so no 2**(2n) is formed
    formula = "fe:n=1000000000000:tt:1001"
    code, _, err = run(capsys, "reduce", "--kind", "2partite", "--formula", formula)
    assert code == 2 and "error:" in err and "Traceback" not in err
    code, out, err = run(capsys, "reduce", "--kind", "conp", "--formula", formula)
    assert code == 0 and "node 00000001" in out and "Traceback" not in err


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "claim2.2:n=1")
    assert code == 0 and "16/16 agree" in out
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0 and "landau:n<=5" in out
    code, out, _ = run(capsys, "verify", "--suite", "landau:n<=5", "--records")
    assert code == 0 and any(line.startswith("suite=") for line in out.splitlines())
    code, _, err = run(capsys, "verify", "--suite", "zzz")
    assert code == 2


@pytest.mark.parametrize("sample", ["0", "-1", "-4"])
def test_sample_below_one_is_a_usage_error(capsys, sample):
    # no sample size may pass vacuously or fall back to the default
    for args in (["verify", "--suite", "lemma4.2"],
                 ["verify", "--suite", "fourking-mpt"],
                 ["spec", "validate", "--spec", "pi2", "--m", "8"],
                 ["spec", "assoc", "--spec", "pi2", "--m", "8"]):
        code, out, err = run(capsys, *args, "--sample", sample)
        assert code == 2 and out == "", args
        assert f"sample must be at least 1, got {sample}" in err, args
    code, out, _ = run(capsys, "verify", "--suite", "lemma4.2", "--sample", "1")
    assert code == 0 and "fast-1king-vs-brute-force: 1/1" in out


def test_gw_and_mpt_commands(tmp_path, capsys):
    # a two-part circuit that orients every cross pair from part 1 to part 2
    circ = tmp_path / "c.txt"
    circ.write_text("inputs 4\ng0 CONST 1\noutput g0\n")
    code, out, _ = run(capsys, "mpt", "king", "--circuit", str(circ),
                       "--j", "2", "--n", "1", "--node", "1:0", "--k", "2")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "mpt", "lift-j", "--circuit", str(circ),
                       "--j", "2", "--n", "1")
    assert code == 0 and "model jt j=3 n=1" in out
    code, out, _ = run(capsys, "mpt", "lift-k", "--circuit", str(circ),
                       "--j", "2", "--n", "1", "--node", "1:0")
    assert code == 0 and "model jt j=2 n=2" in out and "node 2:10" in out

    gw = tmp_path / "gw.txt"
    gw.write_text("inputs 2\ng0 INPUT 0\ng1 INPUT 1\ng2 NOT g1\ng3 AND g0 g2\noutput g3\n")
    code, out, _ = run(capsys, "gw", "king", "--circuit", str(gw),
                       "--node", "1", "--k", "2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "gw", "is-tournament", "--circuit", str(gw))
    assert code == 0  # exactly one orientation per pair
    both = tmp_path / "both.txt"
    both.write_text("inputs 2\ng0 CONST 1\noutput g0\n")
    code, out, _ = run(capsys, "gw", "is-tournament", "--circuit", str(both))
    assert code == 1 and out.strip() == "false"


def test_roundtrip_graph_text_through_cli(tmp_path, capsys):
    g = parse_graph_text(CYCLE)
    assert format_graph_text(g).startswith("nodes 3")
