import pytest

from kings.cli import main
from kings.digraph import format_graph_text, parse_graph_text


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


def test_king_find(tmp_path, capsys):
    g = graph_file(tmp_path, CYCLE)
    code, out, _ = run(capsys, "king", "find", "--graph", g)
    assert code == 0 and out.strip() == "0 a"


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


def test_spec_materialize(tmp_path, capsys):
    code, out, _ = run(capsys, "spec", "materialize", "--spec", "max", "--m", "2")
    assert code == 0
    g = parse_graph_text(out)
    assert g.num_nodes == 4
    dot = tmp_path / "t.dot"
    code, out, _ = run(capsys, "spec", "materialize", "--spec", "max", "--m", "2",
                       "--dot", str(dot))
    assert code == 0 and "->" in dot.read_text()


def test_spec_validate(capsys):
    code, out, _ = run(capsys, "spec", "validate", "--spec", "conp:ttplain",
                       "--m", "8")
    assert code == 0 and "pass" in out


def test_spec_assoc(capsys):
    code, out, _ = run(capsys, "spec", "assoc", "--spec", "max", "--m", "4")
    assert code == 0 and "associative=True" in out


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
