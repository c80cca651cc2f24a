"""Command-line entry point.

Decision subcommands print ``true`` or ``false`` and mirror the answer in
the exit code: 0 for success or a positive decision, 1 for a negative
decision or failed suite, 2 for usage and input errors, 3 when a cap is
exceeded.  All randomness is seeded; identical flags give identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .circuit import (
    CircuitParseError,
    JTournamentCircuit,
    SuccinctGraph,
    format_circuit,
    gw_k_king,
    gw_materialize,
    jt_k_king,
    parse_circuit,
)
from .digraph import (
    GraphParseError,
    check_tournament,
    export_dot,
    find_king_landau,
    format_graph_text,
    is_k_king,
    parse_graph_text,
)
from .formula import FormulaSyntaxError, parse_formula_input
from .limits import CapExceeded
from .reductions import (
    build_2partite_instance,
    build_gw_antenna_instance,
    lift_j,
    lift_k,
    list_suites,
    reduce_taut_to_1king_gw,
    reduce_to_kings,
    reduce_to_kkings,
    verify_suite,
)
from .specifier import (
    check_associativity,
    induced_graph,
    make_builtin_specifier,
    specifier_k_king,
    validate_specifier,
)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path):
    return parse_graph_text(_read(path))


def _node_id(graph, text):
    """The node labeled ``text``, else the node whose id it spells."""
    try:
        return graph.node_index(text)
    except ValueError:
        if text.isdigit():
            return int(text)
        raise


def _decision(flag: bool) -> int:
    print("true" if flag else "false")
    return 0 if flag else 1


def _parse_mpt_node(text, n):
    part, _, bits = text.partition(":")
    if not part.isdigit():
        raise ValueError(f"node must look like <part>:<bits>, got {text!r}")
    if len(bits) != n:
        raise ValueError(f"node string must have length {n}")
    return int(part), bits


def _positive_k(text):
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError("k must be at least 1")
    return k


# -- subcommand handlers -----------------------------------------------------

def _cmd_king_check(args):
    g = _load_graph(args.graph)
    return _decision(is_k_king(g, _node_id(g, args.node), args.k))


def _cmd_king_find(args):
    g = _load_graph(args.graph)
    king = find_king_landau(g)
    print(f"{king} {g.label_of(king)}" if g.labels else str(king))
    return 0


def _cmd_spec_select(args):
    spec = make_builtin_specifier(args.spec)
    print(spec.select(args.x, args.y))
    return 0


def _cmd_spec_king(args):
    spec = make_builtin_specifier(args.spec)
    return _decision(specifier_k_king(spec, args.node, args.k))


def _cmd_spec_materialize(args):
    spec = make_builtin_specifier(args.spec)
    g = induced_graph(spec, args.m)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(g))
        print(f"wrote {args.dot}")
    else:
        sys.stdout.write(format_graph_text(g))
    return 0


def _cmd_spec_validate(args):
    spec = make_builtin_specifier(args.spec)
    report = validate_specifier(spec, args.m, sample=args.sample, seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_spec_assoc(args):
    spec = make_builtin_specifier(args.spec)
    report = check_associativity(spec, args.m, sample=args.sample, seed=args.seed)
    print(report.summary())
    return 0 if report.associative else 1


def _cmd_reduce(args):
    kind = args.kind
    codec = None
    if args.codec:
        from .formula import codec_by_name
        codec = codec_by_name(args.codec)
    if kind in ("pi2", "conp", "np"):
        inst = reduce_to_kings(kind, args.formula, codec)
    elif kind.startswith("kkings:"):
        inst = reduce_to_kkings(args.formula, int(kind.split(":")[1]), codec)
    else:
        phi = parse_formula_input(args.formula)
        if kind.startswith("gw-antenna:"):
            inst = build_gw_antenna_instance(phi, int(kind.split(":")[1]))
        elif kind == "onekings":
            inst = reduce_taut_to_1king_gw(phi)
        elif kind == "2partite":
            inst = build_2partite_instance(phi)
        else:
            raise ValueError(f"unknown reduction kind {kind!r}")
    node = inst.node if isinstance(inst.node, str) else f"{inst.node[0]}:{inst.node[1]}"
    print(f"target {inst.target}")
    print(f"node {node}")
    print(f"length {inst.length}")
    if inst.expected is not None:
        print(f"expected {'true' if inst.expected else 'false'}")
    if inst.circuit is not None:
        circ = inst.circuit.circuit
        if isinstance(inst.circuit, JTournamentCircuit):
            print(f"model jt j={inst.circuit.j} n={inst.circuit.n}")
        else:
            print(f"model gw n={inst.circuit.n}")
        sys.stdout.write(format_circuit(circ))
    return 0


def _cmd_verify(args):
    if args.list:
        for s in list_suites():
            print(s)
        return 0
    if not args.suite:
        raise ValueError("--suite is required (or use --list)")
    report = verify_suite(args.suite, seed=args.seed, sample=args.sample)
    print(report.to_text())
    if args.records:
        for rec in report.to_records():
            print(rec)
    return 0 if report.passed else 1


def _load_jt(args):
    return JTournamentCircuit(args.j, args.n, parse_circuit(_read(args.circuit)))


def _cmd_mpt_king(args):
    jc = _load_jt(args)
    node = _parse_mpt_node(args.node, jc.n)
    return _decision(jt_k_king(jc, node, args.k))


def _cmd_mpt_lift(args):
    jc = _load_jt(args)
    lift = lift_j if args.sub == "lift-j" else lift_k  # lift-k requires --node
    lifted, node = lift(jc, _parse_mpt_node(args.node, jc.n) if args.node else (1, "0" * jc.n))
    print(f"model jt j={lifted.j} n={lifted.n}")
    print(f"node {node[0]}:{node[1]}")
    sys.stdout.write(format_circuit(lifted.circuit))
    return 0


def _load_gw(args):
    circuit = parse_circuit(_read(args.circuit))
    if circuit.num_inputs % 2:
        raise ValueError("a succinct-graph circuit needs even arity")
    return SuccinctGraph(circuit.num_inputs // 2, circuit)


def _cmd_gw_king(args):
    sg = _load_gw(args)
    return _decision(gw_k_king(sg, args.node, args.k))


def _cmd_gw_is_tournament(args):
    return _decision(check_tournament(gw_materialize(_load_gw(args))))


# -- parser ------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(prog="kings", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    king = sub.add_parser("king", help="explicit-graph kingship")
    king_sub = king.add_subparsers(dest="sub", required=True)
    p = king_sub.add_parser("check", help="is a node a k-king?")
    p.add_argument("--graph", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--k", type=_positive_k, required=True)
    p.set_defaults(func=_cmd_king_check)
    p = king_sub.add_parser("find", help="find a 2-king by max out-degree")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_king_find)

    spec = sub.add_parser("spec", help="tournament family specifiers")
    spec_sub = spec.add_subparsers(dest="sub", required=True)
    p = spec_sub.add_parser("select", help="apply the selection rule")
    p.add_argument("--spec", required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_spec_select)
    p = spec_sub.add_parser("king", help="k-kingship in the induced tournament")
    p.add_argument("--spec", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--k", type=_positive_k, required=True)
    p.set_defaults(func=_cmd_spec_king)
    p = spec_sub.add_parser("materialize", help="write the induced tournament")
    p.add_argument("--spec", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_spec_materialize)
    p = spec_sub.add_parser("validate", help="check the specifier axioms")
    p.add_argument("--spec", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_spec_validate)
    p = spec_sub.add_parser("assoc", help="probe associativity")
    p.add_argument("--spec", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_spec_assoc)

    p = sub.add_parser("reduce", help="formula to kingship instance")
    p.add_argument("--kind", required=True,
                   help="pi2 | conp | np | kkings:K | gw-antenna:K | onekings | 2partite")
    p.add_argument("--formula", required=True)
    p.add_argument("--codec")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int)
    p.add_argument("--records", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_verify)

    mpt = sub.add_parser("mpt", help="multipartite tournament circuits")
    mpt_sub = mpt.add_subparsers(dest="sub", required=True)
    for name, fn, needs_k in (("king", _cmd_mpt_king, True),
                              ("lift-j", _cmd_mpt_lift, False),
                              ("lift-k", _cmd_mpt_lift, False)):
        p = mpt_sub.add_parser(name)
        p.add_argument("--circuit", required=True)
        p.add_argument("--j", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--node", required=name != "lift-j")
        if needs_k:
            p.add_argument("--k", type=_positive_k, required=True)
        p.set_defaults(func=fn)

    gw = sub.add_parser("gw", help="succinct graphs")
    gw_sub = gw.add_subparsers(dest="sub", required=True)
    p = gw_sub.add_parser("king")
    p.add_argument("--circuit", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--k", type=_positive_k, required=True)
    p.set_defaults(func=_cmd_gw_king)
    p = gw_sub.add_parser("is-tournament")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_gw_is_tournament)

    return top


# built on the first call, not at import; parsing leaves the parser unchanged
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormulaSyntaxError, CircuitParseError, GraphParseError, ValueError,
            OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
