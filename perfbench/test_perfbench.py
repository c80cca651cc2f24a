"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench`` (or
``python3 -m unittest perfbench.test_perfbench``).  They shrink the
oracle-sweep input set so each run takes seconds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import kings.cli  # noqa: E402
from kings.digraph import ExplicitDigraph, is_k_king  # noqa: E402
from kings.formula import eval_forall_exists, forall_exists_truth  # noqa: E402
from kings.formula import ForallExistsFormula, formula_from_table  # noqa: E402
from kings.limits import CapExceeded  # noqa: E402
from perfbench import inputs, run, worker, workloads  # noqa: E402
from perfbench.tracing import PER_LAYER  # noqa: E402

WORKDIR = ROOT / ".bench_build" / "perfbench-tests"


def small_sweep(seed=0, tables=64):
    data = inputs.make_inputs("oracle-sweep", seed, ROOT)
    data["inputs"]["tables"] = data["inputs"]["tables"][:tables]
    data["expect"]["truth"] = data["expect"]["truth"][:tables]
    return data


class OracleTests(unittest.TestCase):
    def test_fe_truth_matches_the_package_oracles(self):
        cases = [(1, v) for v in range(16)] + [(2, v) for v in range(0, 1 << 16, 97)]
        for n, v in cases:
            table = format(v, f"0{1 << (2 * n)}b")
            with self.subTest(n=n, table=table):
                fe = ForallExistsFormula(n, formula_from_table(2 * n, table))
                self.assertEqual(inputs.fe_truth(n, table), eval_forall_exists(fe))
                self.assertEqual(inputs.fe_truth(n, table), forall_exists_truth(n, table))

    def test_reach_kings_matches_breadth_first_search(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            size = int(rng.integers(1, 9))
            adj = rng.random((size, size)) < rng.choice([0.2, 0.5, 0.8])
            np.fill_diagonal(adj, False)
            g = ExplicitDigraph.from_adjacency(adj)
            kings = inputs.reach_kings(adj, (1, 2, 3, 4))
            for k, mask in kings.items():
                self.assertEqual(mask.tolist(), [is_k_king(g, v, k) for v in range(size)])


class SeedTests(unittest.TestCase):
    def test_same_seed_gives_the_same_digest(self):
        for w in ("oracle-sweep", "weave-bulk"):
            a = inputs.digest(inputs.make_inputs(w, 5, ROOT)["inputs"])
            b = inputs.digest(inputs.make_inputs(w, 5, ROOT)["inputs"])
            c = inputs.digest(inputs.make_inputs(w, 6, ROOT)["inputs"])
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)


class GateTests(unittest.TestCase):
    def test_flipped_verdict_fails_the_run(self):
        data = small_sweep()
        data["expect"]["truth"][3] = not data["expect"]["truth"][3]
        out = io.StringIO()
        with mock.patch.object(inputs, "make_inputs", return_value=data), \
                contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "oracle-sweep", "--seed", "0", "--seconds", "0"])
        self.assertEqual(rc, 1)
        last = out.getvalue().strip().splitlines()[-1]
        self.assertIn('"correct": false', last)
        fail_line = next(line for line in out.getvalue().splitlines()
                         if line.strip().startswith("fail_ratio"))
        self.assertGreater(float(fail_line.split()[1]), 0)

    def test_cap_exceeded_in_a_request_is_a_failed_operation(self):
        requests = [{"kind": "a", "argv": ["spec", "king", "--spec", "max",
                                           "--node", "1", "--k", "1"]},
                    {"kind": "a", "argv": ["spec", "king", "--spec", "pi2",
                                           "--node", "1" * 20, "--k", "2"]}]
        WORKDIR.mkdir(parents=True, exist_ok=True)
        state = {"inputs": {"requests": requests},
                 "expect": {"verdicts": [True, False]}, "workdir": str(WORKDIR)}
        # a cap the CLI reports with exit code 3 (a node of length 20)
        records = workloads.decide(state)
        self.assertEqual([r[1] for r in records], [True, False])
        self.assertIn("rc=3", records[1][2])
        # a cap raised straight out of the entry point
        with mock.patch.object(kings.cli, "main", side_effect=CapExceeded("too big")):
            records = workloads.decide(state)
        self.assertEqual([r[1] for r in records], [False, False])
        self.assertIn("CapExceeded", records[0][2])

    def test_missing_package_exits_nonzero_without_a_result(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decide",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class SetupProbeTests(unittest.TestCase):
    def test_probes_are_interleaved_and_the_server_stops(self):
        out = worker.run("oracle-sweep", small_sweep(tables=8), 0, 0, str(WORKDIR), probes=3)
        self.assertEqual(len(out["setup"]), 3)
        self.assertTrue(all(0 < t < 60 for t in out["setup"]))
        prober = worker.Prober("decide")
        self.assertGreater(prober.probe(), 0)
        prober.close()
        self.assertEqual(prober.proc.returncode, 0)


class TraceTests(unittest.TestCase):
    def test_top_level_self_times_fit_in_the_traced_wall(self):
        out = worker.run("oracle-sweep", small_sweep(tables=256), 0, 1, str(WORKDIR))
        layer = out["per_layer"]
        self.assertEqual(set(layer), set(PER_LAYER))
        self.assertEqual(len(out["traced_walls"]), 1)
        self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        self.assertGreater(self_total, 0)
        self.assertLessEqual(self_total, layer["trace.wall_s"])
        self.assertGreaterEqual(layer["digraph.is_k_king.calls"], 256)
        self.assertEqual(out["failed"], 0)

    def test_tracing_leaves_the_package_unwrapped(self):
        import kings.digraph
        import kings.reductions

        before = (kings.reductions.is_k_king, kings.digraph.is_k_king,
                  dict(kings.reductions._KING_ORACLES))
        worker.run("oracle-sweep", small_sweep(tables=8), 0, 1, str(WORKDIR))
        after = (kings.reductions.is_k_king, kings.digraph.is_k_king,
                 dict(kings.reductions._KING_ORACLES))
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
