"""Seeded, oracle-checked benchmark of the ``kings`` package.

Usage, from the repository root::

    python3 perfbench/run.py --workload decide --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``BENCHMARK.json`` for why each one exists):

* ``oracle-sweep``: claim2.2 n=1, seeded n=3 and claim2.11 suites, plus a
  seeded 4096-matrix share of the exhaustive claim2.2 n=2 check;
* ``weave-bulk``: the conp m=8 and np m=9 weave suites, plus the pi2 weave
  at m=12: sampled guard audit, full materialization and 533 kingship checks;
* ``king-sets``: ``all_k_kings`` for k=1..4 on three seeded 2048-node graphs;
* ``decide``: a closed loop, one client, of ``kings.cli.main`` requests.

For each workload this script generates the inputs and their expected
verdicts from ``--seed`` (``perfbench/inputs.py``), then runs the workload in
its own child process (``perfbench/worker.py``) with numpy/BLAS threads
capped at the core count; between passes the child measures set-up time in
fresh processes.
It prints the machine facts, one line per metric with its unit, and as the
last line a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from ``perfbench/tracing.py``.  Any operation that
disagrees with its oracle, or raises, is a failed operation; the exit code
is 1 when any operation failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SETUP_PROBES = 15
CHILD_GRACE_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts():
    import numpy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    quota = _read("/sys/fs/cgroup/cpu.max")  # cgroup v2: "<quota|max> <period>"
    if quota is None:
        v1 = [_read(f"/sys/fs/cgroup/cpu/cpu.cfs_{f}_us") for f in ("quota", "period")]
        quota = None if None in v1 else " ".join(v1)  # v1: quota -1 means none
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_model": cpu, "cpu_quota_period_us": quota}


def _run_child(args, payload, timeout):
    """Run ``perfbench.worker`` with ``args`` and ``payload`` on its stdin;
    returns its last stdout line as JSON."""
    from perfbench.worker import child_env

    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", *args],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env())
    try:
        stdout, _ = proc.communicate(payload, timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile: an observed value, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns a result dict (see ``_report``)."""
    from perfbench import inputs

    data = inputs.make_inputs(workload, seed, ROOT)
    digest = inputs.digest(data["inputs"])
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir), "--setup-probes", str(SETUP_PROBES)]
    if trace:
        args += ["--spans", str(workdir / f"spans-{workload}.jsonl")]
    out = _run_child(args, pickle.dumps(data), timeout=seconds + CHILD_GRACE_S)
    lat_ms = [x * 1000 for x in out["latencies"]]
    metrics = {"setup_s": statistics.median(out["setup"]),
               "wall_s": statistics.median(out["walls"]),
               "latency_p50_ms": percentile(lat_ms, 50),
               "latency_p90_ms": percentile(lat_ms, 90),
               "peak_rss_mb": out["peak_rss_mb"]}
    return {"workload": workload, "seed": seed, "digest": digest, "metrics": metrics,
            "child": out}


def _report(res, trace):
    """Human-readable lines for one workload result."""
    from perfbench.tracing import PER_LAYER

    out = res["child"]
    cal = out["calibration"]
    busy = sum(out["kind_s"].values()) or 1.0
    shares = ", ".join(f"{kind} {t / busy:.3f}" for kind, t in sorted(out["kind_s"].items()))
    lines = [f"workload {res['workload']} seed {res['seed']} inputs sha256:{res['digest']}",
             f"  passes {len(out['walls'])} untraced"
             + (f", {len(out['traced_walls'])} traced" if trace else "")
             + f"; operations {out['attempted']}, latency samples {len(out['latencies'])}",
             f"  calibration loop ms: min {min(cal) * 1e3:.2f} median "
             f"{statistics.median(cal) * 1e3:.2f} max {max(cal) * 1e3:.2f} "
             f"(first {cal[0] * 1e3:.2f}, last {cal[-1] * 1e3:.2f})",
             f"  untraced time share by operation kind: {shares}",
             f"  set-up probes s: {' '.join(f'{x:.4f}' for x in out['setup'])}",
             f"  resident set before the first pass {out['baseline_rss_mb']:.1f} MB"]
    for name, value in res["metrics"].items():
        lines.append(f"  {name} {value:.6g} {END_TO_END[name]}")
    ratio = out["failed"] / out["attempted"]
    lines.append(f"  fail_ratio {ratio:.6g} 1 ({out['failed']}/{out['attempted']})")
    for note in out["failures"]:
        lines.append(f"  ! {note}")
    if trace:
        for name, value in out["per_layer"].items():
            lines.append(f"  {name} {value:.6g} {PER_LAYER[name]}")
    return lines


def main(argv=None):
    from perfbench.inputs import WORKLOADS

    p = argparse.ArgumentParser(description="Seeded, oracle-checked kings benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "kings" / "__init__.py").is_file():
        print(f"error: no kings package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.tracing import PER_LAYER

    print(json.dumps({"machine": machine_facts()}), flush=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        start = time.perf_counter()
        try:
            res = run_workload(w, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: workload {w}: {exc}", file=sys.stderr)
            return 2
        results.append(res)
        for line in _report(res, args.trace):
            print(line)
        print(f"  (run took {time.perf_counter() - start:.1f} s)", flush=True)

    def metrics_of(res):
        if args.trace:
            return {k: {"value": v, "unit": PER_LAYER[k]}
                    for k, v in res["child"]["per_layer"].items()}
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in res["metrics"].items()}

    attempted = sum(r["child"]["attempted"] for r in results)
    failed = sum(r["child"]["failed"] for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
