"""Child process of the benchmark: one workload run, or a set-up probe server.

A workload run reads the pickled inputs that ``run.py`` generated from stdin,
runs passes of the workload until ``--seconds`` have gone by, and prints one
JSON line with per-pass wall times, per-operation latencies, operation
counts and the untraced seconds spent on each kind of operation, the peak
resident set at the end and before the first pass, the
calibration-loop times taken before and after each pass, the set-up probe
times, and, with ``--trace 1``, the per-layer statistics.  With ``--trace 1``
the passes alternate untraced and traced, so the tracing overhead is
measured inside the run.

The ``--setup-probes`` probes run between passes, spread evenly over the
run, so that set-up time and pass time see the same drift of the host.
Each probe is a fresh process forked from a probe server that has imported
only the standard library (``--probe-server``), so a probe costs its set-up
and not an interpreter start.

Only the standard library is imported before the set-up probe starts its
clock.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env():
    """This environment with ``kings`` and ``perfbench`` importable and the
    numpy/BLAS thread pools capped at the core count."""
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _build(workload):
    """What a user of the workload builds before the first call."""
    import kings.formula as F
    import kings.specifier as S

    if workload == "oracle-sweep":
        return [F.TTFECodec(), F.TTPlainCodec()]
    if workload == "weave-bulk":
        return [S.pi2_specifier(), S.conp_specifier(), S.np_specifier()]
    if workload == "decide":
        import kings.cli  # noqa: F401  (the entry point the requests go through)
        return [S.make_builtin_specifier(name)
                for name in ("pi2", "conp", "np", "kkings:3")]
    return []


def setup_probe(workload):
    start = time.perf_counter()
    import kings  # noqa: F401

    _build(workload)
    return time.perf_counter() - start


def serve_probes(workload):
    """For each line on stdin, fork a child that runs ``setup_probe`` and
    print the seconds it took; exit 1 if a probe fails."""
    for _ in sys.stdin:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            code = 1
            try:
                os.write(w, repr(setup_probe(workload)).encode())
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r) as fh:
            value = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not value:
            return 1
        print(value, flush=True)
    return 0


class Prober:
    """Client of a ``--probe-server`` child process."""

    def __init__(self, workload):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", "--workload", workload,
             "--probe-server"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=child_env())

    def probe(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"set-up probe failed (server exit {self.proc.wait()})")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def _peak_rss_mb():
    """This process's peak resident set, in MiB.

    ``VmHWM`` belongs to the address space made at exec.  ``ru_maxrss``, the
    fallback, also holds the resident high-water mark of the parent that
    spawned the process, which here is the one that made the inputs.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibrate():
    """A fixed pure-Python loop; its time tracks the host, not the package."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def run(workload, data, seconds, trace, workdir, spans_path=None, probes=0):
    from perfbench.tracing import Tracer
    from perfbench.workloads import PASSES, PREPARE

    state = dict(data, workdir=workdir)
    if workload in PREPARE:
        PREPARE[workload](state)
    baseline_rss_mb = _peak_rss_mb()
    one_pass = PASSES[workload]
    tracer = Tracer() if trace else None
    state["tracer"] = tracer
    walls = {False: [], True: []}
    latencies, failures = [], []
    kind_s = defaultdict(float)
    attempted = failed = 0
    calibration, setup = [], []
    prober = Prober(workload) if probes else None
    try:
        begin = time.perf_counter()
        while True:
            traced = bool(trace) and len(walls[False]) > len(walls[True])
            calibration.append(calibrate())
            start = time.perf_counter()
            if traced:
                with tracer.installed():
                    records = one_pass(state)
            else:
                records = one_pass(state)
            walls[traced].append(time.perf_counter() - start)
            calibration.append(calibrate())
            for latency, ok, note, kind in records:
                if not traced:
                    latencies.append(latency)
                    kind_s[kind] += latency
                attempted += 1
                if not ok:
                    failed += 1
                    if len(failures) < 10:
                        failures.append(note)
            elapsed = time.perf_counter() - begin
            due = probes if seconds <= 0 else math.ceil(probes * min(1.0, elapsed / seconds))
            while len(setup) < due:
                setup.append(prober.probe())
            elapsed = time.perf_counter() - begin
            done = len(walls[False]) + len(walls[True])
            need_more = bool(trace) and not walls[True]
            if not need_more and elapsed + elapsed / done > seconds:
                break
        while len(setup) < probes:
            setup.append(prober.probe())
    finally:
        if prober is not None:
            prober.close()
    out = {"walls": walls[False], "latencies": latencies, "attempted": attempted,
           "failed": failed, "failures": failures, "calibration": calibration,
           "kind_s": dict(kind_s), "setup": setup, "baseline_rss_mb": baseline_rss_mb,
           "peak_rss_mb": _peak_rss_mb()}
    if trace:
        per_layer = tracer.per_pass(len(walls[True]))
        per_layer["trace.wall_s"] = statistics.median(walls[True])
        per_layer["trace.overhead_s"] = (statistics.median(walls[True])
                                         - statistics.median(walls[False]))
        out["per_layer"] = per_layer
        out["traced_walls"] = walls[True]
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--spans")
    p.add_argument("--setup-probes", type=int, default=0)
    p.add_argument("--probe-server", action="store_true")
    args = p.parse_args(argv)
    if args.probe_server:
        return serve_probes(args.workload)
    data = pickle.loads(sys.stdin.buffer.read())
    out = run(args.workload, data, args.seconds, args.trace, args.workdir, args.spans,
              args.setup_probes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
