"""Benchmark for semrd: three closed-loop workloads with output checks.

Run from the root of a checkout:

    python3 bench/run.py --workload bounds --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, ops per second,
median and tail op latency, peak memory); ``--trace 1`` runs the same ops
with spans around the package's layer boundaries and prints the per-layer
metrics instead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details (host record, unscaled times, tail percentile, set-up
samples, failures).

Every end-to-end time is scaled by the host's speed measured next to it
(see ``host.py``), so that runs in fast and slow spells of a shared VM
agree; the detail line gives the unscaled figures beside them.

The package is imported from ``src/`` of the current directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from host import host_scaled, spawn_ms, steal_jiffies
from tracing import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bounds", "lossless", "cli")
# Set-up is timed this many times per run, in set-up-only processes, with
# an interpreter start (host.spawn_ms) before each and after the last to
# scale it by; the median is reported.
SETUP_SAMPLES = 7
# All workers of a run must be done well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10
# Workers keep their scratch files under here and remove them when they end.
WORK_ROOT = ".bench_work"


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND ops above it.

    Returns (value, percentile, ops beyond).  With too few ops it falls back
    to the maximum and says so through ops beyond = 0.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    idx = n - 1 - TAIL_BEYOND
    return xs[idx], 100.0 * (idx + 1) / n, TAIL_BEYOND


class Worker:
    """One workload process; set-up is timed from spawn to its READY line."""

    def __init__(self, args, *extra):
        workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{time.monotonic_ns()}")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir, *extra]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def ready(self):
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not start: {line!r}")
        return time.perf_counter() - self.t_spawn

    def result(self, deadline):
        out, _ = self.proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]) if out.strip() else None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def run_worker(args, deadline, *extra):
    w = Worker(args, *extra)
    try:
        setup = w.ready()
        return setup, w.result(deadline)
    finally:
        w.stop()


def summary(op_ms, attempted):
    tail_ms, tail_pct, beyond = tail(op_ms)
    return {"ops_per_s": 1e3 * attempted / sum(op_ms), "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail_ms}, (tail_pct, beyond)


def end_to_end(setups, res):
    op_ms = host_scaled(res["op_ms"], res["ref_ms"], res["ref_kind"], res["in_op_ref_ms"])
    scaled, (tail_pct, beyond) = summary(op_ms, res["attempted"])
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": scaled["op_tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    by_kind = {}
    for kind, ms in zip(res["op_kinds"], op_ms):
        k = by_kind.setdefault(kind, {"ops": 0, "busy_ms": 0.0})
        k["ops"] += 1
        k["busy_ms"] += ms
    detail = {"op_tail": {"percentile": tail_pct, "ops_beyond": beyond, "ops": len(op_ms)},
              "unscaled": summary(res["op_ms"], res["attempted"])[0],
              "ops_reference_ms": {"kind": res["ref_kind"],
                                   "quartiles": statistics.quantiles(res["ref_ms"], n=4)},
              "by_kind": by_kind, "op_ms": op_ms, "unscaled_op_ms": res["op_ms"],
              "reference_ms": res["ref_ms"], "in_op_reference_ms": res["in_op_ref_ms"]}
    return metrics, detail


def per_layer(res):
    metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
               for name, value in res["per_layer"].items()}
    plain, traced = res["plain_ms"], res["traced_ms"]
    detail = {"untraced": {"ops_per_s": 1e3 * len(plain) / sum(plain),
                           "op_p50_ms": statistics.median(plain)},
              "traced": {"ops_per_s": 1e3 * len(traced) / sum(traced),
                         "op_p50_ms": statistics.median(traced)},
              "absent": res["absent"]}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the worker is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join("src", "semrd", "__init__.py")):
        print("bench: src/semrd not found; run from the root of a semrd checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    steal0 = steal_jiffies()
    try:
        raw_setups, setup_refs = [], [spawn_ms()]
        for _ in range(SETUP_SAMPLES):
            raw_setups.append(run_worker(args, deadline, "--setup-only")[0])
            setup_refs.append(spawn_ms())
        setups = host_scaled(raw_setups, setup_refs, "spawn")
        trace_out = []
        if args.trace:
            os.makedirs(".bench_out", exist_ok=True)
            trace_out = ["--trace-out", os.path.join(
                ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl")]
        timed_setup, res = run_worker(args, deadline, *trace_out)
        if res is None:
            raise RuntimeError("worker printed no result")
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # missing, or still in use by another run
            pass
    steal1 = steal_jiffies()

    if args.trace:
        metrics, detail = per_layer(res)
    else:
        metrics, detail = end_to_end(setups, res)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        setup_samples_s=setups,
        unscaled_setup_samples_s=raw_setups + [timed_setup],
        host={
            "steal_jiffies": None if steal0 is None or steal1 is None else steal1 - steal0,
            "reference_ms": {"setup": {"kind": "spawn",
                                       "quartiles": statistics.quantiles(setup_refs, n=4)}},
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        failures=res["failures"],
    )
    print(json.dumps(detail))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
