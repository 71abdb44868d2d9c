"""The workload process that ``run.py`` starts: set up, then time the ops.

Protocol on stdout: one line ``READY`` as soon as set-up is done (the parent
times set-up from spawning this process to that line), then, unless
``--setup-only``, one JSON line with the raw results.

The timed region is a closed loop with one client: one pass over the op
list, whose length is sized to ``--seconds``, with no idle gap.  Each op's
check runs right after it outside its timed interval, and reference work
(see ``host.py``) runs before every op and after the last, so that each
op's time can be scaled by the host's speed next to it.  A traced run
executes every op twice, with and without the tracer, alternating which
goes first, so the spans and the tracing overhead come from the same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

import workloads
from host import REFERENCE, InOpSlices
from tracing import Tracer, per_layer_metrics

IMPORT_SAMPLES = 5
# While an in-process op runs, a reference slice (2.5-5 ms) every this many
# seconds: about 2 % of its time, taken off its latency.
IN_OP_PERIOD_S = 0.2


def _prepare(args):
    """Build the op list and warm up: everything set-up time covers."""
    if args.workload == "bounds":
        ops = workloads.bounds_ops(args.seed, args.seconds)
        workloads.bounds_warmup()
    elif args.workload == "lossless":
        ops = workloads.lossless_ops(args.seed, args.seconds)
        workloads.lossless_warmup()
    else:
        workloads.cli_prepare(args.workdir, args.seed)
        ops = workloads.cli_ops(args.seed, args.seconds, args.workdir, in_process=args.trace)
        workloads.cli_warmup(args.workdir)
    return ops


class Loop:
    """Runs ops, times them, checks them and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, op, sampler=None):
        t0 = time.perf_counter()
        if sampler:
            sampler.start()
        try:
            out, err = op.run(), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, err = None, f"{op.kind}: {type(e).__name__}: {e}"
        finally:
            if sampler:
                sampler.stop()
        dt = time.perf_counter() - t0 - (sampler.spent if sampler else 0.0)
        if err is None:
            err = op.check(out)
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(err)
        return dt


def timed_pass(ops, loop, reference, sampler=None):
    """Op latencies in seconds, and reference times in ms.

    Returns the latencies, the references before each op and after the
    last, and per op the slices ``sampler`` took during it (if given).
    """
    lat, refs, inside = [], [reference()], []
    for op in ops:
        lat.append(loop.run(op, sampler))
        inside.append(sampler.samples if sampler else [])
        refs.append(reference())
    return lat, refs, inside


def traced_pass(ops, loop, tracer):
    """Each op untraced and traced, alternating order; returns both latencies."""
    plain, traced = [], []
    for k, op in enumerate(ops):
        tracer.op_id = k
        for with_tracer in ((True, False) if k % 2 == 0 else (False, True)):
            if with_tracer:
                with tracer.installed():
                    traced.append(loop.run(op))
            else:
                plain.append(loop.run(op))
    return plain, traced


def import_times_ms(env):
    code = ("import time; t = time.perf_counter(); import semrd.cli; "
            "print(1e3 * (time.perf_counter() - t))")
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              stdin=subprocess.DEVNULL, text=True, timeout=60, check=True)
        out.append(float(proc.stdout))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    args.workdir = os.path.abspath(args.workdir)
    # Turn SIGTERM into SystemExit: a running CLI child is killed and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    os.makedirs(args.workdir, exist_ok=True)
    try:
        ops = _prepare(args)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        loop = Loop()
        result = {}
        if args.trace:
            tracer = Tracer()
            plain, traced = traced_pass(ops, loop, tracer)
            overhead = 100.0 * (sum(traced) - sum(plain)) / sum(plain)
            import_ms = import_times_ms(workloads.child_env())
            run_ms = [1e3 * t for t in plain] if args.workload == "cli" else None
            result["per_layer"], result["absent"] = per_layer_metrics(
                args.workload, tracer.spans, overhead, import_ms, run_ms)
            result["plain_ms"] = [1e3 * t for t in plain]
            result["traced_ms"] = [1e3 * t for t in traced]
            if args.trace_out:
                tracer.write(args.trace_out)
        else:
            # CLI ops start a process each, timed from this one, which only
            # waits: slices during them would measure the other vCPU.  The
            # other workloads run their ops in this process.
            cli = args.workload == "cli"
            result["ref_kind"] = "spawn" if cli else "slice"
            sampler = None if cli else InOpSlices(IN_OP_PERIOD_S)
            lat, refs, inside = timed_pass(ops, loop, REFERENCE[result["ref_kind"]], sampler)
            result["op_ms"] = [1e3 * t for t in lat]
            result["ref_ms"] = refs
            result["in_op_ref_ms"] = inside
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace \
            else resource.RUSAGE_SELF
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            failures=loop.failures,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
            op_kinds=[op.kind for op in ops],
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
