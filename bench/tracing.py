"""Spans around the public names one ``semrd`` module calls in another.

Nothing in the package changes.  While a ``Tracer`` is installed, selected
module attributes (for example ``semrd.bounds.ba_target``, the name
``lemma1_bounds`` calls) are replaced by wrappers that record a span per
call, and the originals are put back when it is removed.  Spans hold name,
start, end, parent span and op id, stay in memory, and are written out once
at the end of a traced run.

Per-layer metrics are computed from the spans plus what the public API
already returns (``RdPoint.iterations``/``converged``,
``BoundReport.converged``, sample and stream sizes).
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  A span name may be reached through several
# modules: ``marginal_table`` is bn's, but bounds, info, codec and cli each
# hold their own reference to it.
WRAPPED = (
    ("semrd.bounds", "marginal_table", "bn.marginal_table"),
    ("semrd.info", "marginal_table", "bn.marginal_table"),
    ("semrd.codec", "marginal_table", "bn.marginal_table"),
    ("semrd.cli", "marginal_table", "bn.marginal_table"),
    ("semrd.bn", "sample", "bn.sample"),
    ("semrd.cli", "sample", "bn.sample"),
    ("semrd.info", "joint_entropy_factorized", "info.joint_entropy_factorized"),
    ("semrd.cli", "joint_entropy_factorized", "info.joint_entropy_factorized"),
    ("semrd.codec", "build_factorized_codebooks", "codec.build_factorized_codebooks"),
    ("semrd.cli", "build_factorized_codebooks", "codec.build_factorized_codebooks"),
    ("semrd.codec", "expected_length", "codec.expected_length"),
    ("semrd.cli", "expected_length", "codec.expected_length"),
    ("semrd.codec", "encode", "codec.encode"),
    ("semrd.cli", "encode", "codec.encode"),
    ("semrd.codec", "decode", "codec.decode"),
    ("semrd.cli", "decode", "codec.decode"),
    ("semrd.bounds", "ba_target", "rd.ba_target"),
    ("semrd.bounds", "ba_conditional_target", "rd.ba_conditional_target"),
    ("semrd.bounds", "ba_joint_multi_target", "rd.ba_joint_multi_target"),
    ("semrd.cli", "ba_joint_multi_target", "rd.ba_joint_multi_target"),
    ("semrd.cli", "ba_joint_multi", "rd.ba_joint_multi"),
    ("semrd.bounds", "lemma1_bounds", "bounds.lemma1_bounds"),
    ("semrd.cli", "lemma1_bounds", "bounds.lemma1_bounds"),
    ("semrd.bounds", "lemma2_check", "bounds.lemma2_check"),
    ("semrd.cli", "lemma2_check", "bounds.lemma2_check"),
)

RD_SOLVES = ("rd.ba_target", "rd.ba_conditional_target", "rd.ba_joint_multi_target")
RD_SPANS = RD_SOLVES + ("rd.ba_joint_multi",)
BOUNDS_SPANS = ("bounds.lemma1_bounds", "bounds.lemma2_check")
LOSSLESS_SPANS = ("bn.sample", "info.joint_entropy_factorized", "codec.build_factorized_codebooks",
              "codec.expected_length", "codec.encode", "codec.decode")

# Layers each workload must reach.  Zero calls there means a code path now
# goes around the wrapper; ``trace.layers_missing`` counts such layers.
EXPECTED = {
    "bounds": {"bn.marginal_table", *RD_SOLVES, *BOUNDS_SPANS},
    "lossless": {"bn.marginal_table", *LOSSLESS_SPANS},
    "cli": {"bn.marginal_table", *LOSSLESS_SPANS, *RD_SOLVES, *BOUNDS_SPANS},
}

# name -> unit, in the order printed.  BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "bn.marginal_table.calls": "count",
    "bn.marginal_table.busy_ms": "ms",
    "bn.sample.busy_ms": "ms",
    "info.joint_entropy_factorized.busy_ms": "ms",
    "codec.build_factorized_codebooks.busy_ms": "ms",
    "codec.expected_length.busy_ms": "ms",
    "codec.encode.busy_ms": "ms",
    "codec.encode.symbols_per_s": "1/s",
    "codec.decode.busy_ms": "ms",
    "codec.decode.symbols_per_s": "1/s",
    **{f"{rd}.{k}": u for rd in RD_SOLVES
       for k, u in (("calls", "count"), ("busy_ms", "ms"), ("iters_p50", "count"),
                    ("iters_p99", "count"), ("iters_max", "count"))},
    "rd.ba_joint_multi_target.unconverged": "count",
    "rd.ms_per_iter": "ms",
    "bounds.self_ms": "ms",
    "bounds.converged_ratio": "ratio",
    "cli.import_ms": "ms",
    "cli.run_p50_ms": "ms",
    "cli.run_max_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.layers_missing": "count",
}


class Tracer:
    """Records spans while installed; ``op_id`` tags spans with the current op."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = {"name": name, "op": self.op_id, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            _annotate(span, name, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        for mod_name, attr, span_name in WRAPPED:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(span_name, orig))
        try:
            yield self
        finally:
            while self._saved:
                mod, attr, orig = self._saved.pop()
                setattr(mod, attr, orig)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _annotate(span, name, args, out):
    """Copy what the public API returned into the span."""
    if name in RD_SPANS:
        span["iters"] = int(out.iterations)
        span["converged"] = bool(out.converged)
    elif name == "bounds.lemma1_bounds":
        span["converged"] = bool(out.converged)
    elif name == "codec.encode":
        span["symbols"] = int(out.n) * args[0].net.m
    elif name == "codec.decode":
        span["symbols"] = int(out.size)


def _self_seconds(spans, names):
    """Duration of the named spans minus what their direct children cover.

    Children of one span run one after another, so their durations add up to
    the covered part of the parent's interval.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return sum(s["end"] - s["start"] - child[k] for k, s in enumerate(spans) if s["name"] in names)


def per_layer_metrics(workload, spans, overhead_pct, cli_import_ms, cli_run_ms=None):
    """Every per-layer metric by name, and why each unmeasured one reads 0.

    A layer that made no calls reads 0 (calls, time, rate, iterations) and
    gets a reason in the second dict.  ``trace.layers_missing`` counts the
    layers this workload should call that recorded none: a code path that
    now goes around a wrapper, whose zeros are not a speed-up.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    expected = EXPECTED[workload]
    out, absent = {}, {}

    def busy(name):
        calls = by_name.get(name, [])
        return sum(s["end"] - s["start"] for s in calls)

    def absent_reason(name):
        if name in expected:
            return f"{name} recorded no calls on {workload}, which should call it"
        return f"{name} is not called on {workload}"

    def missing(metric, reason):
        out[metric] = 0.0
        absent[metric] = reason

    def timed(metric, name, value_fn):
        if by_name.get(name):
            out[metric] = value_fn()
        else:
            missing(metric, absent_reason(name))

    out["bn.marginal_table.calls"] = len(by_name.get("bn.marginal_table", []))
    for name in ("bn.marginal_table",) + LOSSLESS_SPANS:
        timed(f"{name}.busy_ms", name, lambda n=name: 1e3 * busy(n))
    for name in ("codec.encode", "codec.decode"):
        timed(f"{name}.symbols_per_s", name,
              lambda n=name: sum(s["symbols"] for s in by_name[n]) / busy(n))
    for name in RD_SOLVES:
        calls = by_name.get(name, [])
        out[f"{name}.calls"] = len(calls)
        timed(f"{name}.busy_ms", name, lambda n=name: 1e3 * busy(n))
        iters = sorted(s["iters"] for s in calls)
        timed(f"{name}.iters_p50", name, lambda it=iters: float(np.percentile(it, 50)))
        timed(f"{name}.iters_p99", name, lambda it=iters: float(np.percentile(it, 99)))
        timed(f"{name}.iters_max", name, lambda it=iters: it[-1])
    out["rd.ba_joint_multi_target.unconverged"] = sum(
        not s["converged"] for s in by_name.get("rd.ba_joint_multi_target", []))
    rd_iters = sum(s["iters"] for n in RD_SPANS for s in by_name.get(n, []))
    if rd_iters:
        out["rd.ms_per_iter"] = 1e3 * sum(busy(n) for n in RD_SPANS) / rd_iters
    else:
        missing("rd.ms_per_iter", absent_reason("rd.ba_target"))
    if any(by_name.get(n) for n in BOUNDS_SPANS):
        out["bounds.self_ms"] = 1e3 * _self_seconds(spans, set(BOUNDS_SPANS))
    else:
        missing("bounds.self_ms", absent_reason("bounds.lemma1_bounds"))
    grids = by_name.get("bounds.lemma1_bounds", [])
    timed("bounds.converged_ratio", "bounds.lemma1_bounds",
          lambda: sum(s["converged"] for s in grids) / len(grids))
    out["cli.import_ms"] = statistics.median(cli_import_ms)
    if cli_run_ms:
        out["cli.run_p50_ms"] = statistics.median(cli_run_ms)
        out["cli.run_max_ms"] = max(cli_run_ms)
    else:
        missing("cli.run_p50_ms", "measured on the cli workload only")
        missing("cli.run_max_ms", "measured on the cli workload only")
    out["trace.overhead_pct"] = overhead_pct
    out["trace.layers_missing"] = sum(not by_name.get(n) for n in expected)
    assert set(out) == set(PER_LAYER_UNITS), set(out) ^ set(PER_LAYER_UNITS)
    return {k: out[k] for k in PER_LAYER_UNITS}, absent
