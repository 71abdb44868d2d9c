"""Smoke test for the benchmark: every workload at a tiny size, both modes.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_smoke.py

Each run must end with the result object, name every metric listed in
BENCHMARK.json with its unit and a number, and count no failed op; no layer
may be missing on a workload that should call it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["bounds", "lossless", "cli"]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(spec, workload, trace):
    assert workload in {w["name"] for w in spec["workloads"]}
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, m["name"]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        assert {"untraced", "traced"} <= set(detail)
        # Even the tiny op lists reach every layer their workload should call.
        assert result["metrics"]["trace.layers_missing"]["value"] == 0, detail["absent"]
        assert not any("should call it" in r for r in detail["absent"].values())
        assert set(detail["absent"]) < set(result["metrics"])
    else:
        assert detail["op_tail"]["ops"] >= 1
        assert result["metrics"]["setup_s"]["value"] > 0
    assert detail["host"]["reference_ms"]["setup"]["quartiles"][1] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
