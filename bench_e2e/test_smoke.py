"""Smoke test of the end-to-end benchmark (run explicitly; not tier-1).

    PYTHONPATH=src python -m pytest bench_e2e/test_smoke.py -q

Every workload runs once untraced and once traced in ``--smoke`` mode:
the same code paths and correctness checks as a full run, windows of at
most 2 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench_e2e.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench_e2e"]
    assert declared["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in declared[key]] == [
            (m.name, m.unit, m.better) for m in metrics
        ]
    assert [m["bound"] for m in declared["end_to_end"]] == [m.bound for m in END_TO_END]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_a_trace(workload):
    result = _run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    trace = json.loads((BENCH_DIR / "results" / f"trace-{workload}.json").read_text())
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert spans and all(event["dur"] >= 0 for event in spans)
    # The oracle finding the benchmark records without gating on it.
    assert result["metrics"]["executor.bit_identical.baseline"]["value"] == 1.0
