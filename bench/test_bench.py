"""Smoke test of the benchmark at reduced sizes.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def test_all_workloads_report_every_end_to_end_metric():
    result = _run("--workload", "all")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        for name in _declared("end_to_end"):
            assert result["metrics"][f"{w}.{name}"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload):
    result = _run("--workload", workload, "--trace", "1")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert set(metrics) == _declared("per_layer")
    assert metrics["trace.deterministic"] == 1
    assert metrics["trace.accounted_share"] > 0.95
    doc = json.loads((BENCH / "out" / f"{workload}_seed{run.DEFAULT_SEED}_trace1.json")
                     .read_text())
    assert doc["provenance"]["psbicm_version"]
    assert doc["detail"]["spans"]


def test_checks_catch_a_wrong_result():
    state = workloads.setup("coded_pas")
    _, (res, trace) = workloads.run_op("coded_pas", state, 3, 0, workloads.SMOKE)
    assert workloads.check("coded_pas", (res, trace)) == []
    for field, delta in (("asi", 1e-9), ("r_fec_star", -1e-7), ("ngmi", 1e-7)):
        bad = dataclasses.replace(res, **{field: getattr(res, field) + delta})
        assert workloads.check("coded_pas", (bad, trace)), field
        assert workloads.compare(workloads.summary("coded_pas", (bad, trace)),
                                 workloads.summary("coded_pas", (res, trace))), field


def test_missing_library_exits_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
