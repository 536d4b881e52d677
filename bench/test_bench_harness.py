"""Smoke test of the benchmark harness: shape and correctness, never speed.

Runs ``python -m bench run --scale smoke`` (20k-tuple joins x2, fig09 at
5k x 50, 1 s serve stages at 50/100 req/s, 500 closed-loop requests) once
untraced and once traced, side by side, and checks that every workload
emits exactly the metrics ``BENCHMARK.json`` declares, with their units,
that nothing failed, and that the traced layers never account for more
time than the operation that contains them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory: pytest.TempPathFactory) -> dict[int, dict[str, dict]]:
    out = tmp_path_factory.mktemp("bench")
    runs = {
        trace: subprocess.Popen(
            [sys.executable, "-m", "bench", "run", "--scale", "smoke", "--seed", "3",
             "--trace", str(trace), "--out", str(out / f"trace{trace}")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for trace in (0, 1)
    }
    results: dict[int, dict[str, dict]] = {}
    for trace, proc in runs.items():
        output, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, output[-6000:]
        files = (out / f"trace{trace}").glob("*.json")
        results[trace] = {r["workload"]: r for r in (json.loads(f.read_text()) for f in files)}
    return results


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_its_declared_metrics(smoke_runs, trace):
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    assert sorted(smoke_runs[trace]) == sorted(WORKLOADS)
    for workload, result in smoke_runs[trace].items():
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == expected, workload
        assert result["fail_frac"] == 0 and result["correct"], result["failures"]
        assert result["attempted"] >= 1


def test_traced_self_times_fit_inside_the_op(smoke_runs):
    for workload, result in smoke_runs[1].items():
        spans = [json.loads(line) for line in Path(result["spans_file"]).read_text().splitlines()]
        if workload.startswith("serve-"):
            # Per stage: codec and plan_many are parts of the mean latency.
            rows = {row["layer"]: row["ms"] for row in result["layer_table"]}
            for stage in ("closed", "low", "high"):
                parts = [rows[f"{stage}: {p}"] for p in ("decode", "encode", "plan_many")]
                latency = sum(rows[f"{stage}: {p}"] for p in
                              ("decode", "encode", "plan_many", "queue_wait", "remainder"))
                assert min(parts) >= 0 and sum(parts) <= latency, (workload, stage)
            continue
        own = [span["end_ns"] - span["start_ns"] for span in spans]
        for span in spans:
            if span["parent"] >= 0:
                own[span["parent"]] -= span["end_ns"] - span["start_ns"]
        assert min(own) >= 0, workload
        op_wall = sum(span["end_ns"] - span["start_ns"] for span in spans if span["name"] == "op")
        named = sum(t for span, t in zip(spans, own) if span["name"] != "op")
        assert named <= op_wall, workload
