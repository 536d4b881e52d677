"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at a reduced
scale (64K-tuple relations by default; the paper uses 16M).  The resulting
rows are printed so the run doubles as a report; absolute times come from the
calibrated simulator, so the *shape* of each figure — who wins, by roughly
what factor, where the crossovers are — is the reproduction target, not the
absolute numbers.

Set the environment variable ``REPRO_BENCH_TUPLES`` to run at a larger scale
(e.g. the paper's 16000000).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

import pytest

#: Default relation size for the benchmark runs.  200K tuples keeps the SHJ
#: hash table above the 4 MB shared cache (the paper's memory-stall regime)
#: while the whole suite still finishes in a few minutes.
BENCH_TUPLES = int(os.environ.get("REPRO_BENCH_TUPLES", "200000"))

#: The regenerated figure/table rows are also appended here, because pytest
#: captures stdout of passing tests; this file is the human-readable report.
ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = ROOT / "bench_report.txt"

#: Machine-readable companions of the report, keyed by file name under
#: ``ROOT``, each with the header fields it starts from.  Every speedup
#: gate records its measured numbers in one of them (one object per gate),
#: and CI uploads the files as build artifacts so the perf trajectory across
#: changes can be charted without parsing logs:
#:
#: * ``BENCH_5.json`` — the figure, kernel and cost-model gates;
#: * ``BENCH_7.json`` — the serving tier (pre-fork pool + persistent cache
#:   store), so its artifact can gate CI without the figure benchmarks;
#: * ``BENCH_8.json`` — the parallel join (serial-vs-parallel speedups and
#:   robustness counters);
#: * ``BENCH_10.json`` — the chaos gates (respawn latencies, retry counts,
#:   failover success rates).
BENCH_ARTIFACTS: dict[str, dict[str, Any]] = {
    "BENCH_5.json": {"bench_tuples": BENCH_TUPLES},
    "BENCH_7.json": {"cpu_count": os.cpu_count()},
    "BENCH_8.json": {"cpu_count": os.cpu_count()},
    "BENCH_10.json": {"cpu_count": os.cpu_count()},
}


@pytest.fixture(scope="session")
def bench_tuples() -> int:
    return BENCH_TUPLES


@pytest.fixture(scope="session", autouse=True)
def _fresh_report() -> None:
    REPORT_PATH.write_text(
        f"Regenerated tables and figures (relation size {BENCH_TUPLES} tuples)\n\n"
    )
    for artifact, header in BENCH_ARTIFACTS.items():
        (ROOT / artifact).write_text(
            json.dumps({**header, "gates": {}}, indent=2) + "\n"
        )


@pytest.fixture(scope="session")
def bench_json():
    """Record one gate's measured numbers in a machine-readable artifact.

    ``bench_json("BENCH_5.json", "merge-kernel", speedup=5.7, ...)`` merges
    the fields under ``gates[name]`` in that artifact (one of
    :data:`BENCH_ARTIFACTS`), recreating it when a run of only some gates
    finds it missing; values must be JSON-serialisable (numbers, strings,
    booleans, lists).
    """

    def record(artifact: str, name: str, **fields) -> None:
        path = ROOT / artifact
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {**BENCH_ARTIFACTS[artifact], "gates": {}}
        data.setdefault("gates", {}).setdefault(name, {}).update(fields)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    return record


@pytest.fixture(scope="session")
def best_seconds():
    """Best-of-N wall-clock timer shared by the speedup gates.

    Gates compare the *best* of a few runs on each side, so a single noisy
    run (GC pause, CI neighbour) cannot flip a speedup assertion.
    """

    def _best(fn, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    return _best


@pytest.fixture(scope="session")
def bench_summary():
    """Record a benchmark gate's measured result where people will see it.

    The line is printed (pytest ``-s`` shows it and the CI logs keep it) and,
    when running under GitHub Actions, appended to the job's step summary so
    the measured speedups surface on the workflow page without digging
    through logs.
    """

    def emit(line: str) -> None:
        print(line)
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(line.strip() + "\n\n")

    return emit


@pytest.fixture()
def run_experiment(benchmark):
    """Benchmark an experiment runner once, print and record its rows."""

    def _run(runner, **kwargs):
        result = benchmark.pedantic(
            runner, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )
        text = result.to_text()
        print()
        print(text)
        with REPORT_PATH.open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return result

    return _run
