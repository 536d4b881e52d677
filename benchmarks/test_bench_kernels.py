"""Vectorized join-execution kernel gates (ISSUE 5).

The execution layer's kernels each keep their scalar predecessor as a
togglable reference path; these gates pin the speedups and re-verify bit
parity on the benchmark shapes:

* **Fused radix partitioning** — ``execute_partition_phase`` with one hash
  evaluation per relation versus the per-pass loop (``fused=False``):
  gate >= 5x.
* **Executor replay** — repeated ratio splits over one executed series
  (the Monte Carlo measurement loop) with the memoised workload proxy and
  per-range ``WorkStats`` versus cold per-call recomputation: gate >= 1.3x,
  with every split's timing bit-identical on both sides.

Each gate's parity check is a tier-1 test; its speedup assert is a separate
``wallclock`` test, deselected by default and run by the CI ``kernel-gate``
job.  Every gate records its measured numbers in ``BENCH.json`` (uploaded
as a CI artifact) besides the human-readable summary line.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from repro.core.executor import CoProcessingExecutor, PhaseTiming
from repro.data.workload import JoinWorkload
from repro.hardware.machine import coupled_machine
from repro.hashjoin import (
    HashJoinConfig,
    PartitionConfig,
    PartitionedHashJoin,
    execute_partition_phase,
    final_partition_ids,
)

#: Fused-partitioning shape: every pass of a deep radix plan re-hashed the
#: keys before the fusion, so the win scales with the pass count.
PARTITION_TUPLES = 400_000
PARTITION_CONFIG = PartitionConfig(bits_per_pass=4, n_passes=6)


def _partition_workload() -> JoinWorkload:
    return JoinWorkload.uniform(PARTITION_TUPLES, PARTITION_TUPLES, seed=42)


def test_bench_partition_kernel():
    """The fused partition ids equal the per-pass loop's on the gate shape."""
    keys = _partition_workload().build.keys
    fused_ids = final_partition_ids(keys, PARTITION_CONFIG, fused=True)
    loop_ids = final_partition_ids(keys, PARTITION_CONFIG, fused=False)
    assert np.array_equal(fused_ids, loop_ids)


@pytest.mark.wallclock
def test_bench_gate_partition_kernel(bench_summary, bench_json, best_seconds):
    """Acceptance: >= 5x on the fused partition phase vs the per-pass loop."""
    workload = _partition_workload()
    join_config = HashJoinConfig()

    def phase(fused: bool):
        allocator = join_config.make_allocator(1 << 28)
        return execute_partition_phase(
            workload.build, workload.probe, PARTITION_CONFIG, join_config,
            allocator, fused=fused,
        )

    fused_s = best_seconds(lambda: phase(True), repeats=3)
    reference_s = best_seconds(lambda: phase(False), repeats=3)
    speedup = reference_s / fused_s
    bench_summary(
        f"fused partition phase: {PARTITION_CONFIG.n_passes} passes x "
        f"{2 * PARTITION_TUPLES} tuples in {fused_s * 1e3:.1f} ms vs "
        f"{reference_s * 1e3:.1f} ms reference ({speedup:.1f}x)"
    )
    bench_json(
        "partition-kernel",
        tuples=2 * PARTITION_TUPLES,
        bits_per_pass=PARTITION_CONFIG.bits_per_pass,
        n_passes=PARTITION_CONFIG.n_passes,
        kernel_ms=round(fused_s * 1e3, 3),
        reference_ms=round(reference_s * 1e3, 3),
        speedup=round(speedup, 2),
        threshold=5.0,
    )
    assert speedup >= 5.0


@pytest.fixture(scope="module")
def replay(bench_tuples) -> Callable[[bool], list[PhaseTiming]]:
    """Repeated ratio splits (the Monte Carlo loop) over one executed series.

    ``replay(cold=True)`` empties each step's memoised proxy and per-range
    ``WorkStats`` memo between calls — exactly what the pre-kernel code
    recomputed on every ``execute_series`` — so the gate isolates the
    caching win on an otherwise identical code path.
    """
    workload = JoinWorkload.skewed("high-skew", bench_tuples, bench_tuples, seed=42)
    run = PartitionedHashJoin(
        partition_config=PartitionConfig(bits_per_pass=6, n_passes=1)
    ).run(workload.build, workload.probe)
    series = run.probe_series
    executor = CoProcessingExecutor(coupled_machine())
    splits = np.random.default_rng(0).uniform(0.0, 1.0, size=(30, series.n_steps))

    def replay(cold: bool) -> list[PhaseTiming]:
        timings = []
        for row in splits:
            if cold:
                for execution in series:
                    execution.work._proxy_cache = None
                    execution.work._stats_memo.clear()
            timings.append(executor.execute_series(series, row.tolist(), pipelined=True))
        return timings

    return replay


def test_bench_executor_replay(replay):
    """Warm and cold replays produce bit-identical timings for every split."""
    replay(False)  # fill the memos, so the warm replay below hits them
    for warm, cold in zip(replay(False), replay(True), strict=True):
        assert warm.elapsed_s == cold.elapsed_s
        assert [(s.cpu_s, s.gpu_s) for s in warm.steps] == [
            (s.cpu_s, s.gpu_s) for s in cold.steps
        ]


@pytest.mark.wallclock
def test_bench_gate_executor_replay(replay, bench_summary, bench_json, best_seconds):
    """Acceptance: >= 1.3x for the memoised replay vs cold recomputation."""
    warm_s = best_seconds(lambda: replay(False), repeats=3)
    cold_s = best_seconds(lambda: replay(True), repeats=3)
    speedup = cold_s / warm_s
    bench_summary(
        f"executor replay: 30 ratio splits in {warm_s * 1e3:.0f} ms warm vs "
        f"{cold_s * 1e3:.0f} ms cold ({speedup:.1f}x)"
    )
    bench_json(
        "executor-replay",
        splits=30,
        warm_ms=round(warm_s * 1e3, 3),
        cold_ms=round(cold_s * 1e3, 3),
        speedup=round(speedup, 2),
        threshold=1.3,
    )
    assert speedup >= 1.3


def test_bench_experiment_regeneration(bench_summary, bench_json, best_seconds):
    """Record the end-to-end experiment regen time (the perf trajectory)."""
    from repro.experiments.headline import run_headline

    elapsed_s = best_seconds(lambda: run_headline(50_000), repeats=2)
    bench_summary(f"experiment regen: headline(50k tuples) in {elapsed_s:.2f} s")
    bench_json("experiment-regen", headline_50k_s=round(elapsed_s, 3))
    assert elapsed_s > 0.0
