"""Vectorized join-execution kernel gate.

The fused radix partitioning kernel keeps its per-pass predecessor as a
togglable reference path; this gate pins the speedup and re-verifies bit
parity on the benchmark shape:

* **Fused radix partitioning** — ``execute_partition_phase`` with one hash
  evaluation per relation versus the per-pass loop (``fused=False``):
  gate >= 5x.

The parity check is a tier-1 test; the speedup assert is a separate
``wallclock`` test, deselected by default and run by the CI ``kernel-gate``
job.  The gate records its measured numbers in ``BENCH.json`` (uploaded as
a CI artifact) besides the human-readable summary line.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.workload import JoinWorkload
from repro.hashjoin import (
    HashJoinConfig,
    PartitionConfig,
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


def test_bench_experiment_regeneration(bench_summary, bench_json, best_seconds):
    """Record the end-to-end experiment regen time (the perf trajectory)."""
    from repro.experiments.headline import run_headline

    elapsed_s = best_seconds(lambda: run_headline(50_000), repeats=2)
    bench_summary(f"experiment regen: headline(50k tuples) in {elapsed_s:.2f} s")
    bench_json("experiment-regen", headline_50k_s=round(elapsed_s, 3))
    assert elapsed_s > 0.0
