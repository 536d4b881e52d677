"""Robust external-join recording.

An adversarial heavy-hitter external join records its spill, recursion and
role-reversal counters and the in-buffer budget headroom.  The numbers are
recorded, not gated: the invariants themselves are pinned by
``tests/test_external_and_latch.py::TestRobustness``.  The record goes to
``BENCH.json`` (uploaded as a CI artifact) besides the human-readable
summary line.
"""

from __future__ import annotations

import numpy as np

from repro.data.relation import Relation
from repro.experiments.fig19_external import small_buffer_machine
from repro.hashjoin import ExternalHashJoin, vectorized_reference_join


def test_bench_robust_external_join(bench_summary, bench_json):
    """Record the robustness counters of an adversarial external join.

    A heavy-hitter key plus a uniform tail forces recursion *and* spilling;
    the run must stay within the simulated buffer budget and reproduce the
    reference join exactly (the budget/parity invariants are gated in the
    unit suite — this records the measured shape for the artifact)."""
    rng = np.random.default_rng(80)
    keys = np.concatenate(
        [
            np.full(3_000, 7, dtype=np.int64),
            rng.integers(0, 100_000, 60_000, dtype=np.int64),
        ]
    )
    build = Relation.from_keys(keys, name="R")
    probe = Relation.from_keys(rng.permutation(keys), name="S")
    buffer_bytes = 64 * 1024

    def joiner(b: Relation, p: Relation):
        return (len(b) + len(p)) * 1e-9, vectorized_reference_join(b, p)

    external = ExternalHashJoin(
        joiner, machine=small_buffer_machine(buffer_bytes), chunk_tuples=16_000
    )
    run = external.run(build, probe)
    assert run.result.equals(vectorized_reference_join(build, probe))
    headroom = (
        buffer_bytes - run.stats.max_in_buffer_bytes * external.overhead_factor
    )
    assert headroom >= 0

    bench_summary(
        f"robust-external: {len(build)}x{len(probe)} tuples, "
        f"{buffer_bytes // 1024} KB buffer: {run.stats.recursive_splits} splits "
        f"(depth {run.stats.max_pair_depth}), {run.stats.spilled_pairs} spills, "
        f"{run.stats.role_reversals} role reversals, "
        f"budget headroom {headroom:.0f} B"
    )
    bench_json(
        "robust-external",
        buffer_bytes=buffer_bytes,
        n_super_partitions=run.n_super_partitions,
        recursive_splits=run.stats.recursive_splits,
        max_pair_depth=run.stats.max_pair_depth,
        spilled_pairs=run.stats.spilled_pairs,
        role_reversals=run.stats.role_reversals,
        max_in_buffer_bytes=run.stats.max_in_buffer_bytes,
        budget_headroom_bytes=headroom,
        matches=run.result.match_count,
    )
