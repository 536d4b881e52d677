"""Parallel, out-of-core robust hash join (ISSUE 8).

The per-pair joins of a radix-partitioned hash join are independent, so a
process pool may execute them — but only as a *bit-matched* twin of the
serial loop: identical join result, identical step series, identical
allocator counters (the workers' private-allocator deltas are folded back in
pair order).  This suite pins that parity for ``PartitionedHashJoin`` and
``CoarseGrainedPHJ``, exercises the pool plumbing in-process for coverage,
and drives the robustness paths of the serial ``ExternalHashJoin``: dynamic
spilling, recursive re-partitioning and role reversal under adversarial
skew.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.generator import (
    SKEW_PRESETS,
    generate_build_relation,
    generate_probe_relation,
)
from repro.data.relation import Relation
from repro.experiments.fig19_external import small_buffer_machine
from repro.hashjoin import (
    CoarseGrainedPHJ,
    ExternalHashJoin,
    HashJoinConfig,
    PartitionedHashJoin,
    arena_capacity_for,
    join_pair_coarse,
    join_partition_pair,
    murmur2,
    vectorized_reference_join,
)
from repro.hashjoin.parallel import (
    MAX_DEFAULT_WORKERS,
    ChunkOutcome,
    PairPool,
    _run_chunk,
    default_worker_count,
    run_pairs,
    shared_pair_pool,
    split_balanced,
)
from repro.locking import make_lock

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WORK_QUANTITIES = (
    "instructions",
    "random_accesses",
    "sequential_bytes",
    "global_atomics",
    "local_atomics",
)


def assert_series_lists_equal(a_list, b_list) -> None:
    assert len(a_list) == len(b_list)
    for a_series, b_series in zip(a_list, b_list):
        assert a_series.phase == b_series.phase
        assert len(a_series.executions) == len(b_series.executions)
        for a_exec, b_exec in zip(a_series.executions, b_series.executions):
            assert a_exec.step.name == b_exec.step.name
            assert a_exec.work.n_tuples == b_exec.work.n_tuples
            for name in WORK_QUANTITIES:
                a_q = getattr(a_exec.work, name)
                b_q = getattr(b_exec.work, name)
                if isinstance(a_q, np.ndarray) or isinstance(b_q, np.ndarray):
                    assert isinstance(a_q, np.ndarray) and isinstance(b_q, np.ndarray)
                    assert np.array_equal(a_q, b_q, equal_nan=True), name
                else:
                    assert (a_q == b_q) or (np.isnan(a_q) and np.isnan(b_q)), name


def relation_pair(seed: int, n_build: int, n_probe: int, key_space: int):
    rng = np.random.default_rng(seed)
    build = Relation.from_keys(
        rng.integers(0, key_space, n_build, dtype=np.int64), name="R"
    )
    probe = Relation.from_keys(
        rng.integers(0, key_space, n_probe, dtype=np.int64), name="S"
    )
    return build, probe


# ---------------------------------------------------------------------------
# split_balanced
# ---------------------------------------------------------------------------
class TestSplitBalanced:
    def test_empty(self):
        assert split_balanced([], 4) == []

    def test_rejects_bad_chunk_count(self):
        with pytest.raises(ValueError):
            split_balanced([1, 2], 0)

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            split_balanced([1, 2, 3], 2, weights=[1.0])

    def test_fewer_items_than_chunks(self):
        chunks = split_balanced([1, 2], 8)
        assert chunks == [[1], [2]]

    @given(
        n_items=st.integers(min_value=1, max_value=40),
        n_chunks=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @SETTINGS
    def test_concatenation_invariant(self, n_items, n_chunks, seed):
        rng = np.random.default_rng(seed)
        items = list(range(n_items))
        weights = rng.uniform(0.1, 100.0, n_items).tolist()
        chunks = split_balanced(items, n_chunks, weights)
        assert [x for chunk in chunks for x in chunk] == items
        assert all(chunk for chunk in chunks)
        assert len(chunks) == min(n_chunks, n_items)

    def test_weight_balance_beats_naive_split(self):
        # One huge item at the front: contiguous balancing isolates it.
        weights = [100.0] + [1.0] * 9
        chunks = split_balanced(list(range(10)), 2, weights)
        assert chunks[0] == [0]
        assert chunks[1] == list(range(1, 10))


# ---------------------------------------------------------------------------
# Pool plumbing (in-process for coverage; fork paths exercised where cheap)
# ---------------------------------------------------------------------------
class TestPairPool:
    def test_single_payload_runs_in_process(self):
        pool = PairPool(n_workers=4)
        try:
            assert pool.map(lambda x: x + 1, [41]) == [42]
            assert pool._executor is None  # never started
        finally:
            pool.close()

    def test_single_worker_runs_in_process(self):
        pool = PairPool(n_workers=1)
        try:
            assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
            assert pool._executor is None
        finally:
            pool.close()

    def test_shared_pool_is_cached_per_worker_count(self):
        assert shared_pair_pool(2) is shared_pair_pool(2)
        assert shared_pair_pool(2) is not shared_pair_pool(3)

    def test_default_worker_count_is_positive_and_capped(self):
        assert 1 <= default_worker_count() <= MAX_DEFAULT_WORKERS
        assert shared_pair_pool().n_workers == default_worker_count()

    def test_fork_pool_preserves_payload_order(self):
        pool = PairPool(n_workers=2)
        try:
            assert pool.map(_square, list(range(6))) == [x * x for x in range(6)]
        finally:
            pool.close()

    @pytest.mark.parametrize("kind", ["lambda", "nested-def", "bound-method"])
    def test_unpicklable_worker_fails_at_dispatch(self, kind):
        # Every chunk's callable is pickled, so only a module-level def can
        # be a worker; anything else fails on the first map, not in a later
        # run, and is not mistaken for a broken pool.
        def nested(x: int) -> int:
            return x

        fn = {
            "lambda": lambda x: x,
            "nested-def": nested,
            "bound-method": _LockHolder().work,
        }[kind]
        pool = PairPool(n_workers=2)
        try:
            with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
                pool.map(fn, [1, 2])
            assert pool.pool_breaks == 0
        finally:
            pool.close()


def _square(x: int) -> int:
    return x * x


class _LockHolder:
    def __init__(self) -> None:
        self._lock = make_lock("test-pair-pool-holder")

    def work(self, x: int) -> int:
        return x


def make_pairs(seed: int, n_pairs: int, tuples_per_side: int):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        build = Relation.from_keys(
            rng.integers(0, 500, tuples_per_side, dtype=np.int64), name="R"
        )
        probe = Relation.from_keys(
            rng.integers(0, 500, tuples_per_side, dtype=np.int64), name="S"
        )
        pairs.append((build, probe, murmur2(build.keys), murmur2(probe.keys)))
    return pairs


class TestChunkWorkers:
    """The worker bodies, run in-process (fork children escape coverage)."""

    def test_fine_chunk_matches_direct_pair_joins(self):
        config = HashJoinConfig()
        pairs = make_pairs(5, 3, 400)
        capacity = arena_capacity_for(1200, 1200) + 2400 * 16
        outcome = _run_chunk((join_partition_pair, pairs, config, capacity))
        assert isinstance(outcome, ChunkOutcome)
        assert len(outcome.pairs) == 3

        allocator = config.make_allocator(capacity)
        expected = [
            join_partition_pair(b, p, bh, ph, config, allocator)
            for b, p, bh, ph in pairs
        ]
        for (got_b, got_p, got_r, got_bytes), (exp_b, exp_p, exp_r, exp_bytes) in zip(
            outcome.pairs, expected
        ):
            assert got_r.equals(exp_r)
            assert got_bytes == exp_bytes
        assert outcome.stats == allocator.stats
        assert outcome.arena_bytes == allocator.arena.used_bytes
        assert outcome.arena_bumps == allocator.arena.global_atomics

    def test_coarse_chunk_matches_direct_pair_joins(self):
        config = HashJoinConfig(shared_hash_table=False)
        pairs = make_pairs(6, 3, 400)
        capacity = arena_capacity_for(1200, 1200) + 2400 * 16
        outcome = _run_chunk((join_pair_coarse, pairs, config, capacity))
        allocator = config.make_allocator(capacity)
        expected = [
            join_pair_coarse(b, p, bh, ph, config, allocator)
            for b, p, bh, ph in pairs
        ]
        for (got_scalars, got_r, got_bytes), (exp_scalars, exp_r, exp_bytes) in zip(
            outcome.pairs, expected
        ):
            assert got_scalars == exp_scalars
            assert got_r.equals(exp_r)
            assert got_bytes == exp_bytes
        assert outcome.stats == allocator.stats

    def test_run_pairs_absorbs_allocator_deltas_in_pair_order(self):
        config = HashJoinConfig()
        pairs = make_pairs(7, 5, 300)
        capacity = arena_capacity_for(1500, 1500) + 3000 * 16

        serial_allocator = config.make_allocator(capacity)
        expected = [
            join_partition_pair(b, p, bh, ph, config, serial_allocator)
            for b, p, bh, ph in pairs
        ]
        pooled_allocator = config.make_allocator(capacity)
        outcomes = run_pairs(
            join_partition_pair, pairs, config, pooled_allocator, n_workers=2
        )
        assert len(outcomes) == len(expected)
        for (_, _, got_r, got_bytes), (_, _, exp_r, exp_bytes) in zip(
            outcomes, expected
        ):
            assert got_r.equals(exp_r)
            assert got_bytes == exp_bytes
        assert pooled_allocator.stats.__dict__ == serial_allocator.stats.__dict__
        assert pooled_allocator.arena.used_bytes == serial_allocator.arena.used_bytes
        assert (
            pooled_allocator.arena.global_atomics
            == serial_allocator.arena.global_atomics
        )


# ---------------------------------------------------------------------------
# Whole-join parity: parallel=True is a bit-matched twin of parallel=False
# ---------------------------------------------------------------------------
class TestFineGrainedParallelParity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_build=st.integers(min_value=1, max_value=4000),
        key_space=st.sampled_from([97, 1000, 50_000]),
    )
    @SETTINGS
    def test_partitioned_join_parity(self, seed, n_build, key_space):
        build, probe = relation_pair(seed, n_build, n_build * 2, key_space)
        serial = PartitionedHashJoin(
            target_partition_tuples=500, parallel=False
        ).run(build, probe)
        pooled = PartitionedHashJoin(
            target_partition_tuples=500, parallel=True, n_workers=2
        ).run(build, probe)
        assert serial.result.equals(pooled.result)
        assert serial.max_pair_table_bytes == pooled.max_pair_table_bytes
        assert_series_lists_equal(serial.step_series, pooled.step_series)

    def test_parity_on_generated_skewed_workload(self):
        build = generate_build_relation(30_000, skew=SKEW_PRESETS["high-skew"], seed=3)
        probe = generate_probe_relation(build, 60_000, seed=4)
        serial = PartitionedHashJoin(
            target_partition_tuples=1000, parallel=False
        ).run(build, probe)
        pooled = PartitionedHashJoin(
            target_partition_tuples=1000, parallel=True, n_workers=2
        ).run(build, probe)
        assert serial.result.equals(pooled.result)
        assert_series_lists_equal(serial.step_series, pooled.step_series)


class TestCoarseParallelParity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_build=st.integers(min_value=1, max_value=3000),
    )
    @SETTINGS
    def test_coarse_join_parity(self, seed, n_build):
        build, probe = relation_pair(seed, n_build, n_build * 2, 1000)
        serial = CoarseGrainedPHJ(
            target_partition_tuples=500, parallel=False
        ).run(build, probe)
        pooled = CoarseGrainedPHJ(
            target_partition_tuples=500, parallel=True, n_workers=2
        ).run(build, probe)
        assert serial.result.equals(pooled.result)
        assert serial.total_table_bytes == pooled.total_table_bytes
        assert_series_lists_equal(
            [serial.pair_series], [pooled.pair_series]
        )


def simple_pair_joiner(build: Relation, probe: Relation):
    return (len(build) + len(probe)) * 1e-9, vectorized_reference_join(build, probe)


# ---------------------------------------------------------------------------
# Robustness: spilling, recursion, role reversal under adversarial skew
# ---------------------------------------------------------------------------
class TestRobustness:
    def test_all_duplicate_keys_spill_within_budget(self):
        """A single heavy-hitter key defeats re-partitioning entirely: the
        pair must spill (streamed against the resident smaller side, roles
        reversed) and still produce the exact cross product."""
        buffer_bytes = 16 * 1024
        build = Relation.from_keys(np.full(8000, 42, dtype=np.int64), name="R")
        probe = Relation.from_keys(np.full(900, 42, dtype=np.int64), name="S")
        external = ExternalHashJoin(
            simple_pair_joiner,
            machine=small_buffer_machine(buffer_bytes),
            chunk_tuples=5000,
        )
        run = external.run(build, probe)
        assert run.result.equals(vectorized_reference_join(build, probe))
        assert run.result.match_count == 8000 * 900
        assert run.stats.spilled_pairs >= 1
        assert run.stats.role_reversals >= 1
        assert run.stats.max_in_buffer_bytes * external.overhead_factor <= buffer_bytes

    def test_block_nested_loop_when_both_sides_overflow(self):
        buffer_bytes = 4 * 1024
        build = Relation.from_keys(np.full(4000, 7, dtype=np.int64), name="R")
        probe = Relation.from_keys(np.full(4000, 7, dtype=np.int64), name="S")
        external = ExternalHashJoin(
            simple_pair_joiner,
            machine=small_buffer_machine(buffer_bytes),
            chunk_tuples=2000,
        )
        run = external.run(build, probe)
        assert run.result.match_count == 4000 * 4000
        assert run.stats.spilled_pairs >= 1
        assert run.stats.max_in_buffer_bytes * external.overhead_factor <= buffer_bytes

    def test_heavy_hitter_mix_recurses_then_finishes(self):
        """Zipfian-style mix: recursion peels the uniform partitions level by
        level (fresh seed each level) until only the irreducible heavy-hitter
        pair is left to spill — all within the simulated budget."""
        rng = np.random.default_rng(21)
        keys = np.concatenate(
            [
                np.full(3000, 7, dtype=np.int64),
                rng.integers(0, 100_000, 40_000, dtype=np.int64),
            ]
        )
        build = Relation.from_keys(keys, name="R")
        probe = Relation.from_keys(rng.permutation(keys), name="S")
        buffer_bytes = 64 * 1024
        external = ExternalHashJoin(
            simple_pair_joiner,
            machine=small_buffer_machine(buffer_bytes),
            chunk_tuples=5000,
        )
        run = external.run(build, probe)
        assert run.result.equals(vectorized_reference_join(build, probe))
        assert run.stats.recursive_splits >= 1
        assert run.stats.max_pair_depth >= 1
        assert run.stats.max_pair_depth <= external.max_recursion_depth
        assert run.stats.max_in_buffer_bytes * external.overhead_factor <= buffer_bytes

    def test_recursion_depth_budget_is_respected(self):
        rng = np.random.default_rng(22)
        build = Relation.from_keys(
            rng.integers(0, 100_000, 40_000, dtype=np.int64), name="R"
        )
        probe = Relation.from_keys(
            rng.integers(0, 100_000, 40_000, dtype=np.int64), name="S"
        )
        external = ExternalHashJoin(
            simple_pair_joiner,
            machine=small_buffer_machine(8 * 1024),
            chunk_tuples=5000,
            max_recursion_depth=0,
        )
        run = external.run(build, probe)
        # With no recursion allowed, every oversized pair spills directly.
        assert run.stats.recursive_splits == 0
        assert run.stats.max_pair_depth == 0
        assert run.result.equals(vectorized_reference_join(build, probe))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ExternalHashJoin(simple_pair_joiner, chunk_tuples=0)
        with pytest.raises(ValueError):
            ExternalHashJoin(simple_pair_joiner, overhead_factor=0.5)
        with pytest.raises(ValueError):
            ExternalHashJoin(simple_pair_joiner, max_recursion_depth=-1)
