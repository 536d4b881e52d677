"""Vectorized join-execution kernels: bit-parity suite (ISSUE 5).

Every kernel introduced by the vectorized execution layer keeps its scalar
predecessor as a togglable reference path, and this suite pins the two at
*bit* equality, not tolerance:

* ``final_partition_ids`` / ``execute_partition_phase`` — the fused
  single-hash kernel equals the per-pass loop for every (bits, passes)
  configuration, including allocator accounting.
* ``partition_pairs`` / ``pair_table`` — the buckets every pair table takes
  from the hashes carried through partitioning equal the buckets ``bucket_of``
  computes from the pair's keys, and only partitions that hold a tuple are
  sliced or take memory.
* ``concat_step_series`` — the scalar-collapse rules: all-NaN scalars
  collapse instead of silently broadcasting (regression).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.data.workload import JoinWorkload
from repro.hashjoin import (
    HashJoinConfig,
    HashTable,
    PartitionConfig,
    PartitionError,
    PartitionedHashJoin,
    bucket_of,
    concat_step_series,
    execute_partition_phase,
    final_partition_ids,
    pair_table,
    partition_pairs,
    vectorized_reference_join,
)
from repro.hashjoin.hashtable import HashTableError
from repro.hashjoin.steps import PerTupleWork, StepExecution, StepSeries, step_by_name

SETTINGS = settings(
    max_examples=30,
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


def build_table(keys, n_buckets) -> HashTable:
    keys = np.asarray(keys, dtype=np.int64)
    table = HashTable(n_buckets=n_buckets)
    if keys.size:
        table.bulk_insert(
            keys, np.arange(keys.size, dtype=np.int64), bucket_of(keys, n_buckets)
        )
    return table


def assert_work_equal(a, b) -> None:
    """Bit-equality of two per-tuple quantities incl. scalar-vs-array kind."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        assert np.array_equal(a, b, equal_nan=True)
    else:
        assert (a == b) or (np.isnan(a) and np.isnan(b))


def assert_series_equal(a: StepSeries, b: StepSeries) -> None:
    assert a.phase == b.phase
    assert a.step_names == b.step_names
    for ea, eb in zip(a, b):
        assert ea.n_tuples == eb.n_tuples
        assert ea.conflict_ratio == eb.conflict_ratio
        assert ea.intermediate_bytes_per_tuple == eb.intermediate_bytes_per_tuple
        assert ea.grouped == eb.grouped
        for name in WORK_QUANTITIES:
            assert_work_equal(getattr(ea.work, name), getattr(eb.work, name))


class TestVectorizedValidate:
    def test_valid_tables_pass_both_modes(self):
        table = build_table(np.random.default_rng(0).integers(0, 50, 200), 16)
        table.validate()

    def test_keys_out_of_order_in_a_bucket_raise(self):
        table = build_table(np.arange(64), 1)  # one chain holds every key
        table.key_node_key[[0, 1]] = table.key_node_key[[1, 0]]
        with pytest.raises(HashTableError, match="order"):
            table.validate()

    def test_wrong_bucket_key_count_raises(self):
        table = build_table(np.arange(32), 8)
        table.bucket_key_count[0] += 1
        table.bucket_key_count[1] -= 1  # keep the sum intact
        with pytest.raises(HashTableError):
            table.validate()

    def test_offsets_that_skip_a_rid_raise(self):
        table = build_table(np.repeat(np.arange(8), 3), 4)  # three rids per key
        table.rid_offsets[0] = 1  # rid list 0 starts past the first rid
        with pytest.raises(HashTableError, match="rid offsets"):
            table.validate()


# ---------------------------------------------------------------------------
# Fused radix partitioning vs the per-pass loop
# ---------------------------------------------------------------------------
class TestPartitionParity:
    @SETTINGS
    @given(
        n=st.integers(0, 500),
        bits=st.integers(1, 8),
        passes=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_final_partition_ids_fused_equals_loop(self, n, bits, passes, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, np.iinfo(np.uint32).max, size=n, dtype=np.int64)
        config = PartitionConfig(bits_per_pass=bits, n_passes=passes)
        fused = final_partition_ids(keys, config, fused=True)
        loop = final_partition_ids(keys, config, fused=False)
        assert fused.dtype == loop.dtype == np.int64
        assert np.array_equal(fused, loop)

    @pytest.mark.parametrize("n_passes,bits", [(1, 6), (2, 4), (3, 8), (6, 4)])
    def test_partition_phase_fused_equals_reference(self, n_passes, bits):
        workload = JoinWorkload.uniform(2_000, 3_000, seed=11)
        config = PartitionConfig(bits_per_pass=bits, n_passes=n_passes)
        join_config = HashJoinConfig()

        outcomes = {}
        allocators = {}
        for fused in (True, False):
            allocator = join_config.make_allocator(1 << 24)
            outcomes[fused] = execute_partition_phase(
                workload.build, workload.probe, config, join_config, allocator,
                fused=fused,
            )
            allocators[fused] = allocator

        assert allocators[True].stats.__dict__ == allocators[False].stats.__dict__
        assert np.array_equal(
            outcomes[True].build_partitions.partition_ids,
            outcomes[False].build_partitions.partition_ids,
        )
        assert np.array_equal(
            outcomes[True].probe_partitions.partition_ids,
            outcomes[False].probe_partitions.partition_ids,
        )
        for series_fused, series_ref in zip(
            outcomes[True].series_per_pass, outcomes[False].series_per_pass
        ):
            assert_series_equal(series_fused, series_ref)
            for execution_fused, execution_ref in zip(series_fused, series_ref):
                ws_fused, ws_ref = execution_fused.working_set, execution_ref.working_set
                assert (ws_fused is None) == (ws_ref is None)
                if ws_fused is not None:
                    assert ws_fused.bytes == ws_ref.bytes

    def test_empty_relations(self):
        empty = Relation(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        config = PartitionConfig(bits_per_pass=2, n_passes=2)
        join_config = HashJoinConfig()
        for fused in (True, False):
            outcome = execute_partition_phase(
                empty, empty, config, join_config, join_config.make_allocator(1 << 20),
                fused=fused,
            )
            assert outcome.series_per_pass[0].n_tuples == 0
            assert outcome.build_partitions.partition_ids.size == 0

    def test_reference_phase_carries_no_hashes_to_split(self):
        # Pair tables take their buckets from carried hashes; the per-pass
        # reference carries none, so splitting its sets must not yield pairs.
        workload = JoinWorkload.uniform(100, 100, seed=2)
        join_config = HashJoinConfig()
        outcome = execute_partition_phase(
            workload.build, workload.probe, PartitionConfig(bits_per_pass=2),
            join_config, join_config.make_allocator(1 << 20), fused=False,
        )
        with pytest.raises(PartitionError, match="no hashes"):
            outcome.build_partitions.partitions_with_hashes()

    @SETTINGS
    @given(
        n_build=st.sampled_from((0, 1)) | st.integers(2, 300),
        n_probe=st.sampled_from((0, 1)) | st.integers(2, 300),
        bits=st.integers(1, 8),
        passes=st.integers(1, 3),
        n_buckets=st.sampled_from((1, 16, None)),
        seed=st.integers(0, 10_000),
    )
    def test_pair_tables_take_the_key_buckets_from_carried_hashes(
        self, n_build, n_probe, bits, passes, n_buckets, seed
    ):
        assume(bits * passes <= 16)
        rng = np.random.default_rng(seed)
        key_space = int(rng.integers(1, 2**40))
        build = Relation.from_keys(rng.integers(0, key_space, n_build, dtype=np.int64))
        probe = Relation.from_keys(rng.integers(0, key_space, n_probe, dtype=np.int64))
        config = HashJoinConfig(n_buckets=n_buckets)
        partition_config = PartitionConfig(bits_per_pass=bits, n_passes=passes)

        _, pairs, allocator = partition_pairs(build, probe, partition_config, config)
        assert sum(len(build_part) for build_part, *_ in pairs) == n_build
        assert sum(len(probe_part) for _, probe_part, *_ in pairs) == n_probe
        for build_part, probe_part, build_hashes, probe_hashes in pairs:
            table, build_buckets, probe_buckets = pair_table(
                build_hashes, probe_hashes, config, allocator
            )
            assert np.array_equal(build_buckets, bucket_of(build_part.keys, table.n_buckets))
            assert np.array_equal(probe_buckets, bucket_of(probe_part.keys, table.n_buckets))

    def test_split_slices_only_the_partitions_that_hold_tuples(self, monkeypatch):
        # A 16-bit plan over 1k tuples leaves most of its 65,536 partitions
        # empty on both sides; slicing those made the join's cost follow the
        # partition count instead of the tuples.
        workload = JoinWorkload.uniform(1_000, 1_000, seed=1)
        slices = []
        original = Relation.slice

        def counting_slice(self, *args, **kwargs):
            slices.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Relation, "slice", counting_slice)
        partition_config = PartitionConfig(bits_per_pass=8, n_passes=2)
        _, pairs, _ = partition_pairs(
            workload.build, workload.probe, partition_config, HashJoinConfig()
        )
        assert 0 < len(pairs) < partition_config.n_partitions
        assert len(slices) <= 2 * len(pairs)
        slices.clear()
        PartitionedHashJoin(partition_config=partition_config).run(
            workload.build, workload.probe
        )
        assert len(slices) <= 2 * len(pairs)

    def test_split_memory_follows_the_tuples_not_the_partition_count(self):
        # A 24-bit plan has 16,777,216 partitions.  Counting tuples per
        # possible partition (int64 histograms and their prefix sums) peaked
        # at 385 MiB for 1k x 1k tuples; reading the occupied partitions off
        # each side's sorted ids peaks at about 8 MiB.
        workload = JoinWorkload.uniform(1_000, 1_000, seed=1)
        join = PartitionedHashJoin(
            partition_config=PartitionConfig(bits_per_pass=8, n_passes=3)
        )
        tracemalloc.start()
        try:
            run = join.run(workload.build, workload.probe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert run.result.equals(vectorized_reference_join(workload.build, workload.probe))


# ---------------------------------------------------------------------------
# Step-series concatenation: scalar-collapse rules
# ---------------------------------------------------------------------------
def synthetic_series(rng: np.random.Generator, lengths, nan_mode=None) -> list[StepSeries]:
    """One single-step series per 'pair', with a random scalar/array mix."""
    series = []
    shared_scalar = float(rng.uniform(0.0, 8.0))
    for length in lengths:
        quantities = {}
        for name in WORK_QUANTITIES:
            choice = rng.integers(0, 3)
            if nan_mode == "all" and name == "instructions":
                quantities[name] = float("nan")
            elif choice == 0:
                quantities[name] = shared_scalar  # collapsible across pairs
            elif choice == 1:
                quantities[name] = float(rng.uniform(0.0, 4.0))
            else:
                quantities[name] = rng.uniform(0.0, 4.0, size=length)
        work = PerTupleWork(n_tuples=length, **quantities)
        series.append(
            StepSeries(
                phase="probe",
                executions=[
                    StepExecution(
                        step=step_by_name("p3"),
                        work=work,
                        working_set=None,
                        conflict_ratio={"cpu": float(rng.uniform(0, 0.1)), "gpu": 0.0},
                    )
                ],
            )
        )
    return series


class TestConcatCollapse:
    def test_all_nan_scalars_collapse(self):
        """Regression: NaN != NaN used to force a full-array broadcast."""
        rng = np.random.default_rng(0)
        series = synthetic_series(rng, [5, 7], nan_mode="all")
        merged = concat_step_series(series, "probe", None)
        value = merged[0].work.instructions
        assert not isinstance(value, np.ndarray)
        assert np.isnan(value)

    def test_mixed_nan_scalars_broadcast(self):
        rng = np.random.default_rng(1)
        lengths = [4, 6]
        series = synthetic_series(rng, lengths)
        series[0][0].work.instructions = float("nan")
        series[1][0].work.instructions = 2.0
        merged = concat_step_series(series, "probe", None)
        value = merged[0].work.instructions
        assert isinstance(value, np.ndarray)
        assert np.all(np.isnan(value[:4])) and np.all(value[4:] == 2.0)
