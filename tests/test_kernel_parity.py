"""Vectorized join-execution kernels: bit-parity suite (ISSUE 5).

Every kernel introduced by the vectorized execution layer keeps its scalar
predecessor as a togglable reference path, and this suite pins the two at
*bit* equality, not tolerance:

* ``final_partition_ids`` / ``execute_partition_phase`` — the fused
  single-hash kernel equals the per-pass loop for every (bits, passes)
  configuration, including allocator accounting.
* ``concat_step_series`` — the scalar-collapse rules: all-NaN scalars
  collapse instead of silently broadcasting (regression).
* Whole joins — ``PartitionedHashJoin``/``CoarseGrainedPHJ`` runs with
  ``use_kernels=False`` return bit-identical results, step series and work
  totals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.data.workload import JoinWorkload
from repro.hashjoin import (
    CoarseGrainedPHJ,
    HashJoinConfig,
    HashTable,
    PartitionConfig,
    PartitionedHashJoin,
    bucket_of,
    concat_step_series,
    execute_partition_phase,
    final_partition_ids,
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

    def test_broken_next_pointer_raises(self):
        table = build_table(np.arange(64), 4)  # long chains per bucket
        node = int(table.bucket_head[0])
        table.key_node_next[node] = node  # cycle / broken chain
        with pytest.raises(HashTableError):
            table.validate()

    def test_wrong_bucket_key_count_raises(self):
        table = build_table(np.arange(32), 8)
        table.bucket_key_count[0] += 1
        table.bucket_key_count[1] -= 1  # keep the sum intact
        with pytest.raises(HashTableError):
            table.validate()

    def test_unreachable_head_raises(self):
        table = build_table(np.arange(32), 8)
        busy = int(np.argmax(table.bucket_key_count))
        table.bucket_head[busy] = -1
        with pytest.raises(HashTableError):
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

    def test_partition_sizes_bincount(self):
        workload = JoinWorkload.uniform(1_000, 1_000, seed=3)
        config = PartitionConfig(bits_per_pass=4, n_passes=1)
        ids = final_partition_ids(workload.build.keys, config)
        from repro.hashjoin import PartitionSet

        sizes = PartitionSet(workload.build, ids, config).partition_sizes()
        assert sizes.sum() == len(workload.build)
        assert sizes.shape == (config.n_partitions,)
        reference = np.zeros(config.n_partitions, dtype=np.int64)
        np.add.at(reference, ids, 1)
        assert np.array_equal(sizes, reference)


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


# ---------------------------------------------------------------------------
# Whole joins with kernels on/off
# ---------------------------------------------------------------------------
class TestJoinParity:
    @pytest.mark.parametrize(
        "partition_config",
        [PartitionConfig(bits_per_pass=4, n_passes=1),
         PartitionConfig(bits_per_pass=3, n_passes=2)],
    )
    def test_phj_run_bit_identical(self, partition_config):
        workload = JoinWorkload.skewed("high-skew", 4_000, 6_000, seed=5)
        runs = {}
        for use_kernels in (True, False):
            runs[use_kernels] = PartitionedHashJoin(
                partition_config=partition_config, use_kernels=use_kernels
            ).run(workload.build, workload.probe)
        vec, ref = runs[True], runs[False]
        assert np.array_equal(vec.result.build_rids, ref.result.build_rids)
        assert np.array_equal(vec.result.probe_rids, ref.result.probe_rids)
        assert vec.max_pair_table_bytes == ref.max_pair_table_bytes
        for series_vec, series_ref in zip(vec.step_series, ref.step_series):
            assert_series_equal(series_vec, series_ref)

    def test_coarse_phj_bit_identical(self):
        workload = JoinWorkload.uniform(3_000, 3_000, seed=13)
        runs = {
            use_kernels: CoarseGrainedPHJ(
                partition_config=PartitionConfig(bits_per_pass=4, n_passes=1),
                use_kernels=use_kernels,
            ).run(workload.build, workload.probe)
            for use_kernels in (True, False)
        }
        vec, ref = runs[True], runs[False]
        assert np.array_equal(vec.result.build_rids, ref.result.build_rids)
        assert np.array_equal(vec.result.probe_rids, ref.result.probe_rids)
        assert vec.total_table_bytes == ref.total_table_bytes
        assert_series_equal(vec.pair_series, ref.pair_series)

