"""Unit and integration tests for the SHJ / PHJ operators and their steps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Relation
from repro.hashjoin import (
    BUILD_STEPS,
    CoarseGrainedPHJ,
    HashJoinConfig,
    PROBE_STEPS,
    PartitionConfig,
    PartitionedHashJoin,
    SimpleHashJoin,
    final_partition_ids,
    plan_partitioning,
    reference_join,
    vectorized_reference_join,
)


class TestReferenceJoins:
    def test_reference_implementations_agree(self, small_workload):
        plain = reference_join(
            small_workload.build.slice(0, 300), small_workload.probe.slice(0, 300)
        )
        fast = vectorized_reference_join(
            small_workload.build.slice(0, 300), small_workload.probe.slice(0, 300)
        )
        assert plain.equals(fast)

    def test_reference_join_counts_duplicates(self):
        build = Relation(keys=np.array([1, 1, 2]), rids=np.array([0, 1, 2]))
        probe = Relation(keys=np.array([1, 2, 3]), rids=np.array([10, 11, 12]))
        result = reference_join(build, probe)
        assert result.match_count == 3
        assert (1, 11) not in result.as_pair_set()


class TestSimpleHashJoin:
    def test_matches_reference(self, small_workload):
        run = SimpleHashJoin().run(small_workload.build, small_workload.probe)
        reference = vectorized_reference_join(small_workload.build, small_workload.probe)
        assert run.result.equals(reference)

    def test_expected_match_count(self, small_workload):
        run = SimpleHashJoin().run(small_workload.build, small_workload.probe)
        assert run.result.match_count == small_workload.expected_matches()

    def test_step_series_structure(self, small_workload):
        run = SimpleHashJoin().run(small_workload.build, small_workload.probe)
        assert run.build.series.step_names == [s.name for s in BUILD_STEPS]
        assert run.probe.series.step_names == [s.name for s in PROBE_STEPS]
        assert run.build.series.n_tuples == small_workload.build_tuples
        assert run.probe.series.n_tuples == small_workload.probe_tuples

    def test_table_is_consistent(self, small_workload):
        run = SimpleHashJoin().run(small_workload.build, small_workload.probe)
        run.table.validate()
        assert run.table.n_rid_nodes == small_workload.build_tuples

    def test_skewed_workload_correct(self, skewed_workload):
        run = SimpleHashJoin().run(skewed_workload.build, skewed_workload.probe)
        reference = vectorized_reference_join(skewed_workload.build, skewed_workload.probe)
        assert run.result.equals(reference)

    def test_selective_workload_correct(self, selective_workload):
        run = SimpleHashJoin().run(selective_workload.build, selective_workload.probe)
        assert run.result.match_count == selective_workload.expected_matches()

    def test_empty_probe(self, small_workload):
        run = SimpleHashJoin().run(small_workload.build, Relation.empty("S"))
        assert run.result.match_count == 0

    def test_basic_allocator_config(self, small_workload):
        config = HashJoinConfig(allocator_kind="basic")
        run = SimpleHashJoin(config).run(small_workload.build, small_workload.probe)
        assert run.result.match_count == small_workload.expected_matches()

    def test_grouping_config_does_not_change_result(self, skewed_workload):
        grouped = SimpleHashJoin(HashJoinConfig(grouping=True)).run(
            skewed_workload.build, skewed_workload.probe
        )
        ungrouped = SimpleHashJoin(HashJoinConfig(grouping=False)).run(
            skewed_workload.build, skewed_workload.probe
        )
        assert grouped.result.equals(ungrouped.result)

    def test_workload_dependent_steps_have_arrays(self, small_workload):
        run = SimpleHashJoin().run(small_workload.build, small_workload.probe)
        b3 = run.build.series[2]
        assert isinstance(b3.work.random_accesses, np.ndarray)
        p4 = run.probe.series[3]
        assert isinstance(p4.work.random_accesses, np.ndarray)


class TestPartitioningPlan:
    def test_plan_partitioning_targets_size(self):
        config = plan_partitioning(1_000_000, target_partition_tuples=64_000)
        assert config.n_partitions >= 16
        assert config.n_partitions <= 64

    def test_plan_partitioning_small_input(self):
        config = plan_partitioning(100, target_partition_tuples=64_000)
        assert config.n_partitions <= 2

    def test_multi_pass_when_many_bits_needed(self):
        config = plan_partitioning(10_000_000, target_partition_tuples=1_000, max_bits_per_pass=8)
        assert config.n_passes >= 2

    def test_invalid_configs_rejected(self):
        with pytest.raises(Exception):
            PartitionConfig(bits_per_pass=0)
        with pytest.raises(Exception):
            PartitionConfig(bits_per_pass=13, n_passes=3)

    def test_final_partition_ids_in_range(self):
        config = PartitionConfig(bits_per_pass=4, n_passes=2)
        ids = final_partition_ids(np.arange(10_000), config)
        assert ids.min() >= 0
        assert ids.max() < config.n_partitions


class TestPartitionedHashJoin:
    def test_matches_reference(self, small_workload):
        run = PartitionedHashJoin(target_partition_tuples=500).run(
            small_workload.build, small_workload.probe
        )
        reference = vectorized_reference_join(small_workload.build, small_workload.probe)
        assert run.result.equals(reference)

    def test_partition_pairs_align(self, small_workload):
        run = PartitionedHashJoin(target_partition_tuples=500).run(
            small_workload.build, small_workload.probe
        )
        build_sizes = np.bincount(run.partition_phase.build_partitions.partition_ids)
        probe_sizes = np.bincount(run.partition_phase.probe_partitions.partition_ids)
        assert build_sizes.sum() == small_workload.build_tuples
        assert probe_sizes.sum() == small_workload.probe_tuples

    def test_series_cover_all_tuples(self, small_workload):
        run = PartitionedHashJoin(target_partition_tuples=500).run(
            small_workload.build, small_workload.probe
        )
        total = small_workload.build_tuples + small_workload.probe_tuples
        for series in run.partition_phase.series_per_pass:
            assert series.n_tuples == total
        assert run.build_series.n_tuples == small_workload.build_tuples
        assert run.probe_series.n_tuples == small_workload.probe_tuples

    def test_multi_pass_partitioning_correct(self, small_workload):
        config = PartitionConfig(bits_per_pass=2, n_passes=2)
        run = PartitionedHashJoin(partition_config=config).run(
            small_workload.build, small_workload.probe
        )
        assert run.result.match_count == small_workload.expected_matches()
        assert len(run.partition_phase.series_per_pass) == 2

    def test_max_pair_table_smaller_than_shj_table(self, small_workload):
        shj = SimpleHashJoin().run(small_workload.build, small_workload.probe)
        phj = PartitionedHashJoin(target_partition_tuples=500).run(
            small_workload.build, small_workload.probe
        )
        assert phj.max_pair_table_bytes < shj.table.nbytes

    def test_skewed_workload_correct(self, skewed_workload):
        run = PartitionedHashJoin(target_partition_tuples=500).run(
            skewed_workload.build, skewed_workload.probe
        )
        assert run.result.match_count == skewed_workload.expected_matches()


class TestCoarseGrainedPHJ:
    def test_matches_reference(self, small_workload):
        run = CoarseGrainedPHJ(target_partition_tuples=500).run(
            small_workload.build, small_workload.probe
        )
        reference = vectorized_reference_join(small_workload.build, small_workload.probe)
        assert run.result.equals(reference)

    def test_pair_series_has_one_item_per_nonempty_pair(self, small_workload):
        run = CoarseGrainedPHJ(target_partition_tuples=500).run(
            small_workload.build, small_workload.probe
        )
        assert run.pair_series.n_steps == 1
        assert run.pair_series.n_tuples >= 1

    def test_private_tables_working_set_not_shared(self, small_workload):
        run = CoarseGrainedPHJ(target_partition_tuples=500).run(
            small_workload.build, small_workload.probe
        )
        ws = run.pair_series[0].working_set
        assert ws is not None
        assert ws.shared_between_devices is False
        assert run.total_table_bytes > 0


@pytest.mark.parametrize(
    "operator", [SimpleHashJoin, PartitionedHashJoin, CoarseGrainedPHJ]
)
def test_empty_inputs_join_to_nothing(operator):
    run = operator().run(Relation.empty("R"), Relation.empty("S"))
    assert run.result.match_count == 0


def test_empty_phj_series_keep_every_step():
    run = PartitionedHashJoin().run(Relation.empty("R"), Relation.empty("S"))
    assert run.build_series.step_names == [s.name for s in BUILD_STEPS]
    assert run.probe_series.step_names == [s.name for s in PROBE_STEPS]
    assert run.build_series.n_tuples == run.probe_series.n_tuples == 0
