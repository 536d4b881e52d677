"""Edge-case tests: external joins, the latch micro-benchmark model and
experiment-result formatting details."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import JoinWorkload, Relation
from repro.data.generator import SKEW_PRESETS, generate_build_relation, generate_probe_relation
from repro.experiments.common import ExperimentResult
from repro.experiments.fig19_external import small_buffer_machine
from repro.experiments.fig20_latch import effective_targets, latch_benchmark_time
from repro.hashjoin import (
    MAX_RADIX_BITS,
    MAX_SUPER_PARTITION_BITS,
    RESULT_PAIR_BYTES,
    ExternalHashJoin,
    SimpleHashJoin,
    plan_partitioning,
    plan_super_partitions,
    vectorized_reference_join,
)
from repro.hardware import coupled_machine


def simple_pair_joiner(build: Relation, probe: Relation):
    """A trivial pair joiner charging time proportional to the input size."""
    result = vectorized_reference_join(build, probe)
    return (len(build) + len(probe)) * 1e-9, result


class TestPlanSuperPartitions:
    def test_fits_returns_one(self):
        workload = JoinWorkload.uniform(1_000, 1_000, seed=1)
        assert plan_super_partitions(workload.build, workload.probe, coupled_machine()) == 1

    def test_oversized_returns_power_of_two(self):
        workload = JoinWorkload.uniform(60_000, 60_000, seed=1)
        machine = small_buffer_machine(buffer_bytes=128 * 1024)
        parts = plan_super_partitions(workload.build, workload.probe, machine)
        assert parts > 1
        assert parts & (parts - 1) == 0

    @staticmethod
    def _past_ceiling_inputs():
        # 1.4M tuples a side against a 1-byte buffer needs > 2**24 partitions.
        relation = Relation.from_keys(np.arange(1_400_000, dtype=np.int64))
        return relation, relation, small_buffer_machine(buffer_bytes=1)

    def test_fan_out_clamped_at_radix_bit_ceiling(self):
        """An absurd buffer/relation ratio must not plan past 24 radix bits;
        the overflow pairs are stage-2's problem (recursion / spilling)."""
        build, probe, machine = self._past_ceiling_inputs()
        parts = plan_super_partitions(build, probe, machine)
        assert parts == 1 << MAX_SUPER_PARTITION_BITS

    def test_fan_out_at_ceiling_does_not_raise(self):
        workload = JoinWorkload.uniform(4_000, 4_000, seed=1)
        pair_bytes = workload.build.nbytes + workload.probe.nbytes
        # Buffer sized so the needed fan-out lands exactly on the ceiling.
        buffer_bytes = max(
            1, int(np.ceil(pair_bytes * 2.0 / (1 << MAX_SUPER_PARTITION_BITS)))
        )
        machine = small_buffer_machine(buffer_bytes=buffer_bytes)
        parts = plan_super_partitions(workload.build, workload.probe, machine)
        assert parts <= 1 << MAX_SUPER_PARTITION_BITS


class TestPlanPartitioningCeiling:
    """Satellite: huge build sides must cap at 24 total radix bits, not crash."""

    def test_huge_build_side_caps_total_bits(self):
        config = plan_partitioning(1 << 30, target_partition_tuples=1)
        assert config.total_bits <= MAX_RADIX_BITS

    @pytest.mark.parametrize("max_bits_per_pass", [1, 3, 5, 7, 8])
    def test_cap_survives_per_pass_rounding(self, max_bits_per_pass):
        config = plan_partitioning(
            1 << 30, target_partition_tuples=1, max_bits_per_pass=max_bits_per_pass
        )
        assert config.total_bits <= MAX_RADIX_BITS

    def test_normal_sizes_unchanged(self):
        config = plan_partitioning(640_000, target_partition_tuples=10_000)
        assert config.total_bits == 6


class TestExternalHashJoin:
    def test_result_correct_across_many_partitions(self):
        workload = JoinWorkload.uniform(20_000, 20_000, seed=9)
        machine = small_buffer_machine(buffer_bytes=32 * 1024)
        external = ExternalHashJoin(simple_pair_joiner, machine=machine, chunk_tuples=5_000)
        run = external.run(workload.build, workload.probe)
        assert not run.fits_in_buffer
        assert run.result.match_count == workload.expected_matches()
        assert run.breakdown.total_s == pytest.approx(
            run.breakdown.partition_s + run.breakdown.join_s + run.breakdown.data_copy_s
        )

    def test_empty_relations(self):
        machine = coupled_machine()
        external = ExternalHashJoin(simple_pair_joiner, machine=machine)
        run = external.run(Relation.empty("R"), Relation.empty("S"))
        assert run.result.match_count == 0
        assert run.fits_in_buffer

    def test_breakdown_as_dict(self):
        workload = JoinWorkload.uniform(2_000, 2_000, seed=9)
        external = ExternalHashJoin(simple_pair_joiner, machine=coupled_machine())
        run = external.run(workload.build, workload.probe)
        d = run.breakdown.as_dict()
        assert set(d) == {"partition_s", "join_s", "data_copy_s", "total_s"}

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ExternalHashJoin(simple_pair_joiner, chunk_tuples=0)

    def test_stage2_charges_result_copy_out(self):
        """Regression: stage 2 must charge the join result's copy-out, not
        just the pair's copy-in.  With no spilling or recursion the copied
        bytes are exactly: each relation staged in and out once (stage 1),
        every non-empty pair copied in once, and every emitted rid pair
        copied out once."""
        workload = JoinWorkload.uniform(20_000, 20_000, seed=9)
        machine = small_buffer_machine(buffer_bytes=32 * 1024)
        machine.memory.reset()
        external = ExternalHashJoin(
            simple_pair_joiner, machine=machine, chunk_tuples=5_000
        )
        run = external.run(workload.build, workload.probe)
        assert run.stats.spilled_pairs == 0
        assert run.stats.recursive_splits == 0

        staged = 2 * (workload.build.nbytes + workload.probe.nbytes)
        pair_in = workload.build.nbytes + workload.probe.nbytes  # all pairs occupied
        result_out = run.result.match_count * RESULT_PAIR_BYTES
        assert machine.memory.copied_bytes == staged + pair_in + result_out
        assert result_out > 0  # the historical accounting dropped this term

    def test_more_chunks_mean_more_copies(self):
        workload = JoinWorkload.uniform(40_000, 40_000, seed=2)
        fine = ExternalHashJoin(
            simple_pair_joiner, machine=small_buffer_machine(64 * 1024), chunk_tuples=5_000
        ).run(workload.build, workload.probe)
        coarse = ExternalHashJoin(
            simple_pair_joiner, machine=small_buffer_machine(64 * 1024), chunk_tuples=40_000
        ).run(workload.build, workload.probe)
        assert fine.result.match_count == coarse.result.match_count
        assert fine.breakdown.data_copy_s >= coarse.breakdown.data_copy_s - 1e-12


class TestExternalSkewParity:
    """Satellite: skewed / duplicate-heavy keys through the external join
    (including the recursive re-partition path) must reproduce the simple
    in-memory join exactly."""

    @staticmethod
    def _simple_join_result(build, probe):
        return SimpleHashJoin().run(build, probe).result

    def test_zipfian_keys_match_simple_join(self):
        build = generate_build_relation(
            25_000, skew=SKEW_PRESETS["high-skew"], seed=17
        )
        probe = generate_probe_relation(build, 50_000, seed=18)
        machine = small_buffer_machine(buffer_bytes=48 * 1024)
        run = ExternalHashJoin(
            simple_pair_joiner, machine=machine, chunk_tuples=5_000
        ).run(build, probe)
        assert not run.fits_in_buffer
        assert run.result.equals(self._simple_join_result(build, probe))

    def test_heavy_hitter_triggers_recursion_and_matches_simple_join(self):
        rng = np.random.default_rng(19)
        keys = np.concatenate(
            [
                np.full(2_500, 11, dtype=np.int64),
                rng.integers(0, 80_000, 35_000, dtype=np.int64),
            ]
        )
        build = Relation.from_keys(keys, name="R")
        probe = Relation.from_keys(rng.permutation(keys), name="S")
        machine = small_buffer_machine(buffer_bytes=64 * 1024)
        external = ExternalHashJoin(
            simple_pair_joiner, machine=machine, chunk_tuples=5_000
        )
        run = external.run(build, probe)
        assert run.stats.recursive_splits >= 1
        assert run.result.equals(self._simple_join_result(build, probe))
        assert (
            run.stats.max_in_buffer_bytes * external.overhead_factor
            <= machine.memory.zero_copy.capacity_bytes
        )

    def test_all_equal_keys_match_simple_join(self):
        build = Relation.from_keys(np.full(5_000, 3, dtype=np.int64), name="R")
        probe = Relation.from_keys(np.full(700, 3, dtype=np.int64), name="S")
        machine = small_buffer_machine(buffer_bytes=16 * 1024)
        run = ExternalHashJoin(
            simple_pair_joiner, machine=machine, chunk_tuples=2_000
        ).run(build, probe)
        assert run.stats.spilled_pairs >= 1
        assert run.result.equals(self._simple_join_result(build, probe))


class TestLatchModel:
    def test_effective_targets_uniform_is_array_size(self):
        assert effective_targets(1_000, 0.0) == 1_000

    def test_effective_targets_skew_reduces_targets(self):
        assert effective_targets(1_000, 0.25) < 1_000
        assert effective_targets(1_000, 0.25) > 1

    def test_single_element(self):
        assert effective_targets(1, 0.5) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            effective_targets(0, 0.1)
        with pytest.raises(ValueError):
            effective_targets(10, 1.5)

    def test_gpu_worse_than_cpu_on_single_hot_word(self):
        gpu = latch_benchmark_time("gpu", 1, 100_000, 0.0)
        cpu = latch_benchmark_time("cpu", 1, 100_000, 0.0)
        assert gpu > cpu

    def test_contention_falls_with_more_targets(self):
        few = latch_benchmark_time("gpu", 1, 100_000, 0.0)
        many = latch_benchmark_time("gpu", 100_000, 100_000, 0.0)
        assert many < few

    def test_high_skew_not_slower_beyond_cache(self):
        uniform = latch_benchmark_time("cpu", 4_000_000, 100_000, 0.0)
        skewed = latch_benchmark_time("cpu", 4_000_000, 100_000, 0.25)
        assert skewed <= uniform * 1.02


class TestExperimentResultFormatting:
    def test_empty_result_text(self):
        result = ExperimentResult("Empty", "no rows yet")
        assert "(no rows)" in result.to_text()
        assert "(no rows)" in result.to_markdown()

    def test_missing_columns_padded(self):
        result = ExperimentResult("X", "ragged rows")
        result.add_row(a=1)
        result.add_row(b=2)
        text = result.to_text()
        assert "a" in text and "b" in text

    def test_bool_and_int_formatting(self):
        result = ExperimentResult("X", "types")
        result.add_row(flag=True, count=3, value=0.125)
        text = result.to_text()
        assert "True" in text and "3" in text and "0.125" in text

    def test_parameters_recorded(self):
        result = ExperimentResult("X", "params", parameters={"n": 5})
        assert result.parameters["n"] == 5
