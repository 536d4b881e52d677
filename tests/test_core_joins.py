"""Integration tests for the end-to-end join variants and the planner."""

from __future__ import annotations

import pytest

from repro.core import (
    HashJoinVariant,
    JoinPlanner,
    Scheme,
    VariantConfig,
    external_pair_joiner,
    run_all_variants,
    run_join,
)
from repro.core.joins import JoinVariantError
from repro.data import JoinWorkload
from repro.hardware import coupled_machine, discrete_machine
from repro.hashjoin import ExternalHashJoin, HashJoinConfig, vectorized_reference_join
from repro.experiments.fig19_external import small_buffer_machine


@pytest.fixture(scope="module")
def workload():
    return JoinWorkload.uniform(5_000, 8_000, seed=31)


class TestRunJoin:
    @pytest.mark.parametrize("algorithm", ["SHJ", "PHJ"])
    @pytest.mark.parametrize("scheme", ["CPU-only", "GPU-only", "DD", "OL", "PL"])
    def test_all_variants_produce_correct_results(self, workload, algorithm, scheme):
        timing = run_join(algorithm, scheme, workload.build, workload.probe)
        reference = vectorized_reference_join(workload.build, workload.probe)
        assert timing.result.equals(reference)
        assert timing.total_s > 0.0
        assert timing.estimated_s > 0.0

    def test_variant_metadata(self, workload):
        timing = run_join("SHJ", "PL", workload.build, workload.probe)
        assert timing.variant == "SHJ-PL"
        assert timing.algorithm == "SHJ"
        assert timing.architecture == "coupled"
        assert set(timing.ratios_by_phase()) == {"build", "probe"}

    def test_phj_has_partition_phase(self, workload):
        timing = run_join("PHJ", "DD", workload.build, workload.probe)
        assert timing.phase_seconds("partition") > 0.0
        breakdown = timing.breakdown()
        assert breakdown["total_s"] == pytest.approx(timing.total_s)

    def test_coupled_has_no_transfer(self, workload):
        timing = run_join("SHJ", "DD", workload.build, workload.probe,
                          machine=coupled_machine())
        assert timing.transfer_s == 0.0
        assert timing.merge_s == 0.0  # shared hash table by default

    def test_discrete_charges_transfer_and_merge(self, workload):
        timing = run_join("SHJ", "DD", workload.build, workload.probe,
                          machine=discrete_machine())
        assert timing.architecture == "discrete"
        assert timing.transfer_s > 0.0
        assert timing.merge_s > 0.0

    def test_discrete_slower_than_coupled_for_dd(self, workload):
        discrete_t = run_join("SHJ", "DD", workload.build, workload.probe,
                              machine=discrete_machine())
        coupled_t = run_join("SHJ", "DD", workload.build, workload.probe,
                             machine=coupled_machine())
        assert discrete_t.total_s > coupled_t.total_s

    def test_separate_tables_charge_merge_on_coupled(self, workload):
        timing = run_join("SHJ", "DD", workload.build, workload.probe,
                          shared_hash_table=False)
        assert timing.merge_s > 0.0

    def test_ol_does_not_charge_merge(self, workload):
        timing = run_join("SHJ", "OL", workload.build, workload.probe,
                          shared_hash_table=False)
        assert timing.merge_s == 0.0

    def test_invalid_algorithm_rejected(self, workload):
        with pytest.raises(JoinVariantError):
            run_join("SMJ", "PL", workload.build, workload.probe)

    def test_serial_pair_flag_is_accepted_and_parallel_rejected(self, workload):
        """``bench/workloads.py`` passes ``parallel=False``; joins run their
        partition pairs serially, so ``parallel=True`` is refused."""
        timing = run_join("PHJ", "PL", workload.build, workload.probe,
                          machine=coupled_machine(), parallel=False)
        assert timing.result.equals(
            vectorized_reference_join(workload.build, workload.probe)
        )
        with pytest.raises(JoinVariantError):
            run_join("PHJ", "PL", workload.build, workload.probe,
                     machine=coupled_machine(), parallel=True)

    def test_run_all_variants_keys(self, workload):
        out = run_all_variants(
            workload.build, workload.probe,
            algorithms=("SHJ",), schemes=(Scheme.CPU_ONLY, Scheme.PIPELINED),
        )
        assert set(out) == {"SHJ-CPU-only", "SHJ-PL"}

    def test_variant_config_name(self):
        config = VariantConfig(algorithm="PHJ", scheme=Scheme.PIPELINED)
        assert config.name == "PHJ-PL"
        assert HashJoinVariant(config).config is config


class TestPaperShapeClaims:
    """Qualitative relationships the paper reports (Section 5.5)."""

    @pytest.fixture(scope="class")
    def timings(self):
        workload = JoinWorkload.uniform(60_000, 60_000, seed=5)
        return {
            (alg, scheme): run_join(alg, scheme, workload.build, workload.probe)
            for alg in ("SHJ", "PHJ")
            for scheme in ("CPU-only", "GPU-only", "DD", "PL")
        }

    @pytest.mark.parametrize("algorithm", ["SHJ", "PHJ"])
    def test_pl_fastest(self, timings, algorithm):
        pl = timings[(algorithm, "PL")].total_s
        assert pl <= timings[(algorithm, "CPU-only")].total_s
        assert pl <= timings[(algorithm, "GPU-only")].total_s
        assert pl <= timings[(algorithm, "DD")].total_s * 1.001

    @pytest.mark.parametrize("algorithm", ["SHJ", "PHJ"])
    def test_co_processing_beats_single_device(self, timings, algorithm):
        dd = timings[(algorithm, "DD")].total_s
        assert dd < timings[(algorithm, "CPU-only")].total_s
        assert dd < timings[(algorithm, "GPU-only")].total_s

    @pytest.mark.parametrize("algorithm", ["SHJ", "PHJ"])
    def test_gpu_only_beats_cpu_only(self, timings, algorithm):
        assert (timings[(algorithm, "GPU-only")].total_s
                < timings[(algorithm, "CPU-only")].total_s)

    def test_estimate_tracks_measurement(self, timings):
        for timing in timings.values():
            gap = abs(timing.total_s - timing.estimated_s) / timing.total_s
            assert gap < 0.5


class TestExternalJoin:
    def test_in_buffer_fast_path(self, workload):
        machine = coupled_machine()
        joiner = external_pair_joiner("SHJ", "PL", machine=machine)
        external = ExternalHashJoin(joiner, machine=machine, chunk_tuples=10_000)
        run = external.run(workload.build, workload.probe)
        assert run.fits_in_buffer
        assert run.breakdown.data_copy_s == 0.0
        assert run.result.match_count == workload.expected_matches()

    def test_out_of_buffer_partitioned_path(self):
        workload = JoinWorkload.uniform(30_000, 30_000, seed=17)
        machine = small_buffer_machine(buffer_bytes=64 * 1024)
        joiner = external_pair_joiner("SHJ", "PL", machine=machine)
        external = ExternalHashJoin(joiner, machine=machine, chunk_tuples=10_000)
        run = external.run(workload.build, workload.probe)
        assert not run.fits_in_buffer
        assert run.n_super_partitions > 1
        assert run.breakdown.data_copy_s > 0.0
        assert run.breakdown.partition_s > 0.0
        assert run.result.match_count == workload.expected_matches()


class TestPlanner:
    def test_planner_returns_executable_plan(self, workload):
        planner = JoinPlanner(machine=coupled_machine(), pilot_fraction=0.2,
                              min_pilot_tuples=1_000)
        plan = planner.plan(
            workload.build, workload.probe,
            algorithms=("SHJ",), schemes=(Scheme.CPU_ONLY, Scheme.PIPELINED),
            tune_allocator=False, tune_sharing=False,
        )
        assert plan.chosen.config.scheme in (Scheme.CPU_ONLY, Scheme.PIPELINED)
        assert plan.chosen.measured_s <= max(c.measured_s for c in plan.candidates)
        assert len(plan.ranking()) == 2

    def test_planner_picks_co_processing_over_cpu_only(self, workload):
        planner = JoinPlanner(machine=coupled_machine(), pilot_fraction=0.2,
                              min_pilot_tuples=2_000)
        plan = planner.plan(
            workload.build, workload.probe,
            algorithms=("SHJ",), schemes=(Scheme.CPU_ONLY, Scheme.PIPELINED),
            tune_allocator=False, tune_sharing=False,
        )
        assert plan.chosen.config.scheme is Scheme.PIPELINED

    def test_allocator_tuning_prefers_larger_blocks(self, workload):
        planner = JoinPlanner(machine=coupled_machine(), pilot_fraction=0.2,
                              min_pilot_tuples=2_000)
        base = VariantConfig(algorithm="SHJ", scheme=Scheme.PIPELINED,
                             join_config=HashJoinConfig())
        block = planner.tune_allocator_block(
            workload.build.slice(0, 2_000), workload.probe.slice(0, 2_000), base,
            candidates=(8, 2048),
        )
        assert block == 2048

    def test_plan_and_run_executes_full_workload(self, workload):
        planner = JoinPlanner(machine=coupled_machine(), pilot_fraction=0.1,
                              min_pilot_tuples=1_000)
        timing = planner.plan_and_run(
            workload.build, workload.probe,
            algorithms=("SHJ",), schemes=(Scheme.PIPELINED,),
            tune_allocator=False, tune_sharing=False,
        )
        assert timing.result.match_count == workload.expected_matches()
