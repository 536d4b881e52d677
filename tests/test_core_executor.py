"""Tests for the co-processing executor, schemes and the BasicUnit scheduler."""

from __future__ import annotations

import pytest

from repro.core import BasicUnitScheduler, CoProcessingExecutor, Scheme, plan_ratios
from repro.core.executor import ExecutionError
from repro.costmodel import CalibrationTable, sample_ratio_vectors
from repro.hardware import coupled_machine, discrete_machine
from repro.hashjoin import HashJoinConfig, SimpleHashJoin


@pytest.fixture(scope="module")
def shj_series(small_workload_module):
    run = SimpleHashJoin(HashJoinConfig()).run(
        small_workload_module.build, small_workload_module.probe
    )
    return run.build.series, run.probe.series


@pytest.fixture(scope="module")
def small_workload_module():
    from repro.data import JoinWorkload

    return JoinWorkload.uniform(4_000, 6_000, seed=21)


class TestExecutor:
    def test_ratio_validation(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        with pytest.raises(ExecutionError):
            executor.execute_series(build, [0.5])
        with pytest.raises(ExecutionError):
            executor.execute_series(build, [0.5, 0.5, 0.5, 1.5])

    def test_cpu_only_has_no_gpu_time(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [1.0] * build.n_steps, pipelined=False)
        assert timing.gpu_total_s == 0.0
        assert timing.cpu_total_s > 0.0
        assert timing.elapsed_s == pytest.approx(timing.cpu_total_s)

    def test_gpu_only_has_no_cpu_time(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [0.0] * build.n_steps, pipelined=False)
        assert timing.cpu_total_s == 0.0

    def test_split_ratio_balances_devices(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [0.5] * 4, pipelined=False)
        assert timing.cpu_total_s > 0.0 and timing.gpu_total_s > 0.0
        assert timing.elapsed_s == pytest.approx(max(timing.cpu_total_s, timing.gpu_total_s))

    def test_tuple_counts_split_by_ratio(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [0.25] * 4, pipelined=False)
        for step in timing.steps:
            assert step.cpu_tuples + step.gpu_tuples == build.n_tuples
            assert step.cpu_tuples == pytest.approx(0.25 * build.n_tuples, abs=1)

    def test_coupled_has_no_transfer(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [0.3, 0.6, 0.2, 0.8])
        assert timing.transfer_s == 0.0

    def test_discrete_charges_transfer(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(discrete_machine())
        timing = executor.execute_series(build, [0.3, 0.6, 0.2, 0.8])
        assert timing.transfer_s > 0.0

    def test_pipelined_delays_nonnegative(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [0.0, 0.9, 0.1, 0.8], pipelined=True)
        assert all(d >= 0.0 for d in timing.cpu_delay_s + timing.gpu_delay_s)
        # Delays can be zero when the producing device is fast enough; the
        # elapsed time must still dominate the per-device sums.
        assert timing.elapsed_s >= max(timing.cpu_total_s, timing.gpu_total_s) - 1e-12

    def test_equal_ratios_no_delays(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [0.4] * 4, pipelined=True)
        assert sum(timing.cpu_delay_s) == 0.0
        assert sum(timing.gpu_delay_s) == 0.0

    def test_intermediate_transfer_direction_follows_ratio_change(self, shj_series):
        """Regression: a growing CPU share moves intermediates device->host,
        a shrinking share host->device (previously everything was h2d)."""
        from repro.hardware.pcie import PCIeBus

        build, _ = shj_series
        machine = discrete_machine()
        executor = CoProcessingExecutor(machine)
        ratios = [0.2, 0.8, 0.1, 0.1]  # one increase, one decrease, one plateau
        executor.execute_series(build, ratios)
        intermediates = [
            t for t in machine.bus.transfers if t.label.endswith(":intermediate")
        ]
        assert len(intermediates) == 2
        by_step = {t.label.split(":")[1]: t.direction for t in intermediates}
        assert by_step["b2"] == PCIeBus.DEVICE_TO_HOST  # 0.2 -> 0.8: CPU grew
        assert by_step["b3"] == PCIeBus.HOST_TO_DEVICE  # 0.8 -> 0.1: CPU shrank

    def test_intermediate_transfer_directions_accounted_separately(self, shj_series):
        build, _ = shj_series
        machine = discrete_machine()
        executor = CoProcessingExecutor(machine)
        executor.execute_series(build, [0.0, 1.0, 0.0, 1.0])
        directions = {"h2d": 0.0, "d2h": 0.0}
        for t in machine.bus.transfers:
            if t.label.endswith(":intermediate"):
                directions[t.direction] += t.seconds
        assert directions["d2h"] > 0.0  # the two CPU-share increases
        assert directions["h2d"] > 0.0  # the CPU-share decrease

    def test_memo_hits_repeat_cache_and_bus_side_effects(self, small_workload_module):
        """An all-hit replay from the per-range WorkStats memo still charges
        the cache counters (Table 3) and records the PCI-e transfers,
        exactly as much as the pass that filled the memo."""
        # A fresh series, so the first pass is the one that fills the memos.
        build = SimpleHashJoin(HashJoinConfig()).run(
            small_workload_module.build, small_workload_module.probe
        ).build.series
        machine = discrete_machine()
        executor = CoProcessingExecutor(machine)
        vectors = sample_ratio_vectors(build.n_steps, 20, seed=3)

        def replay():
            accesses, misses = machine.cache.stats.accesses, machine.cache.stats.misses
            n_transfers = len(machine.bus.transfers)
            timings = [executor.execute_series(build, ratios) for ratios in vectors]
            return (
                timings,
                machine.cache.stats.accesses - accesses,
                machine.cache.stats.misses - misses,
                machine.bus.transfers[n_transfers:],
            )

        first = replay()
        memo_sizes = [len(execution.work._stats_memo) for execution in build]
        second = replay()
        assert [len(execution.work._stats_memo) for execution in build] == memo_sizes
        assert second == first
        _, accesses, misses, transfers = first
        assert accesses > 0 and misses > 0 and transfers

    def test_merge_cost_positive(self):
        executor = CoProcessingExecutor(coupled_machine())
        assert executor.merge_cost(1_000, 10_000, 200_000) > 0.0

    def test_breakdown_dict(self, shj_series):
        build, _ = shj_series
        executor = CoProcessingExecutor(coupled_machine())
        timing = executor.execute_series(build, [0.5] * 4)
        breakdown = timing.breakdown()
        assert breakdown["phase"] == "build"
        assert breakdown["elapsed_s"] == pytest.approx(timing.elapsed_s)


class TestSchemes:
    def test_parse_aliases(self):
        assert Scheme.parse("cpu") is Scheme.CPU_ONLY
        assert Scheme.parse("GPU-only") is Scheme.GPU_ONLY
        assert Scheme.parse("dd") is Scheme.DATA_DIVIDING
        assert Scheme.parse("Pipelined") is Scheme.PIPELINED
        assert Scheme.parse(Scheme.OFFLOADING) is Scheme.OFFLOADING
        with pytest.raises(ValueError):
            Scheme.parse("quantum")

    def test_single_device_flags(self):
        assert Scheme.CPU_ONLY.is_single_device
        assert not Scheme.PIPELINED.is_single_device
        assert Scheme.PIPELINED.uses_pipelined_delays
        assert not Scheme.DATA_DIVIDING.uses_pipelined_delays

    def test_plan_ratios_shapes(self, shj_series):
        build, _ = shj_series
        machine = coupled_machine()
        steps = CalibrationTable.from_series([build], machine).step_costs()
        for scheme in (Scheme.CPU_ONLY, Scheme.GPU_ONLY, Scheme.OFFLOADING,
                       Scheme.DATA_DIVIDING, Scheme.PIPELINED):
            plan = plan_ratios(scheme, "build", steps)
            assert len(plan.ratios) == 4
            assert plan.estimated_s > 0.0
        dd = plan_ratios(Scheme.DATA_DIVIDING, "build", steps)
        assert len(set(dd.ratios)) == 1
        ol = plan_ratios(Scheme.OFFLOADING, "build", steps)
        assert all(r in (0.0, 1.0) for r in ol.ratios)

    def test_plan_ratios_empty_series_rejected(self):
        with pytest.raises(ValueError):
            plan_ratios(Scheme.PIPELINED, "build", [])

    def test_variant_name(self):
        from repro.core import variant_name

        assert variant_name("SHJ", "PL") == "SHJ-PL"
        assert variant_name("PHJ", "cpu") == "CPU-only"


class TestBasicUnit:
    def test_schedule_covers_all_tuples(self, shj_series):
        build, probe = shj_series
        scheduler = BasicUnitScheduler(coupled_machine(), cpu_chunk_tuples=500,
                                       gpu_chunk_tuples=1_000)
        run = scheduler.schedule([build, probe])
        assert len(run.phases) == 2
        for phase in run.phases:
            assert phase.n_chunks >= 1
            assert 0.0 <= phase.cpu_ratio <= 1.0
            assert phase.elapsed_s > 0.0

    def test_both_devices_used_on_large_phase(self, shj_series):
        build, _ = shj_series
        scheduler = BasicUnitScheduler(coupled_machine(), cpu_chunk_tuples=200,
                                       gpu_chunk_tuples=400)
        phase = scheduler.schedule_series(build)
        assert phase.cpu_chunks > 0
        assert phase.gpu_chunks > 0

    def test_scheduling_overhead_grows_with_chunks(self, shj_series):
        build, _ = shj_series
        fine = BasicUnitScheduler(coupled_machine(), cpu_chunk_tuples=100, gpu_chunk_tuples=100)
        coarse = BasicUnitScheduler(coupled_machine(), cpu_chunk_tuples=2_000,
                                    gpu_chunk_tuples=2_000)
        assert (fine.schedule_series(build).scheduling_overhead_s
                > coarse.schedule_series(build).scheduling_overhead_s)

    def test_ratios_by_phase(self, shj_series):
        build, probe = shj_series
        scheduler = BasicUnitScheduler(coupled_machine(), cpu_chunk_tuples=500,
                                       gpu_chunk_tuples=500)
        run = scheduler.schedule([build, probe])
        ratios = run.ratios_by_phase()
        assert set(ratios) == {"build", "probe"}

    def test_invalid_chunk_sizes(self):
        with pytest.raises(Exception):
            BasicUnitScheduler(coupled_machine(), cpu_chunk_tuples=0)
