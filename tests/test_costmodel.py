"""Tests for the abstract cost model, calibration, optimiser and Monte Carlo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel import (
    CalibrationTable,
    CostModelError,
    StepCost,
    dd_sweep,
    estimate_phases,
    estimate_series,
    intermediate_result_bytes,
    optimize_dd,
    optimize_ol,
    optimize_pl,
    optimize_scheme,
    pipeline_delays,
    ratio_grid,
    run_monte_carlo,
    sample_ratio_vectors,
    total_elapsed,
)
from repro.hardware import coupled_machine
from repro.hashjoin import HashJoinConfig, SimpleHashJoin


def make_steps() -> list[StepCost]:
    """A build-phase-like series: one GPU-friendly step, three mixed steps."""
    return [
        StepCost("b1", 10_000, cpu_unit_s=15e-9, gpu_unit_s=1e-9),
        StepCost("b2", 10_000, cpu_unit_s=5e-9, gpu_unit_s=5e-9),
        StepCost("b3", 10_000, cpu_unit_s=10e-9, gpu_unit_s=9e-9),
        StepCost("b4", 10_000, cpu_unit_s=6e-9, gpu_unit_s=5e-9),
    ]


class TestStepCost:
    def test_device_time_splits_by_ratio(self):
        step = StepCost("s", 1_000, cpu_unit_s=2e-9, gpu_unit_s=1e-9)
        assert step.device_time("cpu", 0.25) == pytest.approx(0.25 * 1_000 * 2e-9)
        assert step.device_time("gpu", 0.25) == pytest.approx(0.75 * 1_000 * 1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(CostModelError):
            StepCost("s", -1, 1e-9, 1e-9)
        step = StepCost("s", 10, 1e-9, 1e-9)
        with pytest.raises(CostModelError):
            step.device_time("cpu", 1.5)
        with pytest.raises(CostModelError):
            step.device_time("npu", 0.5)


class TestEstimateSeries:
    def test_cpu_only_and_gpu_only(self):
        steps = make_steps()
        cpu_only = estimate_series(steps, [1.0] * 4)
        gpu_only = estimate_series(steps, [0.0] * 4)
        assert cpu_only.gpu_total_s == 0.0
        assert gpu_only.cpu_total_s == 0.0
        assert cpu_only.total_s == pytest.approx(sum(s.cpu_unit_s * s.n_tuples for s in steps))

    def test_total_is_max_of_devices(self):
        steps = make_steps()
        estimate = estimate_series(steps, [0.5] * 4)
        assert estimate.total_s == pytest.approx(
            max(estimate.cpu_total_s, estimate.gpu_total_s)
        )

    def test_equal_ratios_have_no_delays(self):
        steps = make_steps()
        estimate = estimate_series(steps, [0.3] * 4)
        assert sum(estimate.cpu_delay_s) == 0.0
        assert sum(estimate.gpu_delay_s) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CostModelError):
            estimate_series(make_steps(), [0.5, 0.5])

    def test_out_of_range_ratio_rejected(self):
        with pytest.raises(CostModelError):
            estimate_series(make_steps(), [0.5, 0.5, 0.5, 1.5])

    def test_phases_and_total(self):
        steps = make_steps()
        estimates = estimate_phases(
            {"build": steps, "probe": steps}, {"build": [0.5] * 4, "probe": [0.0] * 4}
        )
        assert set(estimates) == {"build", "probe"}
        assert total_elapsed(estimates) == pytest.approx(
            estimates["build"].total_s + estimates["probe"].total_s
        )
        with pytest.raises(CostModelError):
            estimate_phases({"build": steps}, {})


class TestPipelineDelays:
    def test_increasing_cpu_ratio_may_stall_cpu(self):
        # Step 2 assigns much more work to the CPU than step 1 did, so the CPU
        # may wait for GPU output of step 1.
        cpu = [0.0, 10.0]
        gpu = [50.0, 1.0]
        cpu_delay, gpu_delay = pipeline_delays(cpu, gpu, [0.0, 0.9])
        assert cpu_delay[1] > 0.0
        assert gpu_delay[1] == 0.0

    def test_decreasing_cpu_ratio_may_stall_gpu(self):
        cpu = [50.0, 1.0]
        gpu = [0.0, 10.0]
        cpu_delay, gpu_delay = pipeline_delays(cpu, gpu, [0.9, 0.0])
        assert gpu_delay[1] > 0.0
        assert cpu_delay[1] == 0.0

    def test_delays_never_negative(self):
        cpu_delay, gpu_delay = pipeline_delays([1.0, 1.0], [1.0, 1.0], [0.2, 0.8])
        assert all(d >= 0.0 for d in cpu_delay + gpu_delay)

    def test_length_validation(self):
        with pytest.raises(CostModelError):
            pipeline_delays([1.0], [1.0, 2.0], [0.5, 0.5])


class TestIntermediateResults:
    def test_no_change_no_bytes(self):
        assert intermediate_result_bytes(make_steps(), [0.5] * 4) == 0.0

    def test_changes_accumulate(self):
        steps = make_steps()
        volume = intermediate_result_bytes(steps, [0.0, 0.5, 0.5, 1.0])
        expected = 0.5 * 10_000 * 8.0 + 0.5 * 10_000 * 8.0
        assert volume == pytest.approx(expected)


class TestOptimizers:
    def test_ratio_grid_includes_bounds(self):
        grid = ratio_grid(0.02)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 51

    def test_ratio_grid_rejects_bad_delta(self):
        with pytest.raises(Exception):
            ratio_grid(0.0)

    def test_dd_beats_single_device(self):
        steps = make_steps()
        dd = optimize_dd(steps, delta=0.02)
        cpu_only = estimate_series(steps, [1.0] * 4).total_s
        gpu_only = estimate_series(steps, [0.0] * 4).total_s
        assert dd.total_s <= min(cpu_only, gpu_only) + 1e-15
        assert len(set(dd.ratios)) == 1

    def test_ol_assigns_each_step_to_faster_device(self):
        steps = make_steps()
        ol = optimize_ol(steps)
        assert all(r in (0.0, 1.0) for r in ol.ratios)
        # b1 is overwhelmingly GPU friendly.
        assert ol.ratios[0] == 0.0

    def test_pl_at_least_as_good_as_dd_and_ol(self):
        steps = make_steps()
        pl = optimize_pl(steps, delta=0.02)
        dd = optimize_dd(steps, delta=0.02)
        ol = optimize_ol(steps)
        assert pl.total_s <= dd.total_s + 1e-15
        assert pl.total_s <= ol.total_s + 1e-15

    def test_pl_offloads_hash_step_to_gpu(self):
        pl = optimize_pl(make_steps(), delta=0.02)
        assert pl.ratios[0] <= 0.1

    def test_dd_sweep_covers_grid(self):
        sweep = dd_sweep(make_steps(), delta=0.25)
        assert [r for r, _ in sweep] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(t > 0 for _, t in sweep)

    def test_optimize_scheme_dispatch(self):
        steps = make_steps()
        assert optimize_scheme("CPU", steps).ratios == [1.0] * 4
        assert optimize_scheme("GPU", steps).ratios == [0.0] * 4
        assert optimize_scheme("dd", steps).scheme == "DD"
        assert optimize_scheme("PL", steps).scheme == "PL"
        with pytest.raises(Exception):
            optimize_scheme("magic", steps)

    def test_empty_series_rejected(self):
        with pytest.raises(Exception):
            optimize_pl([])


class TestCalibration:
    def test_calibration_from_executed_shj(self, small_workload):
        machine = coupled_machine()
        run = SimpleHashJoin(HashJoinConfig()).run(small_workload.build, small_workload.probe)
        table = CalibrationTable.from_series([run.build.series, run.probe.series], machine)
        assert len(table) == 8
        names = [s.name for s in table.steps]
        assert names == ["b1", "b2", "b3", "b4", "p1", "p2", "p3", "p4"]

    def test_hash_steps_prefer_gpu(self, small_workload):
        machine = coupled_machine()
        run = SimpleHashJoin(HashJoinConfig()).run(small_workload.build, small_workload.probe)
        table = CalibrationTable.from_series([run.build.series, run.probe.series], machine)
        preference = table.device_preference()
        assert preference["b1"] == "gpu"
        assert preference["p1"] == "gpu"
        assert table.by_name("b1").gpu_speedup > 5.0

    def test_unit_cost_rows_have_both_devices(self, small_workload):
        machine = coupled_machine()
        run = SimpleHashJoin(HashJoinConfig()).run(small_workload.build, small_workload.probe)
        table = CalibrationTable.from_series([run.build.series], machine)
        for row in table.unit_cost_rows():
            assert row["cpu_ns_per_tuple"] > 0
            assert row["gpu_ns_per_tuple"] > 0

    def test_by_name_missing(self, small_workload):
        machine = coupled_machine()
        run = SimpleHashJoin(HashJoinConfig()).run(small_workload.build, small_workload.probe)
        table = CalibrationTable.from_series([run.build.series], machine)
        with pytest.raises(KeyError):
            table.by_name("z9")

    def test_step_costs_filter_by_phase(self, small_workload):
        machine = coupled_machine()
        run = SimpleHashJoin(HashJoinConfig()).run(small_workload.build, small_workload.probe)
        table = CalibrationTable.from_series([run.build.series, run.probe.series], machine)
        assert len(table.step_costs("build")) == 4
        assert len(table.step_costs()) == 8


class TestMonteCarlo:
    def test_sample_vectors_shape_and_range(self):
        vectors = sample_ratio_vectors(4, 50, seed=1)
        assert len(vectors) == 50
        assert all(len(v) == 4 for v in vectors)
        assert all(0.0 <= r <= 1.0 for v in vectors for r in v)

    def test_sampling_deterministic(self):
        assert sample_ratio_vectors(3, 5, seed=9) == sample_ratio_vectors(3, 5, seed=9)

    def test_study_summary(self):
        steps = make_steps()

        def measure(matrix):
            return [estimate_series(steps, row.tolist()).total_s * 1.05 for row in matrix]

        chosen = optimize_pl(steps, delta=0.1).ratios
        study = run_monte_carlo(steps, measure, chosen, n_samples=60, seed=3)
        assert len(study.samples) == 60
        assert study.best_measured_s <= study.worst_measured_s
        assert study.chosen_measured_s <= study.worst_measured_s
        assert 0.0 <= study.chosen_percentile() <= 1.0
        assert study.error_quantile(0.9) == pytest.approx(0.05 / 1.05, rel=1e-6)
        cdf = study.cdf(n_points=10)
        assert cdf[0][1] <= cdf[-1][1]
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_measure_is_called_once_with_the_chosen_vector_last(self):
        steps = make_steps()
        chosen = [0.1, 0.3, 0.5, 0.7]
        calls = []

        def measure(matrix):
            calls.append(matrix.copy())
            return np.arange(matrix.shape[0], dtype=np.float64) + 1.0

        study = run_monte_carlo(steps, measure, chosen, n_samples=25, seed=5)
        assert len(calls) == 1
        (matrix,) = calls
        assert matrix.shape == (26, 4)
        assert matrix[:-1].tolist() == sample_ratio_vectors(4, 25, seed=5)
        assert matrix[-1].tolist() == chosen
        assert [s.measured_s for s in study.samples] == list(range(1, 26))
        assert study.chosen_measured_s == 26.0

    def test_measure_must_return_one_time_per_row(self):
        with pytest.raises(ValueError, match="shape"):
            run_monte_carlo(make_steps(), lambda matrix: [1.0], [0.5] * 4, n_samples=5)

    @pytest.mark.parametrize("delta", [2.0, 0.0, -0.1, float("nan")])
    def test_sampling_rejects_a_delta_outside_the_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            sample_ratio_vectors(2, 3, delta=delta)
