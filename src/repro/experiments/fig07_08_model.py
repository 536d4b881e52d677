"""Figures 7 and 8: estimated vs. measured time under ratio sweeps.

Figure 7 sweeps the single workload ratio of SHJ-DD separately for the build
and the probe phase and compares the cost model's estimate with the measured
time.  Figure 8 does the same for a constrained PL setting: steps b1 and p1
are off-loaded entirely to the GPU and one common ratio ``r`` is applied to
all the remaining steps.
"""

from __future__ import annotations

import numpy as np

from ..costmodel.calibration import CalibrationTable
from ..core.executor import CoProcessingExecutor
from ..costmodel.batch import estimate_series_batch
from ..data.workload import JoinWorkload
from ..hardware.machine import Machine, coupled_machine
from ..hashjoin.simple import HashJoinConfig, SimpleHashJoin
from .common import DEFAULT_TUPLES, ExperimentResult


def _shj_series(build_tuples: int, probe_tuples: int, seed: int):
    workload = JoinWorkload.uniform(build_tuples, probe_tuples, seed=seed)
    run = SimpleHashJoin(HashJoinConfig()).run(workload.build, workload.probe)
    return run.build.series, run.probe.series


def run_fig07(
    build_tuples: int = DEFAULT_TUPLES,
    probe_tuples: int | None = None,
    machine: Machine | None = None,
    ratio_step: float = 0.1,
    seed: int = 42,
) -> ExperimentResult:
    """SHJ-DD: estimated vs measured time with the workload ratio varied."""
    probe_tuples = probe_tuples if probe_tuples is not None else build_tuples
    machine = machine or coupled_machine()
    build_series, probe_series = _shj_series(build_tuples, probe_tuples, seed)
    executor = CoProcessingExecutor(machine)

    result = ExperimentResult(
        experiment="Figure 7",
        description="Estimated and measured time for SHJ-DD with workload ratios varied",
        parameters={"build_tuples": build_tuples, "ratio_step": ratio_step},
    )

    ratios = np.round(np.arange(0.0, 1.0 + 1e-9, ratio_step), 6)
    for phase_name, series in (("build", build_series), ("probe", probe_series)):
        steps = CalibrationTable.from_series([series], machine).step_costs()
        # The whole DD sweep is one batched model evaluation and one grid
        # measurement (one row per ratio).
        matrix = np.repeat(ratios[:, np.newaxis], series.n_steps, axis=1)
        estimates = estimate_series_batch(steps, matrix).total_s
        measurements = executor.execute_grid(series, matrix, pipelined=False).elapsed_s
        best_ratio, best_measured = None, float("inf")
        for ratio, estimated, measured in zip(
            ratios, estimates.tolist(), measurements.tolist()
        ):
            if measured < best_measured:
                best_measured, best_ratio = measured, float(ratio)
            result.add_row(
                phase=phase_name,
                cpu_ratio_pct=float(ratio) * 100.0,
                estimated_s=estimated,
                measured_s=measured,
                relative_error_pct=100.0 * abs(estimated - measured) / measured if measured else 0.0,
            )
        result.add_note(f"{phase_name}: measured optimum at CPU ratio {best_ratio:.0%}.")

    result.add_note(
        "Paper: the estimate tracks the measurement closely but sits slightly below "
        "it because the model excludes lock contention."
    )
    return result


def run_fig08(
    build_tuples: int = DEFAULT_TUPLES,
    probe_tuples: int | None = None,
    machine: Machine | None = None,
    ratio_step: float = 0.1,
    seed: int = 42,
) -> ExperimentResult:
    """Special PL case: b1/p1 fully on the GPU, one ratio r for the other steps."""
    probe_tuples = probe_tuples if probe_tuples is not None else build_tuples
    machine = machine or coupled_machine()
    build_series, probe_series = _shj_series(build_tuples, probe_tuples, seed)
    executor = CoProcessingExecutor(machine)

    result = ExperimentResult(
        experiment="Figure 8",
        description=(
            "Estimated and measured time for the PL special case: b1/p1 off-loaded "
            "to the GPU, data-dividing ratio r on all other steps"
        ),
        parameters={"build_tuples": build_tuples, "ratio_step": ratio_step},
    )

    ratios = np.round(np.arange(0.0, 1.0 + 1e-9, ratio_step), 6)
    for phase_name, series in (("build", build_series), ("probe", probe_series)):
        steps = CalibrationTable.from_series([series], machine).step_costs()
        # Constrained-PL sweep: first step pinned to the GPU, one ratio for the
        # rest — again a single batched evaluation and grid measurement.
        matrix = np.repeat(ratios[:, np.newaxis], series.n_steps, axis=1)
        matrix[:, 0] = 0.0
        estimates = estimate_series_batch(steps, matrix).total_s
        measurements = executor.execute_grid(series, matrix, pipelined=True).elapsed_s
        for ratio, estimated, measured in zip(
            ratios, estimates.tolist(), measurements.tolist()
        ):
            result.add_row(
                phase=phase_name,
                cpu_ratio_pct=float(ratio) * 100.0,
                estimated_s=estimated,
                measured_s=measured,
                relative_error_pct=100.0 * abs(estimated - measured) / measured if measured else 0.0,
            )

    result.add_note(
        "Paper: the prediction is close across r and identifies the suitable ratio."
    )
    return result
