"""Figure 9: Monte Carlo validation of the cost-model-chosen ratios.

One thousand PL executions with randomly generated ratio settings form a CDF
of elapsed times; the ratios chosen by the cost model land very close to the
best simulated run, and the per-run prediction error stays below ~15% for
most runs.  The experiment is run for the build phase of SHJ-PL and the probe
phase of PHJ-PL, as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..core.executor import CoProcessingExecutor
from ..costmodel.batch import EstimateCache
from ..costmodel.calibration import CalibrationTable
from ..costmodel.montecarlo import MonteCarloStudy, run_monte_carlo
from ..costmodel.optimizer import optimize_pl
from ..data.workload import JoinWorkload
from ..hardware.machine import Machine, coupled_machine
from ..hashjoin.partition import PartitionedHashJoin
from ..hashjoin.simple import HashJoinConfig, SimpleHashJoin
from .common import ExperimentResult

#: Smaller default than the other experiments: each Monte Carlo sample is a
#: full measured execution of the phase.
DEFAULT_MC_TUPLES = 50_000


def _study_for_series(series, machine: Machine, n_samples: int, seed: int) -> MonteCarloStudy:
    steps = CalibrationTable.from_series([series], machine).step_costs()
    executor = CoProcessingExecutor(machine)

    def measure(matrix: np.ndarray) -> np.ndarray:
        return executor.execute_grid(series, matrix).elapsed_s

    # One cache serves both the PL optimisation and the Monte Carlo batch, so
    # ratio vectors the optimiser already evaluated are not re-estimated.
    cache = EstimateCache()
    chosen = optimize_pl(steps, cache=cache)
    return run_monte_carlo(
        steps, measure, chosen.ratios, n_samples=n_samples, seed=seed, cache=cache
    )


def run_fig09(
    build_tuples: int = DEFAULT_MC_TUPLES,
    probe_tuples: int | None = None,
    n_samples: int = 200,
    machine: Machine | None = None,
    seed: int = 42,
) -> ExperimentResult:
    """Monte Carlo CDFs for SHJ-PL (build) and PHJ-PL (probe)."""
    probe_tuples = probe_tuples if probe_tuples is not None else build_tuples
    machine = machine or coupled_machine()
    workload = JoinWorkload.uniform(build_tuples, probe_tuples, seed=seed)

    shj = SimpleHashJoin(HashJoinConfig()).run(workload.build, workload.probe)
    phj = PartitionedHashJoin(config=HashJoinConfig()).run(workload.build, workload.probe)

    result = ExperimentResult(
        experiment="Figure 9",
        description="CDF of Monte Carlo ratio settings vs the cost model's pick",
        parameters={"build_tuples": build_tuples, "n_samples": n_samples},
    )

    cases = [
        ("SHJ-PL build", shj.build.series),
        ("PHJ-PL probe", phj.probe_series),
    ]
    for label, series in cases:
        study = _study_for_series(series, machine, n_samples, seed)
        for elapsed, fraction in study.cdf(n_points=20):
            result.add_row(case=label, kind="cdf", elapsed_s=elapsed, fraction=fraction)
        result.add_row(
            case=label,
            kind="summary",
            elapsed_s=study.chosen_measured_s,
            fraction=study.chosen_percentile(),
            best_random_s=study.best_measured_s,
            worst_random_s=study.worst_measured_s,
            error_p90_pct=study.error_quantile(0.9) * 100.0,
        )
        result.add_note(
            f"{label}: cost-model pick is within "
            f"{100.0 * (study.chosen_measured_s / study.best_measured_s - 1.0):.1f}% of the best "
            f"of {n_samples} random settings and beats {study.chosen_percentile():.0%} of them."
        )
    result.add_note(
        "Paper: the chosen ratios are very close to the best Monte Carlo run; the "
        "prediction error is below 15% in most cases."
    )
    return result
