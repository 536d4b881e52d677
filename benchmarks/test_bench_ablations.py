"""Ablation benchmarks for the model's design choices, whose calibration
constants live in ``src/repro/hardware/specs.py``.

These are not paper figures; they isolate individual ingredients of the
reproduction's model and of the paper's design space to show that each one
carries weight:

* the pipelined-delay accounting of Eqs. 4/5 (PL without it under-reports),
* the shared last-level cache of the coupled architecture,
* the wavefront-divergence penalty on skewed data,
* fine-grained per-step ratios vs one ratio per phase (PL vs DD), isolated
  from every other effect by running both on identical executed steps.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import CoProcessingExecutor, Scheme, plan_ratios, run_join
from repro.costmodel import CalibrationTable
from repro.data import JoinWorkload
from repro.hardware import COUPLED_A8_3870K, Machine, coupled_machine
from repro.hashjoin import HashJoinConfig, SimpleHashJoin


def _shj_series(n_tuples: int, skew: str = "uniform"):
    workload = (
        JoinWorkload.uniform(n_tuples, n_tuples, seed=5)
        if skew == "uniform"
        else JoinWorkload.skewed(skew, n_tuples, n_tuples, seed=5)
    )
    run = SimpleHashJoin(HashJoinConfig()).run(workload.build, workload.probe)
    return run


def test_bench_ablation_pipeline_delays(benchmark, bench_tuples):
    """Dropping the Eq. 4/5 delay accounting must never increase the time."""

    def run():
        shj = _shj_series(bench_tuples)
        machine = coupled_machine()
        executor = CoProcessingExecutor(machine)
        results = {}
        for series in (shj.build.series, shj.probe.series):
            steps = CalibrationTable.from_series([series], machine).step_costs()
            plan = plan_ratios(Scheme.PIPELINED, series.phase, steps)
            with_delays = executor.execute_series(series, plan.ratios, pipelined=True)
            without_delays = executor.execute_series(series, plan.ratios, pipelined=False)
            results[series.phase] = (with_delays.elapsed_s, without_delays.elapsed_s)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    for phase, (with_delays, without_delays) in results.items():
        print(f"{phase}: with delays {with_delays:.6f} s, without {without_delays:.6f} s")
        assert with_delays >= without_delays - 1e-12


def test_bench_ablation_shared_cache(benchmark, bench_tuples):
    """Disabling cross-device cache sharing slows the co-processed join."""

    def run():
        workload = JoinWorkload.uniform(bench_tuples, bench_tuples, seed=5)
        shared = run_join("SHJ", "DD", workload.build, workload.probe,
                          machine=coupled_machine())
        no_sharing_spec = replace(COUPLED_A8_3870K, shared_cache=False,
                                  name="coupled without cache sharing")
        unshared = run_join("SHJ", "DD", workload.build, workload.probe,
                            machine=Machine(no_sharing_spec))
        return shared.total_s, unshared.total_s

    shared_s, unshared_s = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print(f"shared cache {shared_s:.6f} s vs unshared {unshared_s:.6f} s")
    assert shared_s <= unshared_s


def test_bench_ablation_divergence_penalty(benchmark, bench_tuples):
    """Zeroing the GPU divergence penalty removes part of the skewed GPU cost."""

    def run():
        shj = _shj_series(bench_tuples, skew="high-skew")
        default_machine = coupled_machine()
        no_divergence_spec = replace(
            COUPLED_A8_3870K,
            gpu=COUPLED_A8_3870K.gpu.scaled(divergence_penalty=0.0),
            name="coupled without divergence penalty",
        )
        no_divergence = Machine(no_divergence_spec)
        probe = shj.probe.series
        ratios = [0.0] * probe.n_steps  # GPU-only probe: divergence matters most
        with_penalty = CoProcessingExecutor(default_machine).execute_series(probe, ratios)
        without_penalty = CoProcessingExecutor(no_divergence).execute_series(probe, ratios)
        return with_penalty.elapsed_s, without_penalty.elapsed_s

    with_penalty, without_penalty = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    print(f"with divergence penalty {with_penalty:.6f} s, without {without_penalty:.6f} s")
    assert with_penalty > without_penalty


def test_bench_ablation_per_step_ratios(benchmark, bench_tuples):
    """PL's per-step ratios beat the best single DD ratio on the same steps."""

    def run():
        shj = _shj_series(bench_tuples)
        machine = coupled_machine()
        executor = CoProcessingExecutor(machine)
        totals = {"PL": 0.0, "DD": 0.0}
        for series in (shj.build.series, shj.probe.series):
            steps = CalibrationTable.from_series([series], machine).step_costs()
            for scheme in (Scheme.PIPELINED, Scheme.DATA_DIVIDING):
                plan = plan_ratios(scheme, series.phase, steps)
                timing = executor.execute_series(
                    series, plan.ratios, pipelined=scheme.uses_pipelined_delays
                )
                totals["PL" if scheme is Scheme.PIPELINED else "DD"] += timing.elapsed_s
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print(f"PL {totals['PL']:.6f} s vs DD {totals['DD']:.6f} s on identical executed steps")
    assert totals["PL"] <= totals["DD"] * 1.001
