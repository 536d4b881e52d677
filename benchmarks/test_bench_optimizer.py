"""Benchmarks for the batched cost-model engine (optimizer hot path).

The ratio optimisers issue thousands of cost-model evaluations per join; the
batch engine turns each candidate set into one vectorized NumPy pass.  These
benchmarks pin the speedup of (a) the raw engine versus per-row scalar
evaluation and (b) a full 8-step PL optimisation versus the scalar reference
path (``use_batch=False``), and assert the results stay identical.  The
parity halves run in tier-1; the speedup asserts are ``wallclock`` tests,
deselected by default and run by the CI ``bench-smoke`` job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel import (
    StepCost,
    estimate_series,
    estimate_series_batch,
    optimize_pl,
)

#: Step count of the PL optimisation benchmark (a build+probe SHJ series).
N_STEPS = 8


def _eight_step_series() -> list[StepCost]:
    rng = np.random.default_rng(2013)
    return [
        StepCost(
            f"s{i}",
            int(rng.integers(50_000, 250_000)),
            cpu_unit_s=float(rng.uniform(2e-9, 2e-8)),
            gpu_unit_s=float(rng.uniform(1e-9, 2e-8)),
            intermediate_bytes_per_tuple=8.0,
        )
        for i in range(N_STEPS)
    ]


def _ratio_rows() -> np.ndarray:
    return np.random.default_rng(7).uniform(0.0, 1.0, size=(1000, N_STEPS))


def test_bench_batch_engine_vs_scalar_rows(benchmark):
    """Raw engine: a 1000-row batch equals 1000 scalar evaluations."""
    steps = _eight_step_series()
    matrix = _ratio_rows()

    batch_totals = benchmark(lambda: estimate_series_batch(steps, matrix).total_s)
    scalar_totals = [estimate_series(steps, row.tolist()).total_s for row in matrix]
    np.testing.assert_allclose(batch_totals, scalar_totals, rtol=1e-12, atol=1e-15)


@pytest.mark.wallclock
def test_bench_gate_batch_engine_rows(bench_summary, best_seconds):
    """Raw engine: a 1000-row batch versus 1000 scalar evaluations."""
    steps = _eight_step_series()
    matrix = _ratio_rows()
    scalar_s = best_seconds(
        lambda: [estimate_series(steps, row.tolist()).total_s for row in matrix],
        repeats=2,
    )
    batch_s = best_seconds(lambda: estimate_series_batch(steps, matrix), repeats=5)
    speedup = scalar_s / batch_s
    bench_summary(f"batch engine: {len(matrix)} rows in {batch_s * 1e3:.2f} ms "
                  f"vs {scalar_s * 1e3:.2f} ms scalar ({speedup:.0f}x)")
    assert speedup >= 5.0


def test_bench_pl_optimization_batched_speedup(benchmark):
    """An 8-step PL optimisation decides exactly like the scalar path."""
    steps = _eight_step_series()

    batched = benchmark(lambda: optimize_pl(steps))
    scalar = optimize_pl(steps, use_batch=False)

    # Identical decisions and estimates, not merely close ones.  (Row counts
    # may differ: the vectorized descent evaluates each round's remaining
    # coordinate columns speculatively in one engine call.)
    assert batched.ratios == scalar.ratios
    assert abs(batched.total_s - scalar.total_s) <= 1e-12


@pytest.mark.wallclock
def test_bench_gate_pl_optimization(bench_summary, bench_json, best_seconds):
    """Acceptance: >= 5x on an 8-step PL optimisation versus the scalar path."""
    steps = _eight_step_series()
    batched = optimize_pl(steps)
    batch_s = best_seconds(lambda: optimize_pl(steps), repeats=5)
    scalar_s = best_seconds(lambda: optimize_pl(steps, use_batch=False), repeats=2)
    speedup = scalar_s / batch_s
    bench_summary(f"8-step PL optimisation: vectorized {batch_s * 1e3:.1f} ms "
                  f"vs scalar {scalar_s * 1e3:.1f} ms ({speedup:.1f}x, "
                  f"{batched.stats['engine_yields']} engine calls, "
                  f"{batched.evaluations} rows)")
    bench_json(
        "pl-optimization",
        batch_ms=round(batch_s * 1e3, 3),
        scalar_ms=round(scalar_s * 1e3, 3),
        speedup=round(speedup, 2),
        threshold=5.0,
    )
    assert speedup >= 5.0
