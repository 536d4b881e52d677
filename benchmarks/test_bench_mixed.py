"""Benchmark gates for the mixed-series batch engine (ISSUE 3 acceptance).

A production planning burst mixes requests over *many* calibrated step
series.  The plan service evaluates one stacked matrix with per-row
coefficient vectors per round, regardless of how many fingerprints the
batch spans.  Two gates pin this down:

* **service throughput** — answering 64 requests spread over 32 distinct
  fingerprints through ``PlanService.plan_many`` must be at least 2x faster
  than solving each request with the scalar reference
  (``optimize_scheme(..., evaluator=SeriesEvaluator(steps, use_batch=False))``),
  with identical ratios and totals within the scalar tolerance;
* **raw engine** — one ``batch_totals_mixed`` call over a 32-series mixture
  must beat the equivalent per-series ``batch_totals`` loop, bit-identically.

The parity halves run in tier-1; the speedup asserts are ``wallclock``
tests, deselected by default and run by the CI ``service-gate`` job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel import (
    SeriesEvaluator,
    StepCost,
    batch_totals,
    batch_totals_mixed,
    optimize_pl,
    optimize_scheme,
)
from repro.service import PlanRequest, PlanService, SharedEstimateCache

#: Concurrent batch size fixed by the acceptance criteria.
N_REQUESTS = 64
#: Distinct step series (fingerprints) behind the 64 requests: every PL
#: request plans a different join, yet the mixed path still issues one
#: engine call per lockstep round.
N_SERIES = 32
#: Interactive-tier candidate grid.  The paper's offline delta of 0.02 stays
#: the default everywhere else; a latency-bound planning service trades grid
#: resolution for response time, and the coarser grid is exactly the regime
#: the ROADMAP names (the descent becomes overhead-bound: ~20-row candidate
#: columns make the per-call fixed cost, not the row arithmetic, the bill).
DELTA = 0.05
#: Scalar-vs-batch tolerance on ``total_s`` (as in ``test_costmodel_batch``).
TOL = 1e-12


def _series(seed: int, n_steps: int) -> tuple[StepCost, ...]:
    rng = np.random.default_rng(seed)
    return tuple(
        StepCost(
            f"s{i}",
            int(rng.integers(50_000, 250_000)),
            cpu_unit_s=float(rng.uniform(2e-9, 2e-8)),
            gpu_unit_s=float(rng.uniform(1e-9, 2e-8)),
            intermediate_bytes_per_tuple=8.0,
        )
        for i in range(n_steps)
    )


def _mixed_fingerprint_requests() -> list[PlanRequest]:
    """64 requests over 32 distinct 5/6-step series: half PL optimisations
    (one per fingerprint), half OL/DD grid questions."""
    series = [_series(3000 + k, 5 + (k % 2)) for k in range(N_SERIES)]
    requests = []
    for i in range(N_REQUESTS):
        scheme = "PL" if i < N_REQUESTS // 2 else ("OL" if i % 2 else "DD")
        requests.append(
            PlanRequest(
                steps=series[i % N_SERIES],
                scheme=scheme,
                delta=DELTA,
                request_id=f"q{i:02d}",
            )
        )
    return requests


def _scalar_reference(requests: list[PlanRequest]):
    """Each request solved on its own through the scalar cost model."""
    return [
        optimize_scheme(
            request.scheme,
            list(request.steps),
            request.delta,
            evaluator=SeriesEvaluator(list(request.steps), use_batch=False),
        )
        for request in requests
    ]


def test_bench_mixed_service_vs_scalar_gate(benchmark):
    """The mixed-series service decides exactly like the scalar per-request
    reference on the gate's 64-request workload."""
    requests = _mixed_fingerprint_requests()

    mixed_responses = benchmark(
        lambda: PlanService(cache=SharedEstimateCache()).plan_many(requests)
    )
    scalar_results = _scalar_reference(requests)

    # Identical decisions; totals equal up to the scalar model's rounding.
    for mixed, scalar in zip(mixed_responses, scalar_results):
        assert mixed.ratios == scalar.ratios
        assert mixed.total_s == pytest.approx(scalar.total_s, abs=TOL, rel=TOL)


@pytest.mark.wallclock
def test_bench_gate_mixed_service(bench_summary, bench_json, best_seconds):
    """Acceptance: >= 2x for 64 mixed-fingerprint requests vs the scalar
    per-request reference."""
    requests = _mixed_fingerprint_requests()
    mixed_s = best_seconds(
        lambda: PlanService(cache=SharedEstimateCache()).plan_many(requests),
        repeats=5,
    )
    scalar_s = best_seconds(lambda: _scalar_reference(requests), repeats=3)
    speedup = scalar_s / mixed_s
    bench_summary(
        f"mixed-series service: {N_REQUESTS} requests over {N_SERIES} "
        f"fingerprints in {mixed_s * 1e3:.1f} ms vs {scalar_s * 1e3:.1f} ms "
        f"scalar per-request reference ({speedup:.1f}x)"
    )
    bench_json(
        "mixed-service",
        requests=N_REQUESTS,
        fingerprints=N_SERIES,
        mixed_ms=round(mixed_s * 1e3, 3),
        scalar_ms=round(scalar_s * 1e3, 3),
        speedup=round(speedup, 2),
        threshold=2.0,
    )
    assert speedup >= 2.0


def test_bench_mixed_engine_call_count(bench_summary):
    """The mixed strategy's engine calls must not scale with fingerprints.

    32 distinct series behind the batch: the service pays one call for
    every grid plus one per lockstep descent round — bounded by the slowest
    PL task, not the fingerprint count.
    """
    requests = _mixed_fingerprint_requests()
    service = PlanService(cache=SharedEstimateCache())
    service.plan_many(requests)
    calls = service.stats()["mixed_engine_calls"]
    pl_tasks = {r.task_key: r for r in requests if r.scheme == "PL"}
    worst_descent = max(
        optimize_pl(list(r.steps), r.delta).stats["engine_yields"]
        for r in pl_tasks.values()
    )
    bench_summary(
        f"mixed-series service: {calls} engine calls for "
        f"{len(requests)} requests ({N_SERIES} fingerprints, "
        f"{len(pl_tasks)} PL tasks, slowest descent {worst_descent} rounds)"
    )
    # One call for all grids + one per lockstep descent round.
    assert calls == 1 + worst_descent
    assert calls < N_SERIES


def _raw_segments() -> list[tuple[tuple[StepCost, ...], np.ndarray]]:
    """32 series of 4-9 steps with 40 random ratio rows each."""
    rng = np.random.default_rng(17)
    segments = []
    for k in range(N_SERIES):
        steps = _series(4000 + k, 4 + (k % 6))
        segments.append(
            (steps, rng.uniform(0.0, 1.0, size=(40, len(steps))))
        )
    return segments


def test_bench_raw_mixed_engine_vs_per_series_loop(benchmark):
    """One batch_totals_mixed call equals a per-series batch_totals loop."""
    segments = _raw_segments()
    mixed_totals = benchmark(lambda: batch_totals_mixed(segments))
    loop_totals = np.concatenate(
        [batch_totals(list(steps), matrix) for steps, matrix in segments]
    )
    assert np.array_equal(mixed_totals, loop_totals)


@pytest.mark.wallclock
def test_bench_gate_raw_mixed_engine(bench_summary, best_seconds):
    """One batch_totals_mixed call vs a per-series batch_totals loop."""
    segments = _raw_segments()
    mixed_s = best_seconds(lambda: batch_totals_mixed(segments), repeats=5)
    loop_s = best_seconds(
        lambda: [batch_totals(list(steps), matrix) for steps, matrix in segments],
        repeats=5,
    )
    speedup = loop_s / mixed_s
    bench_summary(
        f"raw mixed engine: {N_SERIES} series x 40 rows in {mixed_s * 1e6:.0f} us "
        f"vs {loop_s * 1e6:.0f} us per-series loop ({speedup:.1f}x)"
    )
    # The win is call-count driven; modest per-call gains are acceptable but
    # the mixed pass must never lose to the loop it replaces.
    assert speedup >= 1.0
