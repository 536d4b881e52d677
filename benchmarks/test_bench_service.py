"""Benchmark gate for the multi-query plan service (ISSUE 2 acceptance).

A planning service fronting the cost model sees bursts of concurrent
optimisation requests, many of them over the same few calibrated step series
(clients re-asking what-if questions, retries, dashboards refreshing).  The
gate pins the two properties that make the service worth having over calling
``optimize_scheme`` once per request:

* **throughput** — answering 32 mixed PL/OL/DD requests through
  ``PlanService.plan_many`` (fingerprint grouping + stacked batch
  evaluation + deduplication) must be at least 3x faster than 32 sequential
  ``optimize_scheme`` calls, while returning bit-identical ratios and
  estimates;
* **answer reuse** — replaying the same workload against one service must
  be answered from its answer cache, without a single engine call.

The bit-identity half of the throughput gate runs in tier-1; its speedup
assert is a ``wallclock`` test, deselected by default and run by the CI
``service-gate`` job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel import StepCost, optimize_scheme
from repro.service import PlanRequest, PlanService, SharedEstimateCache

#: Step count per series: a build+probe SHJ join like the optimizer bench.
N_STEPS = 8
#: Concurrent batch size fixed by the acceptance criteria.
N_REQUESTS = 32
#: Distinct join workloads behind the 32 requests (concurrent traffic
#: repeats the same few fingerprints).
N_SERIES = 2

SCHEMES = ("PL", "OL", "DD")


def _series(seed: int) -> tuple[StepCost, ...]:
    rng = np.random.default_rng(seed)
    return tuple(
        StepCost(
            f"s{i}",
            int(rng.integers(50_000, 250_000)),
            cpu_unit_s=float(rng.uniform(2e-9, 2e-8)),
            gpu_unit_s=float(rng.uniform(1e-9, 2e-8)),
            intermediate_bytes_per_tuple=8.0,
        )
        for i in range(N_STEPS)
    )


def _mixed_requests() -> list[PlanRequest]:
    series = [_series(seed) for seed in (2013, 2014, 2015)[:N_SERIES]]
    return [
        PlanRequest(
            steps=series[(i // len(SCHEMES)) % N_SERIES],
            scheme=SCHEMES[i % len(SCHEMES)],
            request_id=f"q{i:02d}",
        )
        for i in range(N_REQUESTS)
    ]


def test_bench_service_throughput_gate(benchmark):
    """The service answers the gate's 32 mixed requests bit-identically to
    sequential optimisation."""
    requests = _mixed_requests()

    responses = benchmark(
        lambda: PlanService(cache=SharedEstimateCache()).plan_many(requests)
    )
    sequential = [
        optimize_scheme(r.scheme, list(r.steps), r.delta) for r in requests
    ]

    # Identical decisions and estimates, not merely close ones.
    for response, reference in zip(responses, sequential):
        assert response.ratios == reference.ratios
        assert response.total_s == reference.total_s
        assert response.estimate.cpu_step_s == reference.estimate.cpu_step_s
        assert response.estimate.gpu_delay_s == reference.estimate.gpu_delay_s


@pytest.mark.wallclock
def test_bench_gate_service_throughput(bench_summary, bench_json, best_seconds):
    """Acceptance: >= 3x for 32 mixed requests vs sequential optimisation."""
    requests = _mixed_requests()
    service_s = best_seconds(
        lambda: PlanService(cache=SharedEstimateCache()).plan_many(requests),
        repeats=5,
    )
    sequential_s = best_seconds(
        lambda: [optimize_scheme(r.scheme, list(r.steps), r.delta) for r in requests],
        repeats=3,
    )
    speedup = sequential_s / service_s
    bench_summary(
        f"plan service: {N_REQUESTS} mixed requests in {service_s * 1e3:.1f} ms "
        f"vs {sequential_s * 1e3:.1f} ms sequential ({speedup:.1f}x)"
    )
    bench_json(
        "service-throughput",
        requests=N_REQUESTS,
        service_ms=round(service_s * 1e3, 3),
        sequential_ms=round(sequential_s * 1e3, 3),
        speedup=round(speedup, 2),
        threshold=3.0,
    )
    assert speedup >= 3.0


def test_bench_service_repeated_workload_is_answered_from_the_answer_cache(
    bench_summary,
):
    """Acceptance: a repeated workload is answered from the answer cache.

    The first pass solves every distinct task; each of the two replays is
    answered from the service's answer cache without one engine call, bit
    for bit equal to the first pass and charged no evaluations.
    """
    requests = _mixed_requests()
    service = PlanService(cache=SharedEstimateCache())

    first = service.plan_many(requests)
    engine_calls = service.stats()["mixed_engine_calls"]
    for _ in range(2):
        repeat = service.plan_many(requests)
        for a, b in zip(first, repeat):
            assert a.request_id == b.request_id
            assert a.ratios == b.ratios
            assert a.estimate == b.estimate
            assert b.evaluations == 0

    stats = service.stats()
    distinct = len({request.task_key for request in requests})
    bench_summary(
        f"repeated workload: {stats['answers']['hits']} answer hits for "
        f"{distinct} distinct tasks over two replays, "
        f"{stats['mixed_engine_calls'] - engine_calls} replay engine calls, "
        f"{stats['requests_deduplicated']} of {stats['requests_served']} "
        "requests deduplicated"
    )
    assert stats["mixed_engine_calls"] == engine_calls
    assert stats["answers"]["hits"] == 2 * distinct
