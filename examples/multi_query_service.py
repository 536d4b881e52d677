#!/usr/bin/env python3
"""Cookbook: serve many what-if/optimisation questions in one batch.

A planning service (think: the optimiser endpoint of an HTAP system) receives
a burst of heterogeneous requests — "give me the best PL ratios for this
join", "would OL beat DD here?", "what if I pin the build phase to the GPU?"
— many of them over the same few calibrated step series.  This example feeds
32 mixed PL/OL/DD/what-if requests through :class:`repro.service.PlanService`
and shows the two wins over calling ``optimize_scheme`` per request:

* requests over the same step series are grouped, their candidate-ratio
  grids stacked, and evaluated by ~one vectorized engine call per series;
* the service keeps every answer in its answer cache, so re-planning the
  same workload a second time is answered without one engine call.

Run with::

    python examples/multi_query_service.py [n_steps]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.costmodel import StepCost, optimize_scheme
from repro.service import PlanRequest, PlanService, SharedEstimateCache


def calibrated_series(seed: int, n_steps: int) -> tuple[StepCost, ...]:
    """A synthetic calibrated step series (stands in for a pilot execution)."""
    rng = np.random.default_rng(seed)
    return tuple(
        StepCost(
            f"s{i}",
            int(rng.integers(50_000, 250_000)),
            cpu_unit_s=float(rng.uniform(2e-9, 2e-8)),
            gpu_unit_s=float(rng.uniform(1e-9, 2e-8)),
        )
        for i in range(n_steps)
    )


def build_workload(n_steps: int) -> list[PlanRequest]:
    """32 mixed requests over three distinct join workloads."""
    series = [calibrated_series(seed, n_steps) for seed in (11, 23, 31)]
    schemes = ("PL", "OL", "DD")
    requests = []
    for i in range(30):
        requests.append(
            PlanRequest(
                steps=series[(i // 3) % 3],
                scheme=schemes[i % 3],
                request_id=f"q{i:02d}",
            )
        )
    # Two what-if questions: all-GPU and an even split on workload 0.
    requests.append(
        PlanRequest(steps=series[0], scheme="WHAT-IF",
                    ratios=(0.0,) * n_steps, request_id="wi-gpu")
    )
    requests.append(
        PlanRequest(steps=series[0], scheme="WHAT-IF",
                    ratios=(0.5,) * n_steps, request_id="wi-even")
    )
    return requests


def main() -> None:
    n_steps = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    requests = build_workload(n_steps)

    start = time.perf_counter()
    sequential = [
        optimize_scheme(r.scheme, r.steps) for r in requests if r.scheme != "WHAT-IF"
    ]
    sequential_s = time.perf_counter() - start

    service = PlanService(cache=SharedEstimateCache())
    start = time.perf_counter()
    responses = service.plan_many(requests)
    service_s = time.perf_counter() - start

    start = time.perf_counter()
    service.plan_many(requests)  # the repeated workload hits the answer cache
    warm_s = time.perf_counter() - start

    print(f"{'request':>8s} {'scheme':>8s} {'total ms':>9s} {'evals':>6s} {'group':>6s}")
    for response in responses[:6]:
        print(
            f"{response.request_id:>8s} {response.scheme:>8s} "
            f"{response.total_s * 1e3:>9.3f} {response.evaluations:>6d} "
            f"{response.group_size:>6d}"
        )
    print(f"     ... {len(responses) - 6} more")

    stats = service.stats()
    print()
    print(f"sequential optimize_scheme x{len(sequential)}: {sequential_s * 1e3:8.1f} ms")
    print(f"service.plan_many (cold cache)       : {service_s * 1e3:8.1f} ms "
          f"({sequential_s / service_s:.1f}x)")
    print(f"service.plan_many (answer cache)     : {warm_s * 1e3:8.1f} ms "
          f"({sequential_s / warm_s:.1f}x)")
    print(f"unique tasks solved: {stats['tasks_solved']} "
          f"for {stats['requests_served']} requests "
          f"({stats['requests_deduplicated']} deduplicated); "
          f"answer hits {stats['answers']['hits']}; "
          f"row cache hit rate {stats['cache']['hit_rate']:.1%}")


if __name__ == "__main__":
    main()
