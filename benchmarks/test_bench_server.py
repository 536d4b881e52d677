"""Benchmark gates for the async plan server (ISSUE 4 acceptance).

The serving stack's reason to exist is that many concurrent clients can
share one evaluator without giving up the batch engine's economics.  The
gate pins that end to end, over real unix-socket connections:

* **micro-batching throughput** — 8 concurrent asyncio clients submitting
  64 requests spread over 32 distinct fingerprints must run at least 1.5x
  faster through the micro-batching scheduler (requests coalesced across
  clients into few ``plan_many`` calls) than through a naive
  server that forwards one request per ``plan_many`` call;
* **bit-identical serving** — every response that crossed the wire must be
  byte-for-byte equal to a direct ``plan_many`` call on the
  same workload: same ratios, same per-step estimate vectors, same totals.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time

import numpy as np

from repro.costmodel import StepCost
from repro.service import (
    PlanRequest,
    PlanServer,
    PlanService,
    SharedEstimateCache,
    connect_plan_client,
)

#: Concurrency and workload shape fixed by the acceptance criteria.
N_CLIENTS = 8
N_REQUESTS = 64
N_SERIES = 32
#: Interactive-tier grid, like the mixed-engine gate: a latency-bound
#: serving tier trades grid resolution for response time.
DELTA = 0.05


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


def _requests() -> list[PlanRequest]:
    """64 requests over 32 distinct 5/6-step series, PL/OL/DD mixed."""
    series = [_series(5000 + k, 5 + (k % 2)) for k in range(N_SERIES)]
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


def _client_slices(requests: list[PlanRequest]) -> list[list[PlanRequest]]:
    per_client = len(requests) // N_CLIENTS
    return [
        requests[k * per_client : (k + 1) * per_client] for k in range(N_CLIENTS)
    ]


def _drive_server(window_s: float, max_batch: int):
    """Boot a cold server, drive the 8-client workload, return (s, results)."""
    requests = _requests()
    slices = _client_slices(requests)

    async def go():
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            path = os.path.join(tmp, "plan.sock")
            server = PlanServer(
                service=PlanService(cache=SharedEstimateCache()),
                window_s=window_s,
                max_batch=max_batch,
            )
            await server.start_unix(path)
            try:
                clients = await asyncio.gather(
                    *(
                        connect_plan_client(path, client_id=f"client-{k}")
                        for k in range(N_CLIENTS)
                    )
                )
                try:
                    start = time.perf_counter()
                    batches = await asyncio.gather(
                        *(
                            client.plan_many(chunk)
                            for client, chunk in zip(clients, slices)
                        )
                    )
                    elapsed = time.perf_counter() - start
                finally:
                    for client in clients:
                        await client.close()
            finally:
                await server.close()
        return elapsed, [result for batch in batches for result in batch]

    return asyncio.run(go())


def test_bench_server_micro_batching_gate(bench_summary, bench_json):
    """Acceptance: >= 1.5x for 8 clients x 64 requests vs the naive server,
    with every served plan bit-identical to direct plan_many."""
    # Cold run per measurement (fresh server, scheduler and cache each time);
    # best-of-N so one noisy run cannot flip the gate.
    batched_s = float("inf")
    batched_results = None
    for _ in range(3):
        elapsed, results = _drive_server(window_s=0.002, max_batch=N_REQUESTS)
        if elapsed < batched_s:
            batched_s, batched_results = elapsed, results
    naive_s = float("inf")
    naive_results = None
    for _ in range(2):
        elapsed, results = _drive_server(window_s=0.0, max_batch=1)
        if elapsed < naive_s:
            naive_s, naive_results = elapsed, results

    # Bit-identical serving, both strategies, before any speed claims.
    direct = PlanService(cache=SharedEstimateCache()).plan_many(_requests())
    by_id = {response.request_id: response for response in direct}
    for label, results in (("batched", batched_results), ("naive", naive_results)):
        assert len(results) == N_REQUESTS, label
        for result in results:
            reference = by_id[result.response.request_id]
            assert result.response.ratios == reference.ratios, label
            assert result.response.total_s == reference.total_s, label
            assert (
                result.response.estimate.cpu_step_s == reference.estimate.cpu_step_s
            ), label
            assert (
                result.response.estimate.gpu_step_s == reference.estimate.gpu_step_s
            ), label
            assert (
                result.response.estimate.cpu_delay_s == reference.estimate.cpu_delay_s
            ), label
            assert (
                result.response.estimate.gpu_delay_s == reference.estimate.gpu_delay_s
            ), label

    speedup = naive_s / batched_s
    bench_summary(
        f"plan server: {N_CLIENTS} clients x {N_REQUESTS} requests over "
        f"{N_SERIES} fingerprints in {batched_s * 1e3:.1f} ms micro-batched "
        f"vs {naive_s * 1e3:.1f} ms naive one-per-call ({speedup:.1f}x)"
    )
    bench_json(
        "server-micro-batching",
        clients=N_CLIENTS,
        requests=N_REQUESTS,
        batched_ms=round(batched_s * 1e3, 3),
        naive_ms=round(naive_s * 1e3, 3),
        speedup=round(speedup, 2),
        threshold=1.5,
    )
    assert speedup >= 1.5


def test_bench_server_batches_stay_few(bench_summary):
    """The coalescing window must actually coalesce: 64 requests from 8
    connections should land in a handful of plan_many calls, not 64."""
    requests = _requests()
    slices = _client_slices(requests)

    async def go():
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            path = os.path.join(tmp, "plan.sock")
            server = PlanServer(
                service=PlanService(cache=SharedEstimateCache()),
                window_s=0.005,
                max_batch=N_REQUESTS,
            )
            await server.start_unix(path)
            try:
                clients = await asyncio.gather(
                    *(
                        connect_plan_client(path, client_id=f"client-{k}")
                        for k in range(N_CLIENTS)
                    )
                )
                try:
                    await asyncio.gather(
                        *(
                            client.plan_many(chunk)
                            for client, chunk in zip(clients, slices)
                        )
                    )
                finally:
                    for client in clients:
                        await client.close()
                return server.scheduler.stats()
            finally:
                await server.close()

    stats = asyncio.run(go())
    bench_summary(
        f"plan server coalescing: {stats['requests_completed']} requests in "
        f"{stats['batches_formed']} micro-batches "
        f"(mean batch {stats['mean_batch_size']:.1f})"
    )
    assert stats["requests_completed"] == N_REQUESTS
    # 8 connections' pipelined submissions must collapse to far fewer
    # plan_many calls than requests; the window makes 1-4 batches typical.
    assert stats["batches_formed"] <= N_REQUESTS // 4
    assert stats["mean_batch_size"] >= 4.0
