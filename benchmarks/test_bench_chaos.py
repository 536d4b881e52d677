"""Chaos gates for the failure-recovery plane (ISSUE 10 acceptance).

Two gates, both recorded in ``BENCH.json`` for the CI ``chaos-gate`` job:

* **failover success rate** — seeded random fault schedules against a
  2-worker pool: every request must be answered exactly once and
  bit-identically to the fault-free reference (rate == 1.0, by request
  count), with the retry/respawn counters recorded alongside.
* **forked-worker failover latency** — a real ``repro serve`` subprocess
  whose worker 0 is SIGKILLed with requests in flight: the retried batch
  must complete with every plan bit-identical, and the recovery overhead
  (faulted minus fault-free wall-clock) is recorded and bounded.  The bound
  is a ``wallclock`` test, deselected by default and run by the CI
  ``chaos-gate`` job; the loss and bit-identity checks share its measured
  runs and stay in tier-1.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import faults
from repro.costmodel import StepCost
from repro.faults import FaultPlan, FaultSpec
from repro.service import (
    PlanRequest,
    PlanService,
    PoolConfig,
    RetryPolicy,
    SharedEstimateCache,
    WorkerPool,
    connect_retrying_client,
)

CHAOS_SEEDS = tuple(range(300, 305))
N_REQUESTS = 24
N_CLIENTS = 4
#: Generous ceiling on the recovery overhead of one SIGKILLed worker
#: (respawn + reconnect + one retried batch) — a hang fails long before.
MAX_FAILOVER_EXTRA_S = 10.0


def _requests(n: int, seed: int) -> list[PlanRequest]:
    rng = np.random.default_rng(seed)
    series = []
    for k in range(8):
        series.append(
            tuple(
                StepCost(
                    f"s{i}",
                    int(rng.integers(10_000, 200_000)),
                    cpu_unit_s=float(rng.uniform(1e-9, 5e-8)),
                    gpu_unit_s=float(rng.uniform(1e-9, 5e-8)),
                    intermediate_bytes_per_tuple=float(rng.uniform(0.0, 16.0)),
                )
                for i in range(4 + (k % 3))
            )
        )
    schemes = ("PL", "OL", "DD")
    return [
        PlanRequest(
            steps=series[i % len(series)],
            scheme=schemes[i % 3],
            request_id=f"q{i:02d}",
        )
        for i in range(n)
    ]


def _identical(result, reference) -> bool:
    ref = reference[result.response.request_id]
    return (
        result.response.ratios == ref.ratios
        and result.response.total_s == ref.total_s
        and result.response.estimate.cpu_step_s == ref.estimate.cpu_step_s
        and result.response.estimate.gpu_step_s == ref.estimate.gpu_step_s
        and result.response.estimate.cpu_delay_s == ref.estimate.cpu_delay_s
        and result.response.estimate.gpu_delay_s == ref.estimate.gpu_delay_s
    )


def _drive_retrying(sock_path: str, requests: list[PlanRequest], seed: int):
    """Serve ``requests`` through ``N_CLIENTS`` retrying clients."""
    per_client = len(requests) // N_CLIENTS

    async def go():
        clients = [
            connect_retrying_client(
                path=sock_path,
                client_id=f"chaos-{k}",
                policy=RetryPolicy(
                    max_attempts=8, base_s=0.01, cap_s=0.1, seed=seed * 10 + k
                ),
            )
            for k in range(N_CLIENTS)
        ]
        try:
            batches = await asyncio.gather(
                *(
                    client.plan_many(
                        requests[k * per_client : (k + 1) * per_client]
                    )
                    for k, client in enumerate(clients)
                )
            )
        finally:
            for client in clients:
                await client.close()
        results = [result for batch in batches for result in batch]
        retries = sum(client.stats()["retries"] for client in clients)
        return results, retries

    return asyncio.run(go())


def _run_schedule(sock_path: str, requests: list[PlanRequest], seed: int):
    """One seeded schedule against a thread-mode pool; returns
    ``(results, client retries, router stats)``."""
    import threading

    config = PoolConfig(
        workers=2,
        unix_path=sock_path,
        window_s=0.005,
        respawn_backoff_s=0.01,
        respawn_backoff_cap_s=0.1,
    )
    pool = WorkerPool(config, fork=False)
    ready = threading.Event()
    final: dict = {}

    def runner() -> None:
        final["stats"] = pool.run_forever(on_ready=lambda _p: ready.set())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0), "pool never became ready"
    try:
        results, retries = _drive_retrying(sock_path, requests, seed)
    finally:
        pool.stop()
        thread.join(timeout=20.0)
    return results, retries, final["stats"]


def test_bench_chaos_failover_success_rate(bench_summary, bench_json):
    """Acceptance: across seeded fault schedules, every request is answered
    exactly once and bit-identically — failover success rate 1.0."""
    total = 0
    recovered = 0
    retries_total = 0
    respawns_total = 0
    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        for seed in CHAOS_SEEDS:
            requests = _requests(N_REQUESTS, seed)
            reference = {
                r.request_id: r
                for r in PlanService(cache=SharedEstimateCache()).plan_many(
                    requests
                )
            }
            plan = FaultPlan.random(seed, workers=2, events=6)
            sock_path = os.path.join(tmp, f"chaos-{seed}.sock")
            with faults.inject(plan):
                results, retries, stats = _run_schedule(
                    sock_path, requests, seed
                )
            total += len(requests)
            answered_ids = sorted(r.response.request_id for r in results)
            if answered_ids == sorted(q.request_id for q in requests):
                recovered += sum(
                    1 for r in results if _identical(r, reference)
                )
            retries_total += retries
            respawns_total += stats["workers_respawned"]

    success_rate = recovered / total
    bench_summary(
        f"chaos: {len(CHAOS_SEEDS)} seeded schedules x {N_REQUESTS} requests — "
        f"failover success rate {success_rate:.3f}, "
        f"{retries_total} retries, {respawns_total} respawns"
    )
    bench_json(
        "seeded-schedules",
        seeds=list(CHAOS_SEEDS),
        requests_per_schedule=N_REQUESTS,
        failover_success_rate=success_rate,
        retries=retries_total,
        workers_respawned=respawns_total,
    )
    assert success_rate == 1.0


@pytest.fixture(scope="module")
def forked_failover() -> dict:
    """A fault-free and a SIGKILL-faulted run of a forked 2-worker pool."""
    requests = _requests(8, seed=999)
    src_dir = str(Path(repro.__file__).resolve().parents[1])

    def serve_once(plan: FaultPlan | None, seed: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(faults.FAULT_PLAN_ENV, None)
        if plan is not None:
            env[faults.FAULT_PLAN_ENV] = plan.to_json()
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            sock_path = os.path.join(tmp, "bench.sock")
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--unix", sock_path, "--workers", "2", "--window-ms", "2",
                ],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            )
            try:
                deadline = time.monotonic() + 30.0
                while not os.path.exists(sock_path):
                    if proc.poll() is not None:
                        raise AssertionError(
                            f"serve died during startup: {proc.stderr.read()}"
                        )
                    if time.monotonic() > deadline:
                        raise AssertionError("serve never bound its socket")
                    time.sleep(0.05)
                start = time.perf_counter()
                results, retries = _drive_retrying(sock_path, requests, seed)
                elapsed = time.perf_counter() - start
                proc.send_signal(signal.SIGTERM)
                _, err = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert proc.returncode == 0, f"serve exited {proc.returncode}: {err}"
        return results, retries, elapsed

    kill_plan = FaultPlan(
        faults=(
            FaultSpec(site="pool.route", action="kill", worker=0, after=0),
            FaultSpec(
                site="scheduler.dispatch",
                action="latency",
                latency_s=0.1,
                count=50,
            ),
        )
    )
    clean_results, _, clean_s = serve_once(None, seed=41)
    fault_results, retries, fault_s = serve_once(kill_plan, seed=42)
    return {
        "requests": requests,
        "results": (clean_results, fault_results),
        "retries": retries,
        "clean_s": clean_s,
        "fault_s": fault_s,
    }


def test_bench_chaos_forked_failover_latency(forked_failover):
    """Acceptance: SIGKILLing a forked worker mid-request loses nothing and
    every retried plan stays bit-identical."""
    requests = forked_failover["requests"]
    reference = {
        r.request_id: r
        for r in PlanService(cache=SharedEstimateCache()).plan_many(requests)
    }
    for results in forked_failover["results"]:
        assert sorted(r.response.request_id for r in results) == sorted(
            q.request_id for q in requests
        )
        assert all(_identical(r, reference) for r in results)
    assert forked_failover["retries"] >= 1


@pytest.mark.wallclock
def test_bench_gate_forked_failover_latency(forked_failover, bench_summary, bench_json):
    """Acceptance: the SIGKILL recovery overhead stays bounded."""
    clean_s, fault_s = forked_failover["clean_s"], forked_failover["fault_s"]
    retries = forked_failover["retries"]
    extra_s = max(0.0, fault_s - clean_s)
    bench_summary(
        f"chaos: SIGKILLed forked worker — recovery overhead {extra_s:.3f}s "
        f"({retries} retries; clean {clean_s:.3f}s, faulted {fault_s:.3f}s)"
    )
    bench_json(
        "forked-failover",
        clean_s=clean_s,
        faulted_s=fault_s,
        recovery_overhead_s=extra_s,
        retries=retries,
        threshold_s=MAX_FAILOVER_EXTRA_S,
    )
    assert extra_s < MAX_FAILOVER_EXTRA_S
