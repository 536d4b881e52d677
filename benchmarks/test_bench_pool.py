"""Benchmark gates for the pre-fork serving tier (ISSUE 7 acceptance).

Three properties, over real ``python -m repro serve`` subprocesses with
forked workers:

* **pool throughput** — 8 concurrent clients submitting 64 requests over 32
  distinct fingerprints must run at least 2x faster through ``--workers 4``
  than ``--workers 1`` on a >=4-core machine (the gate is skipped below 4
  cores, like the parallel-join gate — 4 workers contending for fewer cores
  measure the scheduler, not the pool; the measured numbers are recorded
  either way);
* **warm restart** — a cache restarted against a store warmed by a forked
  pool must answer >50% of the same workload from the store (cold-start hit
  rate), with bit-identical totals;
* **bit-identical serving** — every plan served by any pool size equals the
  direct library ``plan_many`` answer byte for byte.

Results land in ``BENCH.json`` (uploaded as a CI artifact).
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
from repro.costmodel import StepCost
from repro.costmodel.cachestore import PersistentEstimateCache
from repro.service import (
    PlanRequest,
    PlanService,
    PoolConfig,
    SharedEstimateCache,
    build_worker_server,
    connect_plan_client,
)

#: Concurrency and workload shape fixed by the acceptance criteria.
N_CLIENTS = 8
N_REQUESTS = 64
N_SERIES = 32
#: Interactive-tier grid (latency-bound serving trades resolution for time).
DELTA = 0.05
#: The speedup gate needs one core per worker.
GATE_WORKERS = 4
GATE_SPEEDUP = 2.0


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
    series = [_series(7000 + k, 5 + (k % 2)) for k in range(N_SERIES)]
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


def _spawn_serve(sock_path: str, *extra: str) -> subprocess.Popen:
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix", sock_path,
         "--window-ms", "2", "--max-batch", str(N_REQUESTS), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def _await_socket(proc: subprocess.Popen, sock_path: str,
                  timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(sock_path):
            return
        if proc.poll() is not None:
            raise AssertionError(
                f"serve subprocess died during startup: {proc.stderr.read()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("serve subprocess never bound its socket")


def _drive_clients(sock_path: str, requests: list[PlanRequest]):
    """8 concurrent clients over the unix socket; returns (s, results)."""
    slices = _client_slices(requests)

    async def go():
        clients = await asyncio.gather(
            *(
                connect_plan_client(sock_path, client_id=f"client-{k}")
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
        return elapsed, [result for batch in batches for result in batch]

    return asyncio.run(go())


def _serve_once(workers: int, *extra: str):
    """Boot a cold pool subprocess, drive the workload, drain via SIGTERM."""
    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        sock_path = os.path.join(tmp, "bench.sock")
        proc = _spawn_serve(sock_path, "--workers", str(workers), *extra)
        try:
            _await_socket(proc, sock_path)
            elapsed, results = _drive_clients(sock_path, _requests())
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err}"
    return elapsed, results


def _assert_bit_identical(results, label: str) -> None:
    direct = PlanService(cache=SharedEstimateCache()).plan_many(_requests())
    by_id = {response.request_id: response for response in direct}
    assert len(results) == N_REQUESTS, label
    for result in results:
        ref = by_id[result.response.request_id]
        assert result.response.ratios == ref.ratios, label
        assert result.response.total_s == ref.total_s, label
        assert result.response.estimate.cpu_step_s == ref.estimate.cpu_step_s, label
        assert result.response.estimate.gpu_step_s == ref.estimate.gpu_step_s, label
        assert result.response.estimate.cpu_delay_s == ref.estimate.cpu_delay_s, label
        assert result.response.estimate.gpu_delay_s == ref.estimate.gpu_delay_s, label


def test_bench_pool_speedup_gate(bench_summary, bench_json):
    """Acceptance: 8 clients x 64 requests, --workers 4 vs --workers 1.

    >=2x on a >=4-core machine; measured, recorded and skipped on fewer
    cores.  Bit-identical serving is asserted on every machine.
    """
    single_s = float("inf")
    single_results = None
    for _ in range(2):
        elapsed, results = _serve_once(1)
        if elapsed < single_s:
            single_s, single_results = elapsed, results
    pooled_s = float("inf")
    pooled_results = None
    for _ in range(2):
        elapsed, results = _serve_once(GATE_WORKERS)
        if elapsed < pooled_s:
            pooled_s, pooled_results = elapsed, results

    # Bit-identical serving for both pool sizes, before any speed claims.
    _assert_bit_identical(single_results, "workers=1")
    _assert_bit_identical(pooled_results, "workers=4")

    cpus = os.cpu_count() or 1
    speedup = single_s / pooled_s
    threshold = GATE_SPEEDUP if cpus >= GATE_WORKERS else None
    bench_summary(
        f"pre-fork pool: {N_CLIENTS} clients x {N_REQUESTS} requests in "
        f"{pooled_s * 1e3:.1f} ms with 4 workers vs {single_s * 1e3:.1f} ms "
        f"with 1 ({speedup:.2f}x on {cpus} CPUs)"
    )
    bench_json(
        "pool-speedup",
        clients=N_CLIENTS,
        requests=N_REQUESTS,
        workers_1_ms=round(single_s * 1e3, 3),
        workers_4_ms=round(pooled_s * 1e3, 3),
        speedup=round(speedup, 3),
        cpu_count=cpus,
        threshold=threshold,
    )
    if threshold is None:
        pytest.skip(
            f"pool speedup gate needs >={GATE_WORKERS} CPUs (this machine has "
            f"{cpus}); measured {speedup:.2f}x and recorded it in BENCH.json"
        )
    assert speedup >= threshold, (
        f"--workers 4 must be >={threshold}x faster than --workers 1 on "
        f"{cpus} CPUs; measured {speedup:.2f}x"
    )


def test_bench_pool_warm_restart_gate(bench_summary, bench_json):
    """Acceptance: cold-start hit rate >50% after restart against a store
    warmed by a forked 2-worker pool, with bit-identical answers."""
    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        store_path = os.path.join(tmp, "cache.db")
        sock_path = os.path.join(tmp, "warm.sock")

        # Warm the store through a real forked pool, then drain it.
        proc = _spawn_serve(
            sock_path, "--workers", "2", "--cache-store", store_path
        )
        try:
            _await_socket(proc, sock_path)
            _, served = _drive_clients(sock_path, _requests())
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err}"
        _assert_bit_identical(served, "warming pool")

        # "Restart": a brand-new process-equivalent stack on the same store.
        config = PoolConfig(workers=1, unix_path=sock_path,
                            cache_store=store_path)
        server, service = build_worker_server(config)
        cache = service.cache
        assert isinstance(cache, PersistentEstimateCache), (
            "warmed store failed to open on restart"
        )
        restarted = service.plan_many(_requests())
        lookups = cache.hits + cache.misses
        hit_rate = cache.hits / lookups if lookups else 0.0
        service.close()

    direct = PlanService(cache=SharedEstimateCache()).plan_many(_requests())
    by_id = {r.request_id: r for r in direct}
    for response in restarted:
        ref = by_id[response.request_id]
        assert response.ratios == ref.ratios
        assert response.total_s == ref.total_s

    bench_summary(
        f"persistent cache: restart against warmed store answered "
        f"{cache.hits}/{lookups} lookups from cache "
        f"({hit_rate:.0%} hit rate, {cache.store_hits} from the store)"
    )
    bench_json(
        "warm-restart-hit-rate",
        lookups=lookups,
        hits=cache.hits,
        store_hits=cache.store_hits,
        hit_rate=round(hit_rate, 4),
        threshold=0.5,
    )
    assert hit_rate > 0.5, (
        f"cold start against a warmed store must answer >50% of lookups "
        f"from cache; measured {hit_rate:.0%}"
    )
