"""Benchmark gates for the pre-fork serving tier (ISSUE 7 acceptance).

Two properties, over real ``python -m repro serve`` subprocesses with
forked workers:

* **pool throughput** — 8 concurrent clients submitting 64 requests over 32
  distinct fingerprints must run at least 2x faster through ``--workers 4``
  than ``--workers 1`` on a >=4-core machine (the gate is skipped below 4
  cores — 4 workers contending for fewer cores measure the scheduler, not
  the pool; the measured numbers are recorded either way);
* **bit-identical serving** — every plan served by any pool size equals the
  direct library ``plan_many`` answer byte for byte.

Both checks share one set of measured runs; the bit-identity check runs in
tier-1, and the speedup gate is a ``wallclock`` test, deselected by default
and run by the CI ``serve-gate`` job.  Results land in ``BENCH.json``
(uploaded as a CI artifact).
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
from repro.service import (
    PlanRequest,
    PlanService,
    SharedEstimateCache,
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


@pytest.fixture(scope="module")
def served() -> dict[int, tuple[float, list]]:
    """Best of two cold runs per pool size: ``{workers: (seconds, results)}``."""
    return {
        workers: min((_serve_once(workers) for _ in range(2)), key=lambda run: run[0])
        for workers in (1, GATE_WORKERS)
    }


def test_bench_pool_serves_bit_identically(served):
    """Every plan served by --workers 1 and --workers 4 equals plan_many."""
    for workers, (_, results) in served.items():
        _assert_bit_identical(results, f"workers={workers}")


@pytest.mark.wallclock
def test_bench_pool_speedup_gate(served, bench_summary, bench_json):
    """Acceptance: 8 clients x 64 requests, --workers 4 vs --workers 1.

    >=2x on a >=4-core machine; measured, recorded and skipped on fewer
    cores.
    """
    single_s, pooled_s = served[1][0], served[GATE_WORKERS][0]
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

