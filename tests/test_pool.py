"""Pre-fork worker pool (ISSUE 7 tentpole): router, fd passing, shared state.

The pool runs here in thread mode (``fork=False``): the workers are daemon
threads executing the *identical* ``run_worker`` coroutine production forks
run, and accepted descriptors travel over the very same ``send_fds``
socketpair channels — so the router/worker protocol is exercised end to end
in one process.  (Real forked workers are driven by the subprocess tests in
``test_cli.py`` and the serving benchmarks.)

Pinned here:

* the multi-worker **bit-parity** gate: the same 64-request workload served
  through ``--workers 1``, ``--workers 4`` and a direct ``plan_many`` call
  yields byte-identical plans;
* admission control debits one fleet-wide bucket, not one bucket per worker;
* a dead worker is respawned on the next routing attempt;
* stale unix socket files are reclaimed at bind and unlinked at shutdown.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import threading

import numpy as np
import pytest

from repro.costmodel import StepCost
from repro.service import (
    ERROR_ADMISSION,
    PlanRequest,
    PlanServerError,
    PlanService,
    PoolConfig,
    SharedEstimateCache,
    WorkerPool,
    connect_plan_client,
    run_worker,
)
from repro.service.pool import install_stop_signals


def random_steps(rng: np.random.Generator, n: int) -> tuple[StepCost, ...]:
    return tuple(
        StepCost(
            f"s{i}",
            int(rng.integers(10_000, 200_000)),
            cpu_unit_s=float(rng.uniform(1e-9, 5e-8)),
            gpu_unit_s=float(rng.uniform(1e-9, 5e-8)),
            intermediate_bytes_per_tuple=float(rng.uniform(0.0, 16.0)),
        )
        for i in range(n)
    )


def mixed_requests(n_requests: int, n_series: int, seed: int = 0) -> list[PlanRequest]:
    rng = np.random.default_rng(seed)
    series = [random_steps(rng, 4 + (k % 3)) for k in range(n_series)]
    schemes = ("PL", "OL", "DD")
    return [
        PlanRequest(
            steps=series[i % n_series],
            scheme=schemes[i % 3],
            request_id=f"q{i:02d}",
        )
        for i in range(n_requests)
    ]


def run_pool(config: PoolConfig, client_fn):
    """Run ``client_fn(pool)`` against a thread-mode pool; returns
    ``(client result, final router stats)``."""
    pool = WorkerPool(config, fork=False)
    ready = threading.Event()
    final: dict = {}

    def runner() -> None:
        final["stats"] = pool.run_forever(on_ready=lambda _p: ready.set())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0), "pool never became ready"
    try:
        result = client_fn(pool)
    finally:
        pool.stop()
        thread.join(timeout=20.0)
    assert not thread.is_alive(), "pool failed to stop"
    return result, final["stats"]


def serve_workload(
    config: PoolConfig, requests: list[PlanRequest], clients: int
):
    """Serve ``requests`` through a pool via ``clients`` concurrent
    connections; returns the flattened results."""
    per_client = len(requests) // clients

    def drive(pool: WorkerPool):
        async def go():
            conns = await asyncio.gather(
                *(
                    connect_plan_client(
                        path=pool.unix_path, client_id=f"client-{k}"
                    )
                    for k in range(clients)
                )
            )
            try:
                batches = await asyncio.gather(
                    *(
                        conn.plan_many(
                            requests[k * per_client : (k + 1) * per_client]
                        )
                        for k, conn in enumerate(conns)
                    )
                )
            finally:
                for conn in conns:
                    await conn.close()
            return [result for batch in batches for result in batch]

        return asyncio.run(go())

    return run_pool(config, drive)


def assert_plans_identical(results, reference_by_id) -> None:
    for result in results:
        ref = reference_by_id[result.response.request_id]
        assert result.response.ratios == ref.ratios
        assert result.response.total_s == ref.total_s
        assert result.response.estimate.cpu_step_s == ref.estimate.cpu_step_s
        assert result.response.estimate.gpu_step_s == ref.estimate.gpu_step_s
        assert result.response.estimate.cpu_delay_s == ref.estimate.cpu_delay_s
        assert result.response.estimate.gpu_delay_s == ref.estimate.gpu_delay_s


@pytest.fixture
def sock_path(tmp_path) -> str:
    # AF_UNIX paths are length-limited (~108 bytes); keep them short.
    return os.path.join(tmp_path, "pool.sock")


class TestWorkerPoolValidation:
    def test_needs_at_least_one_worker(self, sock_path):
        with pytest.raises(ValueError, match="at least one worker"):
            WorkerPool(PoolConfig(workers=0, unix_path=sock_path))

    def test_needs_an_endpoint(self):
        with pytest.raises(ValueError, match="unix path and/or a TCP port"):
            WorkerPool(PoolConfig(workers=2))


class TestWorkerPoolServing:
    def test_routes_connections_round_robin(self, sock_path):
        requests = mixed_requests(16, 4, seed=21)
        config = PoolConfig(workers=2, unix_path=sock_path, window_s=0.01)
        results, stats = serve_workload(config, requests, clients=4)
        assert len(results) == 16
        assert stats["connections_routed"] == 4
        assert stats["connections_dropped"] == 0
        assert stats["mode"] == "thread"

    def test_multi_worker_bit_parity_1_vs_4_vs_direct(self, sock_path):
        """The acceptance gate: one 64-request workload through --workers 1,
        --workers 4 and a direct plan_many — all byte-identical."""
        requests = mixed_requests(64, 8, seed=22)
        direct = PlanService(cache=SharedEstimateCache()).plan_many(requests)
        by_id = {r.request_id: r for r in direct}

        for workers in (1, 4):
            config = PoolConfig(
                workers=workers, unix_path=sock_path, window_s=0.005
            )
            results, _ = serve_workload(config, requests, clients=8)
            assert len(results) == 64
            assert_plans_identical(results, by_id)

    def test_tcp_endpoint_serves_too(self):
        requests = mixed_requests(4, 2, seed=23)
        config = PoolConfig(workers=1, tcp_port=0)  # 0 = ephemeral port

        def drive(pool: WorkerPool):
            host, port = pool.tcp_address

            async def go():
                client = await connect_plan_client(host=host, port=port)
                try:
                    return await client.plan_many(requests)
                finally:
                    await client.close()

            return asyncio.run(go())

        results, stats = run_pool(config, drive)
        assert len(results) == 4
        assert stats["connections_routed"] == 1

    def test_dead_worker_is_respawned(self, sock_path):
        requests = mixed_requests(2, 1, seed=24)
        config = PoolConfig(workers=2, unix_path=sock_path, window_s=0.01)

        def drive(pool: WorkerPool):
            # Kill worker 0 behind the router's back: its channel breaks,
            # the next route detects the corpse and respawns the slot.
            pool._workers[0].channel.close()

            async def go():
                out = []
                for k in range(3):  # round-robin crosses the dead slot
                    client = await connect_plan_client(
                        path=pool.unix_path, client_id=f"c{k}"
                    )
                    try:
                        out.extend(await client.plan_many(requests))
                    finally:
                        await client.close()
                return out

            return asyncio.run(go())

        results, stats = run_pool(config, drive)
        assert len(results) == 6  # every connection was served
        assert stats["workers_respawned"] >= 1
        assert stats["connections_dropped"] == 0


class TestSharedStateAcrossWorkers:
    def test_admission_is_fleet_wide_not_per_worker(self, sock_path, tmp_path):
        store_path = os.path.join(tmp_path, "cache.db")
        request = mixed_requests(1, 1, seed=26)[0]
        # burst=2 fleet-wide; a negligible refill rate keeps the arithmetic
        # exact over the test's runtime.  Per-worker buckets would admit 4
        # (2 workers x burst 2) — the shared store must admit exactly 2.
        config = PoolConfig(
            workers=2,
            unix_path=sock_path,
            cache_store=store_path,
            admission_rate=1e-6,
            admission_burst=2.0,
            window_s=0.01,
        )

        def drive(pool: WorkerPool):
            async def go():
                outcomes = []
                for k in range(4):  # 4 connections, round-robin over 2 workers
                    client = await connect_plan_client(
                        path=pool.unix_path, client_id="alice"
                    )
                    try:
                        await client.submit(request)
                        outcomes.append("admitted")
                    except PlanServerError as exc:
                        assert exc.code == ERROR_ADMISSION
                        outcomes.append("rejected")
                    finally:
                        await client.close()
                return outcomes

            return asyncio.run(go())

        outcomes, _ = run_pool(config, drive)
        assert outcomes == ["admitted", "admitted", "rejected", "rejected"]


class TestPoolSocketHygiene:
    def test_stale_socket_file_is_reclaimed(self, sock_path):
        # A crashed previous server left its socket file behind.
        corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        corpse.bind(sock_path)
        corpse.close()  # closed without unlink: the bind would now fail
        assert os.path.exists(sock_path)

        requests = mixed_requests(2, 1, seed=27)
        config = PoolConfig(workers=1, unix_path=sock_path, window_s=0.01)
        results, _ = serve_workload(config, requests, clients=1)
        assert len(results) == 2

    def test_socket_unlinked_after_stop(self, sock_path):
        config = PoolConfig(workers=1, unix_path=sock_path)
        _, stats = run_pool(config, lambda pool: None)
        assert not os.path.exists(sock_path)
        assert stats["workers"] == 1


class TestStopSignals:
    """SIGTERM/SIGINT handling (ISSUE 7 satellite).  pytest runs on the main
    thread, so the ``loop.add_signal_handler`` path — skipped by thread-mode
    workers — is exercised directly here; the subprocess tests in
    ``test_cli.py`` cover the same path end to end."""

    def test_install_stop_signals_sets_the_event(self):
        async def go():
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            installed = install_stop_signals(loop, stop)
            try:
                assert set(installed) == {signal.SIGTERM, signal.SIGINT}
                signal.raise_signal(signal.SIGTERM)
                await asyncio.wait_for(stop.wait(), timeout=5.0)
            finally:
                for signum in installed:
                    loop.remove_signal_handler(signum)

        asyncio.run(go())

    def test_install_skips_off_the_main_thread(self):
        outcome = {}

        def worker():
            async def go():
                loop = asyncio.get_running_loop()
                outcome["installed"] = install_stop_signals(loop, asyncio.Event())

            asyncio.run(go())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10.0)
        assert outcome["installed"] == []

    def test_run_worker_drains_on_sigterm(self, sock_path):
        router_end, worker_end = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        config = PoolConfig(workers=1, unix_path=sock_path)

        async def go():
            task = asyncio.create_task(
                run_worker(worker_end, config, 0, install_signals=True)
            )
            await asyncio.sleep(0.05)  # let the worker install its handlers
            signal.raise_signal(signal.SIGTERM)
            return await asyncio.wait_for(task, timeout=10.0)

        stats = asyncio.run(go())
        router_end.close()
        assert stats["connections_served"] == 0  # drained before any traffic
        assert "scheduler" in stats
