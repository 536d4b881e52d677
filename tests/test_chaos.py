"""Chaos suite: end-to-end failure recovery under injected faults (ISSUE 10).

Every test here runs a *deterministic* drill from ``repro.faults``: seeded
random schedules against thread-mode pools and SIGKILLed forked workers
behind ``repro serve`` subprocesses.  The invariants are always the same
three:

* **exactly one reply per request** — retried requests are neither lost nor
  duplicated in the client's result set;
* **bit-identical plans** — a recovered answer equals the fault-free
  reference byte for byte (planning is deterministic, so failover must be
  invisible);
* **bounded recovery work** — respawns stay within the crash-loop breaker's
  budget no matter how fast crashes arrive.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.service import (
    PlanService,
    PoolConfig,
    RetryPolicy,
    SharedEstimateCache,
    connect_plan_client,
    connect_retrying_client,
)

from test_pool import assert_plans_identical, mixed_requests, run_pool

#: The acceptance criterion asks for >= 20 seeded schedules.
CHAOS_SEEDS = tuple(range(1000, 1021))
N_REQUESTS = 24
N_CLIENTS = 6


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture
def sock_path(tmp_path) -> str:
    # AF_UNIX paths are length-limited (~108 bytes); keep them short.
    return os.path.join(tmp_path, "chaos.sock")


def direct_reference(requests):
    direct = PlanService(cache=SharedEstimateCache()).plan_many(requests)
    return {response.request_id: response for response in direct}


# ---------------------------------------------------------------------------
# Seeded chaos schedules against thread-mode pools
# ---------------------------------------------------------------------------
class TestSeededChaosSchedules:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_one_reply_per_request_and_bit_identical(self, seed, sock_path):
        requests = mixed_requests(N_REQUESTS, 4, seed=seed)
        by_id = direct_reference(requests)
        plan = FaultPlan.random(seed, workers=2, events=6)
        config = PoolConfig(
            workers=2,
            unix_path=sock_path,
            window_s=0.005,
            respawn_backoff_s=0.01,
            respawn_backoff_cap_s=0.1,
        )
        per_client = N_REQUESTS // N_CLIENTS

        def drive(pool):
            async def go():
                clients = [
                    connect_retrying_client(
                        path=pool.unix_path,
                        client_id=f"chaos-{k}",
                        policy=RetryPolicy(
                            max_attempts=8,
                            base_s=0.005,
                            cap_s=0.05,
                            seed=seed * 100 + k,
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

        with faults.inject(plan):
            (results, _retries), stats = run_pool(config, drive)

        # Exactly one reply per request: nothing lost, nothing duplicated.
        assert sorted(r.response.request_id for r in results) == sorted(
            q.request_id for q in requests
        )
        # Recovered plans are bit-identical to the fault-free reference.
        assert_plans_identical(results, by_id)
        # Bounded respawn budget: each kill costs at most one respawn plus
        # one revive; nothing else in a schedule may fork-spin.
        kills = sum(1 for spec in plan.faults if spec.action == "kill")
        assert stats["workers_respawned"] <= 2 * kills + 2
        assert stats["connections_routed"] >= N_CLIENTS

    def test_same_seed_same_schedule(self):
        # The suite's determinism rests on plans being pure functions of
        # the seed.
        for seed in CHAOS_SEEDS:
            assert FaultPlan.random(seed, workers=2, events=6) == FaultPlan.random(
                seed, workers=2, events=6
            )


# ---------------------------------------------------------------------------
# Crash-loop breaker: a worker that always dies must not fork-spin
# ---------------------------------------------------------------------------
class TestCrashLoopBreaker:
    def test_respawns_are_bounded_and_backoff_engages(self, sock_path):
        attempts = 50
        plan = FaultPlan(
            faults=(FaultSpec(site="worker.start", action="raise", count=1000),)
        )
        config = PoolConfig(
            workers=2,
            unix_path=sock_path,
            window_s=0.005,
            respawn_backoff_s=0.05,
            respawn_backoff_cap_s=0.5,
        )

        def drive(pool):
            for _ in range(attempts):
                try:
                    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    conn.settimeout(1.0)
                    conn.connect(pool.unix_path)
                    conn.close()
                except OSError:
                    pass
                time.sleep(0.01)
            return None

        with faults.inject(plan):
            _, stats = run_pool(config, drive)

        # The regression this pins: before the breaker, every routing
        # attempt against a crash-at-start worker respawned it — ~one fork
        # per connection.  With doubling backoff the budget stays a small
        # fraction of the attempts.
        assert stats["workers_respawned"] <= 20, stats
        assert stats["respawns_suppressed"] >= 1, stats
        assert stats["max_consecutive_crashes"] >= 2, stats
        # With every slot degraded the pool sheds load instead of spinning.
        assert stats["connections_dropped"] >= 1, stats


# ---------------------------------------------------------------------------
# Real forked workers behind `repro serve` subprocesses
# ---------------------------------------------------------------------------
def spawn_serve(sock_path: str, plan: FaultPlan | None, *extra: str):
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.FAULT_PLAN_ENV, None)
    if plan is not None:
        env[faults.FAULT_PLAN_ENV] = plan.to_json()
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--unix", sock_path, "--workers", "2", "--window-ms", "2",
            *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def await_socket(proc, sock_path: str, timeout_s: float = 30.0) -> None:
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


def worker_pids(proc) -> list[int]:
    """The forked workers: direct children of the router process."""
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        return [int(pid) for pid in children.read_text().split()]
    except OSError:  # pragma: no cover - /proc layout varies off-Linux
        return []


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-mode pool needs POSIX fork"
)
class TestForkedWorkerFailover:
    def test_sigkilled_worker_mid_request_is_retried_bit_identical(self, sock_path):
        requests = mixed_requests(6, 3, seed=31)
        by_id = direct_reference(requests)
        # The router SIGKILLs worker 0 the moment the first connection is
        # routed to it; the dispatch latency keeps those requests in flight
        # when the worker dies, so recovery must re-submit them.
        plan = FaultPlan(
            faults=(
                FaultSpec(site="pool.route", action="kill", worker=0, after=0),
                FaultSpec(
                    site="scheduler.dispatch",
                    action="latency",
                    latency_s=0.15,
                    count=50,
                ),
            )
        )
        proc = spawn_serve(sock_path, plan)
        try:
            await_socket(proc, sock_path)

            async def go():
                client = connect_retrying_client(
                    path=sock_path,
                    client_id="failover",
                    policy=RetryPolicy(
                        max_attempts=8, base_s=0.02, cap_s=0.2, seed=31
                    ),
                )
                try:
                    results = await client.plan_many(requests)
                finally:
                    await client.close()
                return results, client.stats()

            results, stats = asyncio.run(go())
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err}"
        # Every request answered exactly once, identical to the fault-free
        # reference, and the failover really happened.
        assert sorted(r.response.request_id for r in results) == sorted(
            q.request_id for q in requests
        )
        assert_plans_identical(results, by_id)
        assert stats["retries"] >= 1, stats

    def test_sigkill_during_sigterm_drain_does_not_hang_shutdown(self, sock_path):
        requests = mixed_requests(4, 2, seed=32)
        proc = spawn_serve(sock_path, None)
        try:
            await_socket(proc, sock_path)

            async def go():
                client = await connect_plan_client(sock_path, client_id="drain")
                try:
                    return await client.plan_many(requests)
                finally:
                    await client.close()

            results = asyncio.run(go())
            assert len(results) == 4
            pids = worker_pids(proc)
            assert pids, "no forked workers visible under /proc"
            # Start the SIGTERM drain, then SIGKILL a worker mid-drain: the
            # router must reap the corpse and still exit 0 in bounded time.
            proc.send_signal(signal.SIGTERM)
            os.kill(pids[0], signal.SIGKILL)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err}"
