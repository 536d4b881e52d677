#!/usr/bin/env python3
"""Cookbook: the async plan server and its JSON-lines client.

Boots :class:`repro.service.PlanServer` on a unix socket (or connects to an
already-running ``python -m repro serve`` instance), drives a 64-request
mixed workload through several concurrent asyncio clients, and verifies the
served plans are bit-identical to a direct ``plan_many`` call.  Shows the
three serving policies in one run:

* micro-batching — requests from all clients coalesce into a handful of
  ``plan_many`` calls;
* weighted fairness — the ``vip`` client (weight 4) gets ~4 batch slots per
  slot of the weight-1 clients while both have work queued;
* deadlines — a request submitted with a too-tight ``timeout_s`` receives a
  structured ``deadline-exceeded`` error instead of an answer.

The server keeps every answer it gives in a per-worker answer cache, so
running the example a second time against the same server answers all of
its plans at admission, without a coalescing window or an engine call.

Run standalone (in-process server)::

    PYTHONPATH=src python examples/plan_server.py

or against a separately-booted server (as CI's serve-gate does)::

    PYTHONPATH=src python -m repro serve --unix /tmp/plan.sock &
    PYTHONPATH=src python examples/plan_server.py --connect /tmp/plan.sock
"""

from __future__ import annotations

import argparse
import asyncio
import os
import tempfile
import time

import numpy as np

from repro.costmodel import StepCost
from repro.service import (
    PlanRequest,
    PlanServer,
    PlanServerError,
    PlanService,
    SharedEstimateCache,
    connect_plan_client,
)

N_SERIES = 32


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


def build_workload(n_requests: int) -> list[PlanRequest]:
    """Mixed PL/OL/DD requests over 32 distinct join workloads."""
    series = [calibrated_series(7000 + k, 5 + (k % 2)) for k in range(N_SERIES)]
    schemes = ("PL", "OL", "DD")
    return [
        PlanRequest(
            steps=series[i % N_SERIES],
            scheme=schemes[i % 3],
            delta=0.05,
            request_id=f"q{i:02d}",
        )
        for i in range(n_requests)
    ]


async def drive(path: str, requests: list[PlanRequest]) -> None:
    n_clients = 4
    # Round-robin split so every request is submitted (and verified) even
    # when the count does not divide evenly across the clients.
    slices = [requests[k::n_clients] for k in range(n_clients)]
    # Client 0 announces itself as 'vip'; the server side may weight it.
    clients = await asyncio.gather(
        *(
            connect_plan_client(
                path, client_id="vip" if k == 0 else f"tenant-{k}"
            )
            for k in range(n_clients)
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

        served = [result for batch in batches for result in batch]
        direct = PlanService(cache=SharedEstimateCache()).plan_many(requests)
        by_id = {response.request_id: response for response in direct}
        for result in served:
            reference = by_id[result.response.request_id]
            assert result.response.ratios == reference.ratios
            assert result.response.total_s == reference.total_s
            assert (
                result.response.estimate.cpu_step_s
                == reference.estimate.cpu_step_s
            )
        print(
            f"{len(served)} plans served bit-identical to direct plan_many "
            f"in {elapsed * 1e3:.1f} ms "
            f"({len(served) / elapsed:.0f} requests/s)"
        )

        stats = await clients[0].stats()
        scheduler = stats["scheduler"]
        print(
            f"micro-batching: {scheduler['requests_completed']} requests in "
            f"{scheduler['batches_formed']} plan_many calls "
            f"(mean batch {scheduler['mean_batch_size']:.1f}, "
            f"window {scheduler['window_s'] * 1e3:.1f} ms), "
            f"answered at admission: {scheduler['answered_at_admission']}"
        )

        # A deadline nobody can meet: structured timeout, not an answer.  A
        # question the server already answered would be answered from its
        # answer cache at admission, so the demo asks one nobody asked.
        unasked = PlanRequest(
            steps=calibrated_series(6999, 5), scheme="PL", request_id="deadline-demo"
        )
        try:
            await clients[0].submit(unasked, timeout_s=1e-6)
            print("deadline demo: unexpectedly answered")
        except PlanServerError as exc:
            print(f"deadline demo: structured error code={exc.code!r}")
    finally:
        for client in clients:
            await client.close()


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--connect",
        default=None,
        metavar="PATH",
        help="unix socket of a running server (default: boot one in-process)",
    )
    parser.add_argument("--requests", type=int, default=64)
    args = parser.parse_args()

    requests = build_workload(args.requests)
    if args.connect:
        await drive(args.connect, requests)
        return

    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        path = os.path.join(tmp, "plan.sock")
        server = PlanServer(
            service=PlanService(cache=SharedEstimateCache()),
            window_s=0.005,
            max_batch=64,
            weights={"vip": 4.0},
        )
        await server.start_unix(path)
        try:
            await drive(path, requests)
        finally:
            await server.close()


if __name__ == "__main__":
    asyncio.run(main())
