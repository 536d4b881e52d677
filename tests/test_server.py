"""The serving stack: wire protocol, micro-batching scheduler (fairness,
admission, deadlines) and the asyncio JSON-lines server/client pair.

The load-bearing guarantees pinned here (ISSUE 4):

* served plans are **bit-identical** to direct ``plan_many`` calls — the
  scheduler only changes which requests share a micro-batch, never how a
  task is solved, and the wire format round-trips floats exactly;
* a backlogged weight-1 client cannot starve a weight-4 client;
* a deadline-expired request gets a structured ``deadline-exceeded`` error
  and never touches the shared :class:`EstimateCache`.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import tempfile
import time

import numpy as np
import pytest

from repro.costmodel import StepCost, optimize_scheme
from repro.service import (
    ERROR_ADMISSION,
    ERROR_DEADLINE,
    ERROR_INVALID,
    ERROR_SHUTDOWN,
    ERROR_UNSUPPORTED_VERSION,
    Envelope,
    ErrorReply,
    MicroBatchScheduler,
    PlanClient,
    PlanRequest,
    PlanResult,
    PlanServer,
    PlanServerError,
    PlanService,
    PlanSubmit,
    ProtocolError,
    SchedulerError,
    SharedEstimateCache,
    TokenBucket,
    clear_stale_unix_socket,
    connect_plan_client,
)
from repro.service import protocol
from repro.service.protocol import (
    KIND_ERROR,
    KIND_HELLO,
    KIND_HELLO_OK,
    KIND_PLAN_RESULT,
    negotiate_version,
    response_from_wire,
    response_to_wire,
)


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


def fresh_service() -> PlanService:
    return PlanService(cache=SharedEstimateCache())


def run_with_scheduler(coro_fn, **scheduler_kwargs):
    """Run ``coro_fn(scheduler, service)`` against a started scheduler."""

    async def go():
        service = scheduler_kwargs.pop("service", None) or fresh_service()
        scheduler = MicroBatchScheduler(
            service, use_executor=False, **scheduler_kwargs
        )
        await scheduler.start()
        try:
            return await coro_fn(scheduler, service)
        finally:
            await scheduler.close()

    return asyncio.run(go())


def run_with_server(coro_fn, **server_kwargs):
    """Run ``coro_fn(server, path)`` against a unix-socket server."""

    async def go():
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            path = os.path.join(tmp, "plan.sock")
            server = PlanServer(**server_kwargs)
            await server.start_unix(path)
            try:
                return await coro_fn(server, path)
            finally:
                await server.close()

    return asyncio.run(go())


# ---------------------------------------------------------------------------
# Protocol layer.
# ---------------------------------------------------------------------------
class TestEnvelope:
    def test_json_round_trip(self):
        env = Envelope(kind="hello", payload={"client": "a"}, seq=7)
        clone = Envelope.from_json(env.to_json())
        assert clone == env
        assert clone.version == 1

    def test_bytes_are_one_line(self):
        env = Envelope(kind="x", payload={"s": "multi\nline"})
        raw = env.to_bytes()
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            "[1, 2]",
            '{"payload": {}}',  # no kind
            '{"kind": 3}',
            '{"kind": "x", "v": "one"}',
            '{"kind": "x", "v": true}',
            '{"kind": "x", "seq": "a"}',
            '{"kind": "x", "payload": []}',
        ],
    )
    def test_malformed_envelopes_raise(self, line):
        with pytest.raises(ProtocolError):
            Envelope.from_json(line)

    def test_version_negotiation(self):
        assert negotiate_version(1) == 1
        with pytest.raises(ProtocolError) as excinfo:
            negotiate_version(99)
        assert excinfo.value.code == ERROR_UNSUPPORTED_VERSION


class TestWireFidelity:
    def test_response_round_trips_bit_exactly(self):
        """Wire serialisation must not lose a single bit of any float —
        awkward values (0.1+0.2, tiny subnormals, long descents) included."""
        steps = random_steps(np.random.default_rng(3), 5)
        response = fresh_service().plan(PlanRequest(steps=steps, scheme="PL"))
        # Make the payload deliberately awkward.
        response.ratios[0] = 0.1 + 0.2
        response.estimate.cpu_step_s[1] = 3.141592653589793e-17
        wire = json.loads(json.dumps(response_to_wire(response)))
        clone = response_from_wire(wire)
        assert clone.ratios == response.ratios
        assert clone.estimate.cpu_step_s == response.estimate.cpu_step_s
        assert clone.estimate.gpu_delay_s == response.estimate.gpu_delay_s
        assert clone.total_s == response.total_s
        assert clone.request_id == response.request_id
        assert clone.evaluations == response.evaluations

    # The scalar fields below use values with no short decimal form, so a
    # rounding anywhere on the wire path breaks the ``==`` comparisons.
    def test_result_envelope_round_trip(self):
        steps = random_steps(np.random.default_rng(4), 3)
        response = fresh_service().plan(PlanRequest(steps=steps, scheme="DD"))
        result = PlanResult(response=response, queued_s=0.1 + 0.2, batch_size=8)
        clone = PlanResult.from_envelope(
            Envelope.from_json(result.envelope(seq=3).to_json())
        )
        assert clone.queued_s == result.queued_s
        assert clone.batch_size == 8
        assert clone.response.ratios == response.ratios
        assert clone.response.total_s == response.total_s

    def test_submit_envelope_round_trip(self):
        steps = random_steps(np.random.default_rng(5), 3)
        submit = PlanSubmit(
            request=PlanRequest(
                steps=steps, scheme="OL", delta=0.1 + 0.2, request_id="s1"
            ),
            timeout_s=1 / 3,
        )
        clone = PlanSubmit.from_envelope(
            Envelope.from_json(submit.envelope(seq=1).to_json())
        )
        assert clone.request == submit.request
        assert clone.timeout_s == submit.timeout_s

    def test_submit_rejects_bad_payloads(self):
        steps = random_steps(np.random.default_rng(6), 2)
        good = PlanRequest(steps=steps, scheme="PL").to_dict()
        for payload in (
            {},
            {"request": "nope"},
            {"request": {"scheme": "PL"}},  # WorkloadError -> ProtocolError
            {"request": good, "timeout_s": "fast"},
            {"request": good, "timeout_s": 0.0},
            {"request": good, "timeout_s": -1.0},
        ):
            with pytest.raises(ProtocolError):
                PlanSubmit.from_envelope(Envelope(kind="plan.submit", payload=payload))

    def test_submit_rejects_non_finite_step_costs(self):
        """json.loads accepts NaN, so a wire line whose step costs NaN
        decodes; the request must be refused, not planned at NaN seconds."""
        request = PlanRequest(steps=random_steps(np.random.default_rng(7), 2)).to_dict()
        request["steps"][0]["cpu_unit_s"] = float("nan")
        line = Envelope(kind="plan.submit", payload={"request": request}).to_json()
        assert "NaN" in line
        with pytest.raises(ProtocolError):
            PlanSubmit.from_envelope(Envelope.from_json(line))

    def test_error_reply_round_trip(self):
        error = ErrorReply(
            code=ERROR_DEADLINE,
            message="too slow",
            request_id="q1",
            detail={"queued_s": 1 / 3},
        )
        clone = ErrorReply.from_envelope(
            Envelope.from_json(error.envelope(seq=9).to_json())
        )
        assert clone == error

    def test_error_reply_rejects_bad_payloads(self):
        with pytest.raises(ProtocolError):
            ErrorReply.from_envelope(Envelope(kind=KIND_ERROR, payload={}))
        with pytest.raises(ProtocolError):
            ErrorReply.from_envelope(
                Envelope(kind=KIND_ERROR, payload={"code": "x", "detail": 3})
            )

    def test_result_parse_rejects_bad_payloads(self):
        for payload in (
            {},
            {"plan": 3},
            {"plan": {"ratios": "x", "estimate": {}}},
            {"plan": {"ratios": [0.5], "estimate": {"ratios": [0.5]}}},
        ):
            with pytest.raises(ProtocolError):
                PlanResult.from_envelope(
                    Envelope(kind=KIND_PLAN_RESULT, payload=payload)
                )


class TestErrorTaxonomy:
    def test_every_error_constant_is_classified(self):
        codes = {
            value
            for name, value in vars(protocol).items()
            if name.startswith("ERROR_") and isinstance(value, str)
        }
        assert codes == set(protocol.ERROR_TAXONOMY)
        assert all(type(flag) is bool for flag in protocol.ERROR_TAXONOMY.values())

    def test_envelope_rejects_unregistered_code(self):
        with pytest.raises(ValueError, match="made-up"):
            ErrorReply(code="made-up", message="no such code").envelope()

    def test_unknown_code_from_peer_parses_as_not_retryable(self):
        reply = ErrorReply.from_envelope(
            Envelope(kind=KIND_ERROR, payload={"code": "made-up"})
        )
        assert reply.code == "made-up"
        assert not reply.retryable


# ---------------------------------------------------------------------------
# Scheduler policies.
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_rejects(self):
        clock = lambda: 100.0  # frozen clock: no refill
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert all(bucket.try_acquire() for _ in range(3))
        assert not bucket.try_acquire()

    def test_refills_at_rate(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] = 0.5  # 1 token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_capacity(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: now[0])
        now[0] = 100.0
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_rejects_bad_parameters(self):
        for rate, burst in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
            with pytest.raises(ValueError):
                TokenBucket(rate=rate, burst=burst)


class TestSchedulerBatching:
    def test_window_coalesces_across_clients_into_one_plan_many(self):
        requests = mixed_requests(12, 3, seed=1)

        async def go(scheduler, service):
            results = await asyncio.gather(
                *(
                    scheduler.submit(r, client_id=f"c{i % 4}")
                    for i, r in enumerate(requests)
                )
            )
            return results

        results = run_with_scheduler(go, window_s=0.05, max_batch=64)
        assert all(r.batch_size == 12 for r in results)
        assert {r.response.request_id for r in results} == {
            r.request_id for r in requests
        }

    def test_batched_answers_bit_identical_to_direct_plan_many(self):
        requests = mixed_requests(16, 4, seed=2)

        async def go(scheduler, service):
            return await asyncio.gather(
                *(
                    scheduler.submit(r, client_id=f"c{i % 3}")
                    for i, r in enumerate(requests)
                )
            )

        results = run_with_scheduler(go, window_s=0.02)
        direct = fresh_service().plan_many(requests)
        by_id = {r.request_id: r for r in direct}
        for result in results:
            reference = by_id[result.response.request_id]
            assert result.response.ratios == reference.ratios
            assert result.response.total_s == reference.total_s
            assert result.response.estimate.cpu_step_s == reference.estimate.cpu_step_s
            assert result.response.estimate.gpu_delay_s == reference.estimate.gpu_delay_s

    def test_max_batch_splits_but_answers_everything(self):
        requests = mixed_requests(10, 2, seed=3)

        async def go(scheduler, service):
            return await asyncio.gather(
                *(scheduler.submit(r) for r in requests)
            )

        results = run_with_scheduler(go, window_s=0.02, max_batch=4)
        assert all(r.batch_size <= 4 for r in results)
        assert len(results) == 10

    def test_submit_before_start_is_structured_shutdown(self):
        async def go():
            scheduler = MicroBatchScheduler(fresh_service(), use_executor=False)
            with pytest.raises(SchedulerError) as excinfo:
                await scheduler.submit(mixed_requests(1, 1)[0])
            assert excinfo.value.code == ERROR_SHUTDOWN

        asyncio.run(go())

    def test_close_fails_queued_requests_structurally(self):
        request = mixed_requests(1, 1, seed=4)[0]

        async def go():
            scheduler = MicroBatchScheduler(
                fresh_service(), use_executor=False, window_s=10.0
            )
            await scheduler.start()
            pending = asyncio.get_running_loop().create_task(
                scheduler.submit(request)
            )
            await asyncio.sleep(0.01)  # queued, inside the 10s window
            await scheduler.close()
            with pytest.raises(SchedulerError) as excinfo:
                await pending
            assert excinfo.value.code == ERROR_SHUTDOWN

        asyncio.run(go())

    def test_close_mid_batch_fails_inflight_futures(self):
        """Closing while a batch is inside plan_many must fail that batch's
        awaiters with a structured shutdown error, not hang them forever
        (the futures are already off the queues, so the shutdown drain
        cannot reach them)."""
        request = mixed_requests(1, 1, seed=23)[0]

        async def go():
            service = fresh_service()
            slow_plan_many = service.plan_many

            def stalling_plan_many(batch):
                time.sleep(0.2)  # hold the executor mid-batch
                return slow_plan_many(batch)

            service.plan_many = stalling_plan_many
            scheduler = MicroBatchScheduler(service, window_s=0.0)
            await scheduler.start()
            pending = asyncio.get_running_loop().create_task(
                scheduler.submit(request)
            )
            await asyncio.sleep(0.05)  # batch formed, stuck in the executor
            await scheduler.close()
            with pytest.raises(SchedulerError) as excinfo:
                await asyncio.wait_for(pending, timeout=2.0)
            assert excinfo.value.code == ERROR_SHUTDOWN

        asyncio.run(go())

    def test_rejects_bad_knobs(self):
        service = fresh_service()
        with pytest.raises(ValueError):
            MicroBatchScheduler(service, window_s=-0.1)
        with pytest.raises(ValueError):
            MicroBatchScheduler(service, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(service, default_weight=0.0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(service, admission_rate=-1.0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(service, admission_rate=1.0, admission_burst=0.0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(service, weights={"a": 0.0})
        scheduler = MicroBatchScheduler(service)
        with pytest.raises(ValueError):
            scheduler.set_weight("a", 0.0)


class TestSchedulerFairness:
    def test_weighted_share_within_a_backlogged_batch(self):
        """With both clients backlogged, a weight-4 client takes ~4 slots
        per weight-1 slot in every formed batch."""
        requests = mixed_requests(24, 2, seed=5)

        async def go(scheduler, service):
            jobs = []
            for i in range(12):
                jobs.append(scheduler.submit(requests[i], client_id="light"))
            for i in range(12, 24):
                jobs.append(scheduler.submit(requests[i], client_id="heavy"))
            await asyncio.gather(*jobs)
            return list(scheduler.batch_log)

        log = run_with_scheduler(
            go, window_s=0.05, max_batch=5, weights={"heavy": 4.0}
        )
        first = log[0]
        assert first["heavy"] >= 3 * max(first.get("light", 0), 1)

    def test_flooding_weight1_client_cannot_starve_weight4_client(self):
        """The satellite scenario: a slow weight-1 client floods the queue;
        a weight-4 client arriving later must be served while the flood
        still has backlog, not after it drains."""
        flood = mixed_requests(30, 3, seed=6)
        vip = [
            PlanRequest(steps=r.steps, scheme=r.scheme, request_id=f"vip-{i}")
            for i, r in enumerate(mixed_requests(4, 2, seed=7))
        ]

        async def go(scheduler, service):
            flood_jobs = [
                asyncio.get_running_loop().create_task(
                    scheduler.submit(r, client_id="flood")
                )
                for r in flood
            ]
            await asyncio.sleep(0.06)  # let at least one flood batch form
            vip_jobs = [
                asyncio.get_running_loop().create_task(
                    scheduler.submit(r, client_id="vip")
                )
                for r in vip
            ]
            await asyncio.gather(*flood_jobs, *vip_jobs)
            return list(scheduler.batch_log)

        log = run_with_scheduler(
            go, window_s=0.02, max_batch=4, weights={"vip": 4.0}
        )
        first_vip_batch = next(i for i, c in enumerate(log) if c.get("vip"))
        flood_after_vip = sum(
            c.get("flood", 0) for c in log[first_vip_batch + 1 :]
        )
        # The vip client overtook queued flood requests: flood work was still
        # being served in batches after the vip was answered.
        assert flood_after_vip > 0
        assert first_vip_batch < len(log) - 1

    def test_admission_rejects_flood_with_structured_error(self):
        requests = mixed_requests(6, 1, seed=8)

        async def go(scheduler, service):
            accepted, rejected = 0, 0
            for r in requests:
                try:
                    await scheduler.submit(r, client_id="greedy")
                    accepted += 1
                except SchedulerError as exc:
                    assert exc.code == ERROR_ADMISSION
                    rejected += 1
            return accepted, rejected, scheduler.requests_rejected

        accepted, rejected, counted = run_with_scheduler(
            go, window_s=0.01, admission_rate=0.001, admission_burst=2.0
        )
        assert accepted == 2
        assert rejected == 4
        assert counted == 4

    def test_admission_is_per_client(self):
        requests = mixed_requests(4, 1, seed=9)

        async def go(scheduler, service):
            a = asyncio.get_running_loop().create_task(
                scheduler.submit(requests[0], client_id="a")
            )
            b = asyncio.get_running_loop().create_task(
                scheduler.submit(requests[1], client_id="b")
            )
            await asyncio.gather(a, b)
            return scheduler.requests_rejected

        rejected = run_with_scheduler(
            go, window_s=0.01, admission_rate=0.001, admission_burst=1.0
        )
        assert rejected == 0


class TestSchedulerDeadlines:
    def test_expired_request_gets_structured_timeout(self):
        request = mixed_requests(1, 1, seed=10)[0]

        async def go(scheduler, service):
            with pytest.raises(SchedulerError) as excinfo:
                # The deadline (1 ms) expires inside the 50 ms window.
                await scheduler.submit(request, timeout_s=0.001)
            assert excinfo.value.code == ERROR_DEADLINE
            assert request.request_id in str(excinfo.value)
            return scheduler.requests_timed_out

        timed_out = run_with_scheduler(go, window_s=0.05)
        assert timed_out == 1

    def test_timeout_does_not_poison_shared_cache(self):
        """An expired request never reaches plan_many: the shared cache sees
        zero lookups and zero inserts, and the identical question asked
        again afterwards is answered correctly from a clean slate."""
        request = mixed_requests(1, 1, seed=11)[0]

        async def go(scheduler, service):
            cache = service.cache
            with pytest.raises(SchedulerError):
                await scheduler.submit(request, timeout_s=0.001)
            assert cache.hits == 0
            assert cache.misses == 0
            assert len(cache) == 0
            # The same question, now with time to answer.
            result = await scheduler.submit(request, timeout_s=30.0)
            reference = optimize_scheme(
                request.scheme, list(request.steps), request.delta
            )
            assert result.response.ratios == reference.ratios
            assert result.response.total_s == reference.total_s
            assert cache.misses > 0

        run_with_scheduler(go, window_s=0.05)

    def test_default_timeout_applies_when_submit_has_none(self):
        request = mixed_requests(1, 1, seed=12)[0]

        async def go(scheduler, service):
            with pytest.raises(SchedulerError) as excinfo:
                await scheduler.submit(request)
            assert excinfo.value.code == ERROR_DEADLINE

        run_with_scheduler(go, window_s=0.05, default_timeout_s=0.001)

    def test_mixed_expiry_answers_the_survivors(self):
        requests = mixed_requests(6, 2, seed=13)

        async def go(scheduler, service):
            doomed = [
                asyncio.get_running_loop().create_task(
                    scheduler.submit(r, timeout_s=0.001)
                )
                for r in requests[:3]
            ]
            alive = [
                asyncio.get_running_loop().create_task(scheduler.submit(r))
                for r in requests[3:]
            ]
            done = await asyncio.gather(*doomed, *alive, return_exceptions=True)
            return done

        done = run_with_scheduler(go, window_s=0.05)
        for outcome in done[:3]:
            assert isinstance(outcome, SchedulerError)
            assert outcome.code == ERROR_DEADLINE
        direct = fresh_service().plan_many(requests[3:])
        for outcome, reference in zip(done[3:], direct):
            assert isinstance(outcome, PlanResult)
            assert outcome.response.ratios == reference.ratios
            assert outcome.response.total_s == reference.total_s


class CountingService(PlanService):
    """A service that records the size of every ``plan_many`` call."""

    def __init__(self) -> None:
        super().__init__(cache=SharedEstimateCache())
        self.calls: list[int] = []

    def plan_many(self, requests):
        batch = list(requests)
        self.calls.append(len(batch))
        return super().plan_many(batch)


class TestAdmissionAnswers:
    """A question the service already knows is answered at admission."""

    def test_known_question_skips_the_window(self):
        request = mixed_requests(1, 1, seed=26)[0]
        service = CountingService()

        async def go(scheduler, service):
            first = await scheduler.submit(request, client_id="a")
            again = await scheduler.submit(request, client_id="a")
            return first, again, scheduler.stats()

        first, again, stats = run_with_scheduler(go, window_s=0.5, service=service)
        assert first.queued_s >= 0.5
        assert again.queued_s < 0.1
        assert again.batch_size == 1
        want = PlanService(cache=SharedEstimateCache()).plan_many([request])[0]
        assert again.response.request_id == want.request_id
        assert again.response.ratios == want.ratios
        assert again.response.estimate == want.estimate
        assert again.response.evaluations == 0
        # The answer went through plan_many, as a one-request call.
        assert service.calls == [1, 1]
        assert stats["answered_at_admission"] == 1
        assert stats["requests_submitted"] == stats["requests_completed"] == 2
        assert stats["batches_formed"] == stats["batched_requests"] == 1
        assert stats["service"]["answers"]["hits"] == 1

    def test_over_rate_client_is_rejected_even_for_a_known_question(self):
        request = mixed_requests(1, 1, seed=27)[0]

        async def go(scheduler, service):
            await scheduler.submit(request, client_id="greedy")
            assert service.has_answer(request)
            with pytest.raises(SchedulerError) as excinfo:
                await scheduler.submit(request, client_id="greedy")
            assert excinfo.value.code == ERROR_ADMISSION
            # Another client with tokens left gets the known answer.
            result = await scheduler.submit(request, client_id="patient")
            return result, scheduler.stats()

        result, stats = run_with_scheduler(
            go, window_s=0.01, admission_rate=0.001, admission_burst=1.0
        )
        assert result.batch_size == 1
        assert stats["requests_rejected"] == 1
        assert stats["answered_at_admission"] == 1

    def test_stats_count_admission_answers_over_the_wire(self):
        requests = mixed_requests(6, 2, seed=28)

        async def go(server, path):
            client = await connect_plan_client(path, client_id="again")
            try:
                first = await client.plan_many(requests)
                again = await client.plan_many(requests)
                stats = await client.stats()
            finally:
                await client.close()
            return first, again, stats

        first, again, stats = run_with_server(
            go, service=fresh_service(), window_s=0.02
        )
        for a, b in zip(first, again):
            assert b.batch_size == 1
            assert b.response.ratios == a.response.ratios
            assert b.response.estimate == a.response.estimate
        scheduler = stats["scheduler"]
        assert scheduler["answered_at_admission"] == len(requests)
        assert scheduler["requests_completed"] == 2 * len(requests)
        assert scheduler["batched_requests"] == len(requests)
        assert scheduler["service"]["answers"]["hits"] == len(requests)


# ---------------------------------------------------------------------------
# Server + client over real sockets.
# ---------------------------------------------------------------------------
class TestPlanServer:
    def test_concurrent_clients_bit_identical_to_serial_plan_many(self):
        """The acceptance property: N concurrent asyncio clients, answers
        byte-for-byte equal to one serial plan_many over the same workload."""
        requests = mixed_requests(24, 6, seed=16)

        async def go(server, path):
            clients = await asyncio.gather(
                *(
                    connect_plan_client(path, client_id=f"client-{k}")
                    for k in range(4)
                )
            )
            try:
                batches = await asyncio.gather(
                    *(
                        client.plan_many(requests[k * 6 : (k + 1) * 6])
                        for k, client in enumerate(clients)
                    )
                )
            finally:
                for client in clients:
                    await client.close()
            return [result for batch in batches for result in batch]

        results = run_with_server(
            go, service=fresh_service(), window_s=0.02, max_batch=64
        )
        direct = fresh_service().plan_many(requests)
        by_id = {r.request_id: r for r in direct}
        assert len(results) == len(requests)
        for result in results:
            reference = by_id[result.response.request_id]
            assert result.response.ratios == reference.ratios
            assert result.response.total_s == reference.total_s
            assert result.response.estimate.cpu_step_s == reference.estimate.cpu_step_s
            assert result.response.estimate.cpu_delay_s == reference.estimate.cpu_delay_s
            assert result.response.estimate.gpu_step_s == reference.estimate.gpu_step_s
            assert result.response.estimate.gpu_delay_s == reference.estimate.gpu_delay_s

    def test_cross_connection_coalescing(self):
        requests = mixed_requests(8, 2, seed=17)

        async def go(server, path):
            c1 = await connect_plan_client(path, client_id="a")
            c2 = await connect_plan_client(path, client_id="b")
            try:
                r1, r2 = await asyncio.gather(
                    c1.plan_many(requests[:4]), c2.plan_many(requests[4:])
                )
            finally:
                await c1.close()
                await c2.close()
            return r1 + r2

        results = run_with_server(go, service=fresh_service(), window_s=0.05)
        # All 8 requests from both connections landed in one micro-batch.
        assert all(r.batch_size == 8 for r in results)

    def test_deadline_over_the_wire(self):
        request = mixed_requests(1, 1, seed=18)[0]

        async def go(server, path):
            client = await connect_plan_client(path)
            try:
                with pytest.raises(PlanServerError) as excinfo:
                    await client.submit(request, timeout_s=0.001)
                assert excinfo.value.code == ERROR_DEADLINE
                assert excinfo.value.request_id == request.request_id
                # The connection survives and still answers.
                result = await client.submit(request)
                reference = optimize_scheme(
                    request.scheme, list(request.steps), request.delta
                )
                assert result.response.ratios == reference.ratios
            finally:
                await client.close()

        run_with_server(go, service=fresh_service(), window_s=0.03)

    def test_unsupported_version_is_structured_not_fatal(self):
        async def go(server, path):
            with pytest.raises(PlanServerError) as excinfo:
                await connect_plan_client(path, version=99)
            assert excinfo.value.code == ERROR_UNSUPPORTED_VERSION
            # A well-versioned client on the same server still works.
            client = await connect_plan_client(path)
            try:
                hello = await client.stats()
                assert "scheduler" in hello
            finally:
                await client.close()

        run_with_server(go, service=fresh_service(), window_s=0.0)

    def test_malformed_lines_get_error_replies_and_connection_survives(self):
        async def go(server, path):
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = Envelope.from_json(await reader.readline())
                assert reply.kind == KIND_ERROR
                assert ErrorReply.from_envelope(reply).code == ERROR_INVALID

                writer.write(b'{"kind": "plan.submit", "seq": 4, "payload": {}}\n')
                await writer.drain()
                reply = Envelope.from_json(await reader.readline())
                assert reply.kind == KIND_ERROR
                assert reply.seq == 4

                writer.write(b'{"kind": "no.such.kind", "seq": 5, "payload": {}}\n')
                await writer.drain()
                reply = Envelope.from_json(await reader.readline())
                assert ErrorReply.from_envelope(reply).code == ERROR_INVALID

                writer.write(
                    Envelope(kind=KIND_HELLO, payload={"client": "x"}, seq=6).to_bytes()
                )
                await writer.drain()
                reply = Envelope.from_json(await reader.readline())
                assert reply.kind == KIND_HELLO_OK
                assert reply.seq == 6
                assert reply.payload["client"] == "x"
            finally:
                writer.close()
                await writer.wait_closed()

        run_with_server(go, service=fresh_service(), window_s=0.0)

    def test_hello_identity_feeds_fairness_weights(self):
        """Two connections announcing the same client id share one fairness
        identity — their submissions bill the same weight account."""
        requests = mixed_requests(8, 2, seed=19)

        async def go(server, path):
            c1 = await connect_plan_client(path, client_id="tenant")
            c2 = await connect_plan_client(path, client_id="tenant")
            try:
                await asyncio.gather(
                    c1.plan_many(requests[:4]), c2.plan_many(requests[4:])
                )
            finally:
                await c1.close()
                await c2.close()
            return list(server.scheduler.batch_log)

        log = run_with_server(go, service=fresh_service(), window_s=0.05)
        assert sum(counter.get("tenant", 0) for counter in log) == 8

    def test_tcp_transport(self):
        requests = mixed_requests(4, 2, seed=20)

        async def go():
            server = PlanServer(service=fresh_service(), window_s=0.01)
            await server.start_tcp("127.0.0.1", 0)
            assert server.tcp_address is not None
            host, port = server.tcp_address
            try:
                client = await connect_plan_client(
                    host=host, port=port, client_id="tcp"
                )
                try:
                    results = await client.plan_many(requests)
                finally:
                    await client.close()
            finally:
                await server.close()
            return results

        results = asyncio.run(go())
        direct = fresh_service().plan_many(requests)
        for result, reference in zip(results, direct):
            assert result.response.ratios == reference.ratios
            assert result.response.total_s == reference.total_s

    def test_stats_endpoint_reports_batching(self):
        requests = mixed_requests(6, 2, seed=21)

        async def go(server, path):
            client = await connect_plan_client(path, client_id="obs")
            try:
                await client.plan_many(requests)
                stats = await client.stats()
            finally:
                await client.close()
            return stats

        stats = run_with_server(go, service=fresh_service(), window_s=0.02)
        scheduler = stats["scheduler"]
        assert scheduler["requests_completed"] == 6
        assert scheduler["batches_formed"] >= 1
        assert scheduler["mean_batch_size"] > 1.0
        assert scheduler["service"]["requests_served"] == 6
        assert stats["connections_served"] == 1

    def test_admission_over_the_wire(self):
        requests = mixed_requests(4, 1, seed=22)

        async def go(server, path):
            client = await connect_plan_client(path, client_id="greedy")
            outcomes = []
            try:
                for request in requests:
                    try:
                        outcomes.append(await client.submit(request))
                    except PlanServerError as exc:
                        outcomes.append(exc)
            finally:
                await client.close()
            return outcomes

        outcomes = run_with_server(
            go,
            service=fresh_service(),
            window_s=0.0,
            admission_rate=0.001,
            admission_burst=2.0,
        )
        assert isinstance(outcomes[0], PlanResult)
        assert isinstance(outcomes[1], PlanResult)
        for outcome in outcomes[2:]:
            assert isinstance(outcome, PlanServerError)
            assert outcome.code == ERROR_ADMISSION

    def test_close_drops_active_connections(self):
        """A closed server must stop serving already-connected clients, not
        only refuse new ones."""

        async def go(server, path):
            client = await connect_plan_client(path, client_id="lingerer")
            await client.stats()  # alive before close
            await server.close()
            with pytest.raises((PlanServerError, ConnectionError, OSError)):
                await asyncio.wait_for(client.stats(), timeout=2.0)
            await client.close()

        run_with_server(go, service=fresh_service(), window_s=0.0)

    def test_client_submit_after_connection_loss_raises(self):
        """Once the read loop is dead, a new submit must raise immediately —
        a write on the half-open socket can still succeed, and a future
        registered after the loop exited would never resolve."""
        request = mixed_requests(1, 1, seed=24)[0]

        async def go(server, path):
            client = await connect_plan_client(path)
            await server.close()
            await asyncio.sleep(0.05)  # let the client observe the EOF
            with pytest.raises((PlanServerError, ConnectionError, OSError)):
                await asyncio.wait_for(client.submit(request), timeout=2.0)
            await client.close()

        run_with_server(go, service=fresh_service(), window_s=0.0)

    def test_idle_client_state_is_pruned(self):
        """Per-client queues/tags/buckets are caller-named and must not
        accumulate forever on a long-lived server."""
        requests = mixed_requests(12, 2, seed=25)

        async def go(scheduler, service):
            for i, request in enumerate(requests):
                await scheduler.submit(request, client_id=f"ephemeral-{i}")
            return (
                len(scheduler._queues),
                len(scheduler._finish_tags),
                len(scheduler._buckets),
            )

        queues, tags, buckets = run_with_scheduler(
            go, window_s=0.0, admission_rate=1e9, admission_burst=1e9
        )
        assert queues == 0
        assert tags == 0
        assert buckets == 0

    def test_nan_knobs_rejected(self):
        service = fresh_service()
        nan = float("nan")
        for kwargs in (
            {"window_s": nan},
            {"default_weight": nan},
            {"weights": {"a": nan}},
            {"admission_rate": nan},
            {"admission_rate": 1.0, "admission_burst": nan},
            {"admission_burst": 2.0},  # burst without rate
            {"default_timeout_s": nan},
        ):
            with pytest.raises(ValueError):
                MicroBatchScheduler(service, **kwargs)
        with pytest.raises(ProtocolError):
            PlanSubmit.from_envelope(
                Envelope(
                    kind="plan.submit",
                    payload={
                        "request": mixed_requests(1, 1)[0].to_dict(),
                        "timeout_s": nan,
                    },
                )
            )

    def test_server_rejects_conflicting_construction(self):
        scheduler = MicroBatchScheduler(fresh_service())
        with pytest.raises(ValueError):
            PlanServer(scheduler=scheduler, window_s=0.5)

    def test_connect_requires_exactly_one_endpoint(self):
        async def go():
            with pytest.raises(ValueError):
                await connect_plan_client()
            with pytest.raises(ValueError):
                await connect_plan_client("/tmp/x.sock", host="h", port=1)

        asyncio.run(go())


class _DyingWriter:
    """Stream-writer stand-in whose ``drain`` outlives the connection: it
    hits the reader with EOF, lets the client's read loop fail every
    pending future, and only then raises the transport error."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        self._reader.feed_eof()
        for _ in range(5):
            await asyncio.sleep(0)
        raise ConnectionResetError("connection reset during drain")


class TestClientFutureHygiene:
    def test_connection_lost_during_drain_leaves_no_unretrieved_future(self):
        """Regression: the read loop failed the request's future while the
        request sat in ``drain()``; the write error then skipped the future
        and asyncio logged "Future exception was never retrieved"."""

        async def go():
            loop = asyncio.get_running_loop()
            contexts = []
            loop.set_exception_handler(lambda _loop, ctx: contexts.append(ctx))
            reader = asyncio.StreamReader()
            client = PlanClient(reader, _DyingWriter(reader))
            await client._start()
            with pytest.raises(ConnectionResetError):
                await client.submit(mixed_requests(1, 1)[0])
            await asyncio.sleep(0)
            gc.collect()
            return [str(ctx.get("message")) for ctx in contexts]

        messages = asyncio.run(go())
        assert not [m for m in messages if "never retrieved" in m], messages


# ---------------------------------------------------------------------------
# Stale unix socket files (ISSUE 7 satellite: restart after crash).
# ---------------------------------------------------------------------------
class TestStaleUnixSocket:
    """A server killed with SIGKILL leaves its socket file behind; the next
    start on the same path must reclaim it — but never steal a live
    listener's socket, and never unlink a non-socket file."""

    def test_restart_after_crash_reclaims_the_socket(self):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            path = os.path.join(tmp, "plan.sock")
            # Simulate the crash: bind, then die without unlinking.
            corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            corpse.bind(path)
            corpse.close()
            assert os.path.exists(path)

            async def go():
                server = PlanServer(service=fresh_service())
                await server.start_unix(path)  # would EADDRINUSE before the fix
                try:
                    client = await connect_plan_client(path)
                    result = await client.submit(mixed_requests(1, 1, seed=31)[0])
                    await client.close()
                    return result
                finally:
                    await server.close()

            result = asyncio.run(go())
            assert result.response.request_id == "q00"
            assert not os.path.exists(path)  # close() unlinked it

    def test_probe_unlinks_only_dead_sockets(self):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            path = os.path.join(tmp, "plan.sock")
            assert clear_stale_unix_socket(path) is False  # nothing there
            corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            corpse.bind(path)
            corpse.close()
            assert clear_stale_unix_socket(path) is True
            assert not os.path.exists(path)

    def test_live_listener_is_not_stolen(self):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            path = os.path.join(tmp, "plan.sock")

            async def go():
                server = PlanServer(service=fresh_service())
                await server.start_unix(path)
                try:
                    # The probe connects, sees a live server, leaves the
                    # file alone; a second bind still fails loudly.
                    assert clear_stale_unix_socket(path) is False
                    assert os.path.exists(path)
                    second = PlanServer(service=fresh_service())
                    with pytest.raises(OSError):
                        await second.start_unix(path)
                finally:
                    await server.close()

            asyncio.run(go())

    def test_non_socket_file_is_never_unlinked(self):
        with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
            path = os.path.join(tmp, "plan.sock")
            with open(path, "w") as fh:
                fh.write("precious data, not a socket")
            assert clear_stale_unix_socket(path) is False
            assert os.path.exists(path)

            async def go():
                server = PlanServer(service=fresh_service())
                with pytest.raises(OSError):
                    await server.start_unix(path)

            asyncio.run(go())
            with open(path) as fh:
                assert fh.read() == "precious data, not a socket"
