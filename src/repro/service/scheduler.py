"""Micro-batching scheduler with per-client fairness (ISSUE 4 tentpole).

The serving stack's throughput comes from one property of the engine: a
single ``plan_many`` call over N requests costs roughly one
vectorized pass per *round*, not per request.  :class:`MicroBatchScheduler`
therefore never forwards requests one at a time — it coalesces everything
arriving within a configurable window (across all clients) into one
``plan_many`` micro-batch, and layers three serving policies on top:

* **weighted fair queuing** — every admitted request is tagged with a
  start-time-fair-queuing virtual finish time (``start = max(global vtime,
  client's last finish)``, ``finish = start + 1/weight``) and batches are
  formed in increasing tag order, so a backlogged weight-1 client cannot
  starve a weight-4 client: the heavier client gets ~4 batch slots for
  every 1 the light one gets while both have work queued;
* **token-bucket admission control** — per-client buckets (``rate`` tokens
  per second, ``burst`` capacity) reject floods *at submission time* with a
  structured ``admission-rejected`` error instead of letting them queue;
* **deadlines** — a request carries a relative timeout; if it is still
  queued when the deadline passes it is answered with a structured
  ``deadline-exceeded`` error and never reaches ``plan_many`` (so an
  expired request costs the shared :class:`EstimateCache` nothing).

A question the service has answered before skips all of that queueing: once
it passes admission control, :meth:`MicroBatchScheduler.submit` answers it at
once through ``plan_many([request])`` on the event loop, out of the
service's answer cache.  Such an answer waits out no coalescing window and
makes no executor hop.  It never queues, so no deadline can expire it, it is
charged no fairness tag, and the per-batch ``scheduler.dispatch`` fault site
does not fire for it.

The scheduler is transport-agnostic: :class:`~repro.service.server.PlanServer`
drives it from socket connections, tests and examples drive it directly with
:meth:`submit`.  Evaluation runs in a thread-pool executor by default so the
event loop keeps accepting (and coalescing) submissions while a batch
computes; answers are bit-identical to direct ``plan_many`` calls because the
scheduler only ever changes *which requests share a batch*, never how a task
is solved.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import faults
from .api import PlanRequest
from .protocol import (
    ERROR_ADMISSION,
    ERROR_DEADLINE,
    ERROR_INTERNAL,
    ERROR_SHUTDOWN,
    PlanResult,
)
from .service import PlanService

__all__ = ["MicroBatchScheduler", "SchedulerError", "TokenBucket"]


class SchedulerError(Exception):
    """A structured scheduling failure (maps 1:1 onto an ``error`` reply)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class TokenBucket:
    """Per-client admission control: ``rate`` tokens/s, ``burst`` capacity.

    The bucket starts full, refills continuously and never exceeds its
    capacity, so a client may burst up to ``burst`` requests instantly but
    sustains only ``rate`` requests per second.
    """

    def __init__(
        self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        # Explicit isfinite: NaN slips through a plain `<= 0` check and
        # would make every `tokens >= n` comparison False (reject all).
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError("token bucket rate must be positive and finite")
        if not (math.isfinite(burst) and burst > 0.0):
            raise ValueError("token bucket burst must be positive and finite")
        self.rate = float(rate)
        self.capacity = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; returns False (rejecting) otherwise."""
        now = self._clock()
        self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False

    def is_full(self) -> bool:
        """True when the bucket has refilled to capacity.

        A full bucket is indistinguishable from a freshly created one, so
        its owner's admission state can be dropped without changing any
        future decision.
        """
        now = self._clock()
        self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
        self._last = now
        return self.tokens >= self.capacity


@dataclass
class _Pending:
    """One queued request with its fairness tag and deadline."""

    request: PlanRequest
    client: str
    future: "asyncio.Future[PlanResult]"
    enqueued_at: float
    #: Absolute monotonic deadline, or None for no limit.
    deadline: float | None
    #: Start-time-fair-queuing virtual finish tag; batches form in tag order.
    vtime: float
    seq: int = field(default=0)


class MicroBatchScheduler:
    """Coalesce concurrent plan submissions into fair ``plan_many`` batches.

    Parameters
    ----------
    service:
        The :class:`PlanService` evaluating the batches (default: a fresh
        mixed-strategy service on the process-wide shared cache).
    window_s:
        Coalescing window: after a submission wakes an idle scheduler, it
        waits this long for more requests (from any client) before forming
        the batch.  ``0.0`` disables coalescing.
    max_batch:
        Hard cap on requests per ``plan_many`` call; ``max_batch=1`` with
        ``window_s=0.0`` degenerates to the naive one-request-per-call
        server the benchmark gate measures against.
    default_weight / weights:
        Fair-queuing weights; a weight-``w`` client gets ``w`` batch slots
        per slot of a weight-1 client while both are backlogged.
    admission_rate / admission_burst:
        Token-bucket admission per client; ``None`` disables admission
        control.
    admission_controller:
        Externalised admission: a callable mapping a client id to an
        admit/reject decision, replacing the in-process token buckets.
        The pre-fork worker pool injects its admission store's shared
        bucket here so admission holds fleet-wide (every worker debits the
        same bucket), not per process.  It may block (e.g. on SQLite) —
        the scheduler calls it through the loop's thread-pool executor.
    default_timeout_s:
        Deadline applied to submissions that do not carry their own.
    use_executor:
        Evaluate batches in the event loop's thread-pool executor (default)
        so submissions keep landing — and coalescing — while a batch
        computes.  Disable for single-threaded determinism in tests.
    """

    def __init__(
        self,
        service: PlanService | None = None,
        *,
        window_s: float = 0.002,
        max_batch: int = 64,
        default_weight: float = 1.0,
        weights: dict[str, float] | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        admission_controller: Callable[[str], bool] | None = None,
        default_timeout_s: float | None = None,
        use_executor: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # All numeric knobs are validated with isfinite: NaN passes plain
        # `<= 0` checks and silently voids the policy it configures (NaN
        # finish tags make the fairness heap order arbitrary; a NaN-rate
        # bucket rejects every request).
        if not (math.isfinite(window_s) and window_s >= 0.0):
            raise ValueError("window_s must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if not (math.isfinite(default_weight) and default_weight > 0.0):
            raise ValueError("default_weight must be positive")
        if admission_rate is not None and not (
            math.isfinite(admission_rate) and admission_rate > 0.0
        ):
            raise ValueError("admission_rate must be positive and finite")
        if admission_controller is not None and admission_rate is not None:
            raise ValueError(
                "pass either admission_controller (shared admission state) "
                "or admission_rate (in-process token buckets), not both"
            )
        if admission_burst is not None:
            if admission_rate is None:
                raise ValueError("admission_burst requires admission_rate")
            if not (math.isfinite(admission_burst) and admission_burst > 0.0):
                raise ValueError("admission_burst must be positive and finite")
        if not all(
            math.isfinite(weight) and weight > 0.0
            for weight in (weights or {}).values()
        ):
            raise ValueError("fair-queuing weights must be positive and finite")
        if default_timeout_s is not None and not (
            math.isfinite(default_timeout_s) and default_timeout_s > 0.0
        ):
            raise ValueError("default_timeout_s must be positive and finite")
        self.service = service if service is not None else PlanService()
        self.window_s = window_s
        self.max_batch = max_batch
        self.default_weight = default_weight
        self.weights: dict[str, float] = dict(weights or {})
        self.admission_rate = admission_rate
        self.admission_burst = admission_burst
        self._admission_controller = admission_controller
        self.default_timeout_s = default_timeout_s
        self.use_executor = use_executor
        self._clock = clock

        self._queues: dict[str, deque[_Pending]] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._finish_tags: dict[str, float] = {}
        self._vtime = 0.0
        self._seq = 0
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False

        self.requests_submitted = 0
        self.requests_completed = 0
        self.requests_rejected = 0
        self.requests_timed_out = 0
        #: Known questions answered at admission, without queueing.
        self.answered_at_admission = 0
        self.batches_formed = 0
        self.batched_requests = 0
        #: Per-batch client composition (``Counter`` per formed batch), the
        #: observable the fairness tests pin down.  Bounded to the most
        #: recent 1024 batches so a long-lived server does not leak.
        self.batch_log: deque[Counter] = deque(maxlen=1024)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the batching loop on the running event loop."""
        if self._task is not None:
            return
        self._closed = False
        self._wakeup = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Stop the loop; queued requests fail with ``server-shutdown``."""
        self._closed = True
        if self._task is not None:
            task, self._task = self._task, None
            if self._wakeup is not None:
                self._wakeup.set()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        abandoned: list[_Pending] = []
        for queue in self._queues.values():
            abandoned.extend(queue)
            queue.clear()
        self._queues.clear()
        for pending in abandoned:
            if not pending.future.done():
                pending.future.set_exception(
                    SchedulerError(ERROR_SHUTDOWN, "scheduler closed")
                )
                # Mark the exception retrieved: the awaiting submit may
                # itself have been cancelled by the shutdown, and an
                # orphaned future must not log a spurious traceback.
                pending.future.exception()

    def set_weight(self, client: str, weight: float) -> None:
        """Set one client's fair-queuing weight (takes effect on new submits)."""
        if not (math.isfinite(weight) and weight > 0.0):
            raise ValueError("weight must be positive and finite")
        self.weights[client] = weight

    # ------------------------------------------------------------------
    async def submit(
        self,
        request: PlanRequest,
        client_id: str = "",
        timeout_s: float | None = None,
    ) -> PlanResult:
        """Queue one request and await its micro-batched answer.

        A request the service already knows the answer to is answered right
        after admission control instead (``batch_size`` 1, ``queued_s`` from
        admission to answer): it never queues, so ``timeout_s`` cannot
        expire it and it is charged no fairness tag.

        Raises :class:`SchedulerError` with a structured code on admission
        rejection, deadline expiry or shutdown.
        """
        if self._task is None or self._closed:
            raise SchedulerError(ERROR_SHUTDOWN, "scheduler is not running")
        client = client_id or "anonymous"
        if self._admission_controller is not None:
            # Shared (fleet-wide) admission may hit disk: keep it off the
            # event loop.  Re-check liveness afterwards — the scheduler can
            # close while the decision is in flight.
            admitted = await asyncio.get_running_loop().run_in_executor(
                None, self._admission_controller, client
            )
            if self._task is None or self._closed:
                raise SchedulerError(ERROR_SHUTDOWN, "scheduler is not running")
            if not admitted:
                self.requests_rejected += 1
                raise SchedulerError(
                    ERROR_ADMISSION,
                    f"client {client!r} rejected by shared admission control; "
                    "retry later",
                )
        elif self.admission_rate is not None:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = TokenBucket(
                    self.admission_rate,
                    self.admission_burst or self.admission_rate,
                    clock=self._clock,
                )
            if not bucket.try_acquire():
                self.requests_rejected += 1
                raise SchedulerError(
                    ERROR_ADMISSION,
                    f"client {client!r} exceeded {self.admission_rate:g} "
                    "requests/s; retry later",
                )

        now = self._clock()
        if self.service.has_answer(request):
            return self._answer_at_admission(request, now)
        timeout = timeout_s if timeout_s is not None else self.default_timeout_s
        weight = self.weights.get(client, self.default_weight)
        start = max(self._vtime, self._finish_tags.get(client, 0.0))
        finish = start + 1.0 / weight
        self._finish_tags[client] = finish
        self._seq += 1
        pending = _Pending(
            request=request,
            client=client,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline=None if timeout is None else now + timeout,
            vtime=finish,
            seq=self._seq,
        )
        self._queues.setdefault(client, deque()).append(pending)
        self.requests_submitted += 1
        assert self._wakeup is not None
        self._wakeup.set()
        return await pending.future

    def _answer_at_admission(
        self, request: PlanRequest, admitted_at: float
    ) -> PlanResult:
        """Answer a known question on the event loop, out of the answer cache.

        It goes through ``plan_many`` like any batch, but forms no batch:
        it counts in neither ``batches_formed`` nor ``batch_log``, and the
        ``scheduler.dispatch`` fault site does not fire for it.
        """
        self.requests_submitted += 1
        response = self.service.plan_many([request])[0]
        queued_s = self._clock() - admitted_at
        self.requests_completed += 1
        self.answered_at_admission += 1
        # Only batch formation prunes otherwise; a server answering nothing
        # but known questions would keep every client's bucket forever.
        self._prune()
        return PlanResult(response=response, queued_s=queued_s, batch_size=1)

    # ------------------------------------------------------------------
    def _has_pending(self) -> bool:
        return any(self._queues.values())

    def _expire(self, now: float) -> None:
        """Fail every queued request whose deadline has passed.

        Expired requests never reach ``plan_many``: the shared cache sees no
        lookup, no insert — a timed-out question costs it nothing.
        """
        for queue in self._queues.values():
            alive: deque[_Pending] = deque()
            while queue:
                pending = queue.popleft()
                if pending.deadline is not None and now > pending.deadline:
                    self.requests_timed_out += 1
                    if not pending.future.done():
                        pending.future.set_exception(
                            SchedulerError(
                                ERROR_DEADLINE,
                                f"request {pending.request.request_id!r} "
                                f"missed its deadline after "
                                f"{now - pending.enqueued_at:.3f}s queued",
                            )
                        )
                else:
                    alive.append(pending)
            queue.extend(alive)

    def _form_batch(self, now: float) -> list[_Pending]:
        """Up to ``max_batch`` queued requests in fair virtual-time order.

        Per-client queues are FIFO and tags within a client increase, so a
        heap over the queue heads yields the globally tag-ordered merge.
        The global virtual time advances to the last dispatched tag, which
        is what lets a client that was idle jump ahead of a backlogged
        flood (its next start tag is ``max(vtime, own finish)``).
        """
        self._expire(now)
        heads = [
            (queue[0].vtime, queue[0].seq, client)
            for client, queue in self._queues.items()
            if queue
        ]
        heapq.heapify(heads)
        batch: list[_Pending] = []
        while heads and len(batch) < self.max_batch:
            _, _, client = heapq.heappop(heads)
            queue = self._queues[client]
            pending = queue.popleft()
            batch.append(pending)
            self._vtime = max(self._vtime, pending.vtime)
            if queue:
                heapq.heappush(heads, (queue[0].vtime, queue[0].seq, client))
        self._prune()
        return batch

    def _prune(self) -> None:
        """Drop per-client state that no longer influences any decision.

        Client identities are caller-supplied (hello handshake, or a fresh
        ``conn-N`` per anonymous connection), so on a long-lived server the
        per-client dicts would otherwise grow without bound.  Everything
        removed here is semantically inert: empty queues, finish tags
        already dominated by the global virtual time (``start = max(vtime,
        finish)`` yields the same tag with or without the entry), and
        admission buckets that have refilled to capacity.
        """
        for client in [c for c, queue in self._queues.items() if not queue]:
            del self._queues[client]
        for client in [
            c
            for c, finish in self._finish_tags.items()
            if finish <= self._vtime and c not in self._queues
        ]:
            del self._finish_tags[client]
        for client in [
            c
            for c, bucket in self._buckets.items()
            if c not in self._queues and bucket.is_full()
        ]:
            del self._buckets[client]

    async def _run(self) -> None:
        assert self._wakeup is not None
        while True:
            if not self._has_pending():
                self._wakeup.clear()
                await self._wakeup.wait()
            if self.window_s > 0.0:
                # The coalescing window: let concurrent clients' submissions
                # land before the batch is cut.
                await asyncio.sleep(self.window_s)
            else:
                # Yield once so submissions already scheduled on the loop
                # (e.g. pipelined lines from one connection) join the batch.
                await asyncio.sleep(0)
            batch = self._form_batch(self._clock())
            if not batch:
                continue
            await self._dispatch(batch)

    async def _dispatch(self, batch: list[_Pending]) -> None:
        requests = [pending.request for pending in batch]
        # Fault-injection site: slow batches (a GC pause, a cold cache, a
        # noisy neighbour) are *stretched time*, not failures — an async
        # sleep so the event loop keeps serving other connections, exactly
        # like a genuinely slow evaluation under use_executor.
        delay_s = faults.latency("scheduler.dispatch")
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        try:
            if self.use_executor:
                responses = await asyncio.get_running_loop().run_in_executor(
                    None, self.service.plan_many, requests
                )
            else:
                responses = self.service.plan_many(requests)
        except asyncio.CancelledError:
            # close() cancelled the loop mid-batch.  These futures were
            # already popped off the queues, so the shutdown drain cannot
            # reach them — fail them here or their awaiters hang forever.
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(
                        SchedulerError(ERROR_SHUTDOWN, "scheduler closed mid-batch")
                    )
                    pending.future.exception()
            raise
        except Exception as exc:  # noqa: BLE001 - mapped to a structured error
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(
                        SchedulerError(ERROR_INTERNAL, f"plan evaluation failed: {exc}")
                    )
            return
        now = self._clock()
        self.batches_formed += 1
        self.batched_requests += len(batch)
        self.batch_log.append(Counter(pending.client for pending in batch))
        for pending, response in zip(batch, responses):
            self.requests_completed += 1
            if not pending.future.done():
                pending.future.set_result(
                    PlanResult(
                        response=response,
                        queued_s=now - pending.enqueued_at,
                        batch_size=len(batch),
                    )
                )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Scheduler counters plus the underlying service's own stats."""
        return {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "requests_rejected": self.requests_rejected,
            "requests_timed_out": self.requests_timed_out,
            "answered_at_admission": self.answered_at_admission,
            "batches_formed": self.batches_formed,
            "batched_requests": self.batched_requests,
            "mean_batch_size": (
                self.batched_requests / self.batches_formed
                if self.batches_formed
                else 0.0
            ),
            "window_s": self.window_s,
            "max_batch": self.max_batch,
            "weights": dict(self.weights),
            "default_weight": self.default_weight,
            "shared_admission": self._admission_controller is not None,
            "service": self.service.stats(),
        }
