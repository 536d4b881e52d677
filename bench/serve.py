"""Serve workloads: real ``repro serve`` processes driven over unix sockets.

Load comes from this one process over :data:`CONNECTIONS` connections.  A
run boots several servers one after another; each is warmed up and then
runs three timed stages:

* ``closed`` -- each connection keeps :data:`IN_FLIGHT` requests
  outstanding and sends the next one only when a reply lands;
* ``low`` and ``high`` -- open-loop Poisson arrivals at the workload's two
  rates.  Each request is timed from the moment it was *due*, so a stall
  also charges the requests queued behind it, and the generator's own
  lateness (send time minus due time) is recorded per stage.

Requests are encoded with the library's own ``PlanSubmit`` envelope before
timing starts; replies are parsed with ``json`` only.  After the timed
stages a seeded sample of replies is decoded and compared bit for bit
against ``PlanService(cache=SharedEstimateCache()).plan_many``.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import ROOT, SRC
from . import trace as tracing
from .workloads import SCALES, ServeSpec, percentile

CONNECTIONS = 2
IN_FLIGHT = 16
N_FINGERPRINTS = 64
ZIPF_EXPONENT = 1.1
SCHEMES = ("PL", "DD", "OL", "WHAT-IF")
SCHEME_MIX = (0.40, 0.25, 0.15, 0.20)
DELTA = 0.05
#: Distinct WHAT-IF ratio vectors per fingerprint, so repeats can dedup.
WHAT_IF_VECTORS = 4
#: Upper bound on the closed-loop rate, used to size its request stream.
CLOSED_MAX_RPS = 3000
#: Share of ``--seconds`` given to the closed, low-rate and high-rate
#: stages; the high-rate stage only feeds diagnostics and queue layers.
STAGE_SHARES = (0.45, 0.45, 0.1)
#: Windows of a traced run's closed stage, alternately untraced and traced
#: (see ``toggled_closed_loop``); short windows, so bursts average out.
TOGGLED_WINDOWS = 12
DRAIN_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
STAGE_SEEDS = {"warmup": 1, "closed": 2, "low": 3, "high": 4}


# ---------------------------------------------------------------------------
# Seeded traffic.
# ---------------------------------------------------------------------------
def _series(rng: np.random.Generator, n_steps: int) -> tuple:
    from repro.costmodel import StepCost

    counts = rng.integers(50_000, 1_000_000, n_steps)
    cpu = rng.uniform(2e-9, 2e-8, n_steps)
    gpu = rng.uniform(1e-9, 2e-8, n_steps)
    return tuple(
        StepCost(f"s{i}", int(counts[i]), cpu_unit_s=float(cpu[i]),
                 gpu_unit_s=float(gpu[i]), intermediate_bytes_per_tuple=8.0)
        for i in range(n_steps)
    )


def _ratios(rng: np.random.Generator, n_steps: int) -> tuple[float, ...]:
    levels = int(round(1.0 / DELTA))
    return tuple((rng.integers(0, levels + 1, n_steps) / levels).tolist())


@dataclass
class Item:
    seq: int
    request: Any
    payload: bytes


class Traffic:
    """The request streams of one serve workload, all derived from the seed.

    A series' step count follows its popularity rank (``4 + rank % 5``), not
    the seed, so every seed's hottest fingerprints cost about the same; only
    the step costs and the draws come from the seed.
    """

    def __init__(self, seed: int, unique: bool) -> None:
        self.seed = seed
        self.unique = unique
        rng = np.random.default_rng([seed, 0])
        self.pool = [_series(rng, 4 + rank % 5) for rank in range(N_FINGERPRINTS)]
        self.what_if = [[_ratios(rng, len(s)) for _ in range(WHAT_IF_VECTORS)] for s in self.pool]
        weights = 1.0 / np.arange(1, N_FINGERPRINTS + 1) ** ZIPF_EXPONENT
        self.popularity = weights / weights.sum()
        self._seq = itertools.count(1)

    def _item(self, stage: str, steps: tuple, scheme: str, ratios: tuple | None) -> Item:
        from repro.service.api import PlanRequest
        from repro.service.protocol import PlanSubmit

        seq = next(self._seq)
        request = PlanRequest(steps=steps, scheme=scheme, delta=DELTA, ratios=ratios,
                              request_id=f"{stage}-{seq}")
        return Item(seq, request, PlanSubmit(request=request).envelope(seq=seq).to_bytes())

    def stream(self, stage: str, count: int) -> list[Item]:
        rng = np.random.default_rng([self.seed, STAGE_SEEDS[stage]])
        schemes = rng.choice(len(SCHEMES), size=count, p=SCHEME_MIX)
        items = []
        for i in range(count):
            scheme = SCHEMES[schemes[i]]
            if self.unique:
                steps = _series(rng, 4 + i % 5)
                ratios = _ratios(rng, len(steps)) if scheme == "WHAT-IF" else None
            else:
                k = int(rng.choice(N_FINGERPRINTS, p=self.popularity))
                steps = self.pool[k]
                ratios = self.what_if[k][int(rng.integers(WHAT_IF_VECTORS))] if scheme == "WHAT-IF" else None
            items.append(self._item(stage, steps, scheme, ratios))
        return items

    def warmup(self, count: int) -> list[Item]:
        """Requests that bring a fresh server to its steady state.

        With a fingerprint library that is every distinct question once, in
        seeded order, so the estimate cache is as warm as the timed traffic
        will ever make it; Zipf draws would leave the tail cold for
        thousands of requests.  Fresh fingerprints have no such state:
        ``count`` requests of the workload's own kind warm the process.
        """
        if self.unique:
            return self.stream("warmup", count)
        questions = [(steps, scheme, None) for steps in self.pool for scheme in SCHEMES[:3]]
        questions += [(steps, "WHAT-IF", ratios)
                      for steps, vectors in zip(self.pool, self.what_if) for ratios in vectors]
        order = np.random.default_rng([self.seed, STAGE_SEEDS["warmup"]]).permutation(len(questions))
        return [self._item("warmup", *questions[i]) for i in order]

    def arrivals(self, stage: str, rate: float, seconds: float) -> np.ndarray:
        """Poisson arrival offsets (ns) within ``seconds``."""
        rng = np.random.default_rng([self.seed, STAGE_SEEDS[stage], 1])
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
        offsets = np.cumsum(gaps)
        return (offsets[offsets < seconds] * 1e9).astype(np.int64)


# ---------------------------------------------------------------------------
# Server process and client connections.
# ---------------------------------------------------------------------------
def _short_path(path: Path, start: Path) -> str:
    """``path`` absolute or relative to ``start``, whichever is shorter: a
    unix socket address must fit in 107 bytes wherever the checkout lives."""
    relative = os.path.relpath(path, start)
    return relative if len(relative) < len(str(path)) else str(path)


class Server:
    """One ``repro serve --unix`` process (``bench.launch`` when traced)."""

    def __init__(self, workers: int, out: Path, tag: str, spans_path: Path | None) -> None:
        sock = (out / f"{tag}.sock").resolve()
        self.client_path = _short_path(sock, Path.cwd())
        serve = ["serve", "--unix", _short_path(sock, ROOT), "--workers", str(workers)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, "-m", "bench.launch", str(spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out.mkdir(parents=True, exist_ok=True)
        self.log_path = out / f"{tag}.log"
        # A traced server gets a process group of its own for ``toggle``.
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                         stdout=subprocess.DEVNULL, stderr=log,
                                         start_new_session=spans_path is not None)

    async def wait_bound(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}; "
                                   f"see {self.log_path}")
            try:
                _, writer = await asyncio.open_unix_connection(self.client_path)
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server did not bind within {BOOT_TIMEOUT_S}s")
                await asyncio.sleep(0.002)
                continue
            writer.close()
            await writer.wait_closed()
            return

    async def toggle(self) -> None:
        """Switch a traced server's layer wrappers on or off (``bench.launch``)."""
        os.killpg(self.proc.pid, signal.SIGUSR1)
        # Let every process of the group take the signal before timing on.
        await asyncio.sleep(0.05)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Connection:
    """A raw JSON-lines connection that resolves one future per ``seq``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, asyncio.Future] = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, path: str) -> "Connection":
        reader, writer = await asyncio.open_unix_connection(path, limit=16 * 1024 * 1024)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while line := await self.reader.readline():
                now = time.perf_counter_ns()
                message = json.loads(line)
                future = self.pending.pop(message.get("seq"), None)
                if future is not None and not future.done():
                    future.set_result((now, message, line))
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self.pending.clear()

    def send(self, seq: int, payload: bytes) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[seq] = future
        self.writer.write(payload)
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


@dataclass
class Reply:
    stage: str
    item: Item
    start_ns: int  # due time (open loop) or send time (closed loop)
    recv_ns: int = 0
    error: str = ""
    queued_s: float = 0.0
    batch_size: int = 1
    line: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.recv_ns - self.start_ns) / 1e6


async def _settle(reply: Reply, future: asyncio.Future) -> None:
    try:
        reply.recv_ns, message, reply.line = await asyncio.wait_for(future, DRAIN_TIMEOUT_S)
    except (ConnectionError, asyncio.TimeoutError) as exc:
        reply.error = f"no reply: {exc or type(exc).__name__}"
        return
    if message.get("kind") != "plan.result":
        payload = message.get("payload", {})
        reply.error = f"{payload.get('code', message.get('kind'))}: {payload.get('message', '')}"
        return
    reply.queued_s = float(message["payload"]["queued_s"])
    reply.batch_size = int(message["payload"]["batch_size"])


@dataclass
class StageRun:
    """One timed stage on one server."""

    name: str
    replies: list[Reply]
    start_ns: int
    #: Closed loop: start to the last reply; open loop: the schedule.
    length_s: float
    end_ns: int
    lateness_ms: list[float] = field(default_factory=list)

    @property
    def ok(self) -> list[Reply]:
        return [reply for reply in self.replies if not reply.error]


async def closed_loop(conns: list[Connection], items: list[Item], stage: str,
                      seconds: float | None) -> StageRun:
    """Keep IN_FLIGHT requests outstanding per connection for ``seconds``."""
    replies: list[Reply] = []
    cursor = iter(items)
    start = time.perf_counter_ns()
    deadline = None if seconds is None else start + int(seconds * 1e9)

    async def client(conn: Connection) -> None:
        for item in cursor:
            if deadline is not None and time.perf_counter_ns() >= deadline:
                return
            reply = Reply(stage, item, time.perf_counter_ns())
            replies.append(reply)
            await _settle(reply, conn.send(item.seq, item.payload))

    await asyncio.gather(*(client(conn) for conn in conns for _ in range(IN_FLIGHT)))
    last = max((r.recv_ns for r in replies if r.recv_ns), default=start + 1)
    return StageRun(stage, replies, start, (last - start) / 1e9, time.perf_counter_ns())


async def toggled_closed_loop(server: Server, conns: list[Connection], items: list[Item],
                              seconds: float | None) -> tuple[StageRun, list[Reply], float]:
    """A traced server's closed stage, in windows with the wrappers off and on.

    Returns the traced windows as one stage, the untraced windows' replies
    and the tracing overhead: the closed-loop rate with the wrappers off
    over the rate with them on, minus one.  Both sides come from the same
    process, interleaved, so neither its thread placement nor a burst of
    contention falls on one side only.
    """
    size = len(items) // TOGGLED_WINDOWS
    windows = []
    for k in range(TOGGLED_WINDOWS):
        if k:
            await server.toggle()
        windows.append(await closed_loop(
            conns, items[k * size:(k + 1) * size], "closed",
            None if seconds is None else seconds / TOGGLED_WINDOWS,
        ))
    untraced, traced = windows[0::2], windows[1::2]
    merged = StageRun("closed", [r for run in traced for r in run.replies], traced[0].start_ns,
                      sum(run.length_s for run in traced), traced[-1].end_ns)

    def rate(runs: list[StageRun]) -> float:
        return sum(len(run.ok) for run in runs) / sum(run.length_s for run in runs)

    return merged, [r for run in untraced for r in run.replies], rate(untraced) / rate(traced) - 1.0


async def open_loop(conns: list[Connection], items: list[Item], offsets: np.ndarray,
                    stage: str, seconds: float) -> StageRun:
    """Send each request at its due time, then wait for every reply."""
    replies: list[Reply] = []
    settles = []
    lateness = []
    start = time.perf_counter_ns() + 5_000_000
    for k, (item, offset) in enumerate(zip(items, offsets.tolist())):
        due = start + offset
        delay = (due - time.perf_counter_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter_ns()
        lateness.append((sent - due) / 1e6)
        reply = Reply(stage, item, due)
        replies.append(reply)
        settles.append(_settle(reply, conns[k % len(conns)].send(item.seq, item.payload)))
    await asyncio.gather(*settles)
    return StageRun(stage, replies, start, seconds, time.perf_counter_ns(), lateness)


async def server_stats(conns: list[Connection], workers: int) -> dict[str, float]:
    """Summed counters of every worker (connection k lands on a distinct
    worker for k < workers: the router deals connections round-robin)."""
    totals = {"served": 0, "deduplicated": 0, "hits": 0, "misses": 0,
              "rejected": 0, "timed_out": 0}
    for k, conn in enumerate(conns[:workers]):
        seq = 10**12 + k
        request = json.dumps({"kind": "stats", "v": 1, "seq": seq}).encode() + b"\n"
        _, message, _ = await asyncio.wait_for(conn.send(seq, request), DRAIN_TIMEOUT_S)
        scheduler = message["payload"]["scheduler"]
        service = scheduler["service"]
        totals["served"] += service["requests_served"]
        totals["deduplicated"] += service["requests_deduplicated"]
        totals["hits"] += service["cache"]["hits"]
        totals["misses"] += service["cache"]["misses"]
        totals["rejected"] += scheduler["requests_rejected"]
        totals["timed_out"] += scheduler["requests_timed_out"]
    return totals


# ---------------------------------------------------------------------------
# Checks and summaries.
# ---------------------------------------------------------------------------
def _same_plan(got: Any, want: Any) -> bool:
    a, b = got.estimate, want.estimate
    return (
        got.request_id == want.request_id
        and got.scheme == want.scheme
        and list(got.ratios) == list(want.ratios)
        and list(a.ratios) == list(b.ratios)
        and list(a.cpu_step_s) == list(b.cpu_step_s)
        and list(a.gpu_step_s) == list(b.gpu_step_s)
        and list(a.cpu_delay_s) == list(b.cpu_delay_s)
        and list(a.gpu_delay_s) == list(b.gpu_delay_s)
        and a.intermediate_bytes == b.intermediate_bytes
        and got.total_s == want.total_s
    )


def check_sample(replies: list[Reply], seed: int, size: int) -> tuple[int, list[str]]:
    """Served plans of a seeded sample vs. a direct ``plan_many``, bit for bit."""
    from repro.service import PlanService, SharedEstimateCache
    from repro.service.protocol import Envelope, PlanResult

    ok = [reply for reply in replies if not reply.error]
    rng = np.random.default_rng([seed, 99])
    picks = sorted(rng.choice(len(ok), size=min(size, len(ok)), replace=False).tolist())
    sample = [ok[i] for i in picks]
    expected = PlanService(cache=SharedEstimateCache()).plan_many(
        [reply.item.request for reply in sample]
    )
    failures = []
    for reply, want in zip(sample, expected):
        got = PlanResult.from_envelope(Envelope.from_json(reply.line)).response
        if not _same_plan(got, want):
            failures.append(f"{reply.stage} request {want.request_id}: "
                            "served plan differs from PlanService.plan_many")
    return len(sample), failures


def _harmonic_batch(replies: list[Reply]) -> float:
    # Every reply carries its batch's size, so summing 1/size over replies
    # counts batches exactly.
    return len(replies) / sum(1.0 / reply.batch_size for reply in replies) if replies else 0.0


def stage_summary(run: StageRun) -> dict[str, Any]:
    ok = run.ok
    latency = [reply.latency_ms for reply in ok] or [0.0]
    queued = [1e3 * reply.queued_s for reply in ok] or [0.0]
    summary: dict[str, Any] = {
        "sent": len(run.replies), "ok": len(ok), "errors": len(run.replies) - len(ok),
        "seconds": run.length_s, "rps": len(ok) / run.length_s,
        "latency_ms": {"p50": percentile(latency, 50), "p90": percentile(latency, 90),
                       "p99": percentile(latency, 99), "mean": float(np.mean(latency))},
        "queued_ms": {"p50": percentile(queued, 50), "p90": percentile(queued, 90)},
        "batch_size_mean": _harmonic_batch(ok),
    }
    if run.lateness_ms:
        summary["lateness_ms"] = {"p50": percentile(run.lateness_ms, 50),
                                  "p99": percentile(run.lateness_ms, 99)}
    return summary


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced server's spans.
# ---------------------------------------------------------------------------
def _within(spans: list[dict], name: str, window: tuple[int, int]) -> list[dict]:
    return [s for s in spans if s["name"] == name and window[0] <= s["start_ns"] < window[1]]


def _seconds(spans: list[dict]) -> float:
    return sum(s["end_ns"] - s["start_ns"] for s in spans) / 1e9


def _breakdown(spans: list[dict], run: StageRun) -> dict[str, float]:
    """Mean ms per request: codec, queue wait, plan_many and the remainder."""
    ok = run.ok
    n = len(ok)
    window = (run.start_ns, run.end_ns)
    batches = _within(spans, "service.service.plan_many", window)
    plan_many = sum((s["end_ns"] - s["start_ns"]) * s["attrs"].get("requests", 0)
                    for s in batches) / 1e6 / n
    decode = 1e3 * _seconds(_within(spans, "service.protocol.decode", window)) / n
    encode = 1e3 * _seconds(_within(spans, "service.protocol.encode", window)) / n
    # ``queued_s`` runs from admission until the batch's plan_many returned.
    queued = 1e3 * float(np.mean([reply.queued_s for reply in ok]))
    latency = float(np.mean([reply.latency_ms for reply in ok]))
    return {"decode": decode, "encode": encode, "queue_wait": queued - plan_many,
            "plan_many": plan_many, "remainder": latency - decode - encode - queued,
            "latency": latency}


def serve_layers(span_lists: list[list[dict]], stages: dict[str, StageRun],
                 delta: dict[str, float], workers: int,
                 overhead: float) -> tuple[dict[str, float], list[dict]]:
    spans = [span for spans in span_lists for span in spans]
    parts = {name: _breakdown(spans, run) for name, run in stages.items()}
    low = parts["low"]
    high_latency = [r.latency_ms for r in stages["high"].ok]
    high_queued = [1e3 * r.queued_s for r in stages["high"].ok]
    timed = (stages["closed"].start_ns, stages["high"].end_ns)
    all_ok = [reply for run in stages.values() for reply in run.ok]

    plan_many_s = _seconds(_within(spans, "service.service.plan_many", timed))
    closed = stages["closed"]
    closed_busy = _seconds(_within(spans, "service.service.plan_many",
                                   (closed.start_ns, closed.end_ns)))
    per_worker = []
    for worker_spans in span_lists:
        batches = _within(worker_spans, "service.service.plan_many", timed)
        if batches:
            per_worker.append((sum(s["attrs"]["requests"] for s in batches), len(batches)))
    served = sum(requests for requests, _ in per_worker)
    lookups = delta["hits"] + delta["misses"]

    values = {
        "service.protocol.decode.share": low["decode"] / low["latency"],
        "service.protocol.encode.share": low["encode"] / low["latency"],
        "service.scheduler.queue.share": low["queue_wait"] / low["latency"],
        "service.service.plan_many.share": low["plan_many"] / low["latency"],
        "service.scheduler.queue_p50.share":
            percentile(high_queued, 50) / percentile(high_latency, 50),
        "service.scheduler.queue_p90.share":
            percentile(high_queued, 90) / percentile(high_latency, 90),
        "service.scheduler.batch_size_mean": _harmonic_batch(all_ok),
        "service.scheduler.rejected": delta["rejected"],
        "service.scheduler.timed_out": delta["timed_out"],
        "service.service.busy_frac": closed_busy / (closed.length_s * workers),
        "service.service.dedup_ratio": delta["deduplicated"] / delta["served"],
        "costmodel.batch.cache_hit_rate": delta["hits"] / lookups if lookups else 0.0,
        "costmodel.batch.mixed.share":
            _seconds(_within(spans, "costmodel.batch.mixed", timed)) / plan_many_s,
        "costmodel.batch.mixed_rows":
            sum(s["attrs"].get("rows", 0) for s in _within(spans, "costmodel.batch.mixed", timed))
            / len(all_ok),
        "costmodel.batch.cache_totals.share":
            _seconds(_within(spans, "costmodel.batch.cache_totals", timed)) / plan_many_s,
        "costmodel.batch.estimate.share":
            _seconds(_within(spans, "costmodel.batch.estimate", timed)) / plan_many_s,
        "service.pool.worker_share_max": max(r for r, _ in per_worker) / served,
        "service.pool.batch_size_mean_min": min(r / b for r, b in per_worker),
        "service.pool.batch_size_mean_max": max(r / b for r, b in per_worker),
        "trace.unattributed_frac": low["remainder"] / low["latency"],
        "trace.overhead_frac": overhead,
    }
    table = [
        {"layer": f"{stage}: {part}", "ms": ms, "share": ms / parts[stage]["latency"]}
        for stage in stages
        for part, ms in parts[stage].items()
        if part != "latency"
    ]
    return values, table


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------
def _errors(replies: list[Reply]) -> list[str]:
    return [f"{r.stage} request {r.item.request.request_id}: {r.error}" for r in replies if r.error]


def run_serve(workload: str, spec: ServeSpec, seed: int, seconds: float, trace: bool,
              scale_name: str, out: Path, spans_path: Path) -> dict[str, Any]:
    return asyncio.run(_run_serve(workload, spec, seed, seconds, trace, scale_name, out,
                                  spans_path))


async def _run_serve(workload: str, spec: ServeSpec, seed: int, seconds: float, trace: bool,
                     scale_name: str, out: Path, spans_path: Path) -> dict[str, Any]:
    scale = SCALES[scale_name]
    low_rps, high_rps = scale.rates or (spec.low_rps, spec.high_rps)
    # An untraced run boots ``scale.servers`` servers, times each one's
    # set-up and gives each an equal share of the timed stages: on two
    # CPUs a server process keeps whatever thread placement it started
    # with, which moved its closed-loop rate by up to half against the next
    # server's, so no single process may decide the result.  A traced run
    # boots one server through ``bench.launch`` and toggles its wrappers.
    n_servers = 1 if trace else scale.servers
    if scale.stage_seconds is None:
        closed_s, low_s, high_s = (share * seconds / n_servers for share in STAGE_SHARES)
        closed_count = int(closed_s * CLOSED_MAX_RPS)
    else:
        closed_s, low_s = None, scale.stage_seconds
        high_s = scale.stage_seconds
        closed_count = scale.closed_requests or 0
    traffic = Traffic(seed, spec.unique)
    warmup = traffic.warmup(scale.warmup_requests)
    closed_items = traffic.stream("closed", closed_count)
    low_offsets = traffic.arrivals("low", low_rps, low_s)
    low_items = traffic.stream("low", len(low_offsets))
    high_offsets = traffic.arrivals("high", high_rps, high_s)
    high_items = traffic.stream("high", len(high_offsets))
    # The streams are a few hundred thousand long-lived objects; left to the
    # collector, full collections stall the generator for tens of ms.
    gc.collect()
    gc.freeze()

    tag = f"{workload}-s{seed}-{os.getpid()}"
    attempted = 0
    failures: list[str] = []
    setups: list[float] = []
    overhead = 0.0
    runs: list[dict[str, StageRun]] = []
    timed: list[Reply] = []
    delta: dict[str, float] = {}
    for k in range(n_servers):
        started = time.perf_counter()
        server = Server(spec.workers, out / "serve", f"{tag}-{k}", spans_path if trace else None)
        conns: list[Connection] = []
        try:
            await server.wait_bound()
            for _ in range(CONNECTIONS):
                conns.append(await Connection.open(server.client_path))
            warm = await closed_loop(conns, warmup, "warmup", None)
            setups.append(time.perf_counter() - started)
            attempted += len(warm.replies)
            failures += _errors(warm.replies)
            before = await server_stats(conns, spec.workers)
            if trace:
                closed, untraced, overhead = await toggled_closed_loop(
                    server, conns, closed_items, closed_s
                )
                timed += untraced
                stages = {"closed": closed}
            else:
                stages = {"closed": await closed_loop(conns, closed_items, "closed", closed_s)}
            stages["low"] = await open_loop(conns, low_items, low_offsets, "low", low_s)
            stages["high"] = await open_loop(conns, high_items, high_offsets, "high", high_s)
            after = await server_stats(conns, spec.workers)
            delta = {key: delta.get(key, 0) + after[key] - before[key] for key in after}
            runs.append(stages)
            timed += [reply for run in stages.values() for reply in run.replies]
        finally:
            for conn in conns:
                await conn.close()
            server.stop()

    attempted += len(timed)
    failures += _errors(timed)
    sampled, mismatches = check_sample(timed, seed, scale.sample_replies)
    failures += mismatches

    closed = [stages["closed"] for stages in runs]
    closed_rps = sum(len(run.ok) for run in closed) / sum(run.length_s for run in closed)
    low_latency = [reply.latency_ms for stages in runs for reply in stages["low"].ok] or [0.0]
    outcome: dict[str, Any] = {
        "attempted": attempted, "failures": failures, "setup_samples_s": setups,
        "sizes": {"workers": spec.workers, "connections": CONNECTIONS, "in_flight": IN_FLIGHT,
                  "fingerprints": "unique" if spec.unique else N_FINGERPRINTS,
                  "zipf_exponent": None if spec.unique else ZIPF_EXPONENT,
                  "scheme_mix": dict(zip(SCHEMES, SCHEME_MIX)), "delta": DELTA,
                  "rates_rps": {"low": low_rps, "high": high_rps}, "servers": n_servers,
                  "stage_s_per_server": {"closed": closed_s, "low": low_s, "high": high_s},
                  "warmup_requests": len(warmup), "sampled_replies": sampled},
        "diagnostics": {
            "stages": [{name: stage_summary(run) for name, run in stages.items()}
                       for stages in runs],
            "low_latency_ms": {"p50": percentile(low_latency, 50),
                               "p90": percentile(low_latency, 90),
                               "p99": percentile(low_latency, 99)},
            "server_counters": delta,
        },
    }
    if trace:
        span_files = [spans_path, *sorted(spans_path.parent.glob(spans_path.name + ".worker*"))]
        span_lists = [tracing.load_spans(path) for path in span_files]
        outcome["layers"], outcome["layer_table"] = serve_layers(
            span_lists, runs[0], delta, spec.workers, overhead
        )
        outcome["layer_basis"] = "mean ms per request and share of mean latency, per stage"
    else:
        outcome["e2e"] = {
            "setup_s": float(np.median(setups)),
            "op_ms": percentile(low_latency, 50),
            "ops_per_s": closed_rps,
        }
    return outcome
