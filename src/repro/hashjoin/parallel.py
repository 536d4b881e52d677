"""Process-pool execution of independent partition pairs (ISSUE 8).

After radix partitioning, the per-pair simple hash joins are completely
independent: each pair builds a private table, the bulk insert/probe kernels
only *add* to the allocator's counters and bump its arena pointer (they never
read allocator history), and latch contention is tracked per table.  That
independence is what this module exploits: pairs are joined by a pool of
forked worker processes, each against a freshly constructed allocator of the
same configuration, and the driver folds every worker's allocator deltas back
into the shared allocator *in pair order* — making the merged counters and
the concatenated step series bit-identical to the serial loop.

The pool is process-wide and lazily created (fork start method where
available), so repeated joins amortise the worker start-up cost.  Payload
chunks are contiguous runs of pairs balanced by tuple count, which keeps the
result order deterministic and the per-worker work roughly even under skew.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

import numpy as np

from .. import faults
from ..locking import make_lock
from ..opencl.allocator import AllocatorStats, MemoryAllocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .partition import PartitionPair
    from .simple import HashJoinConfig

__all__ = [
    "PairPool",
    "ChunkOutcome",
    "run_pairs",
    "shared_pair_pool",
    "split_balanced",
]

#: What one pair function returns for one partition pair.
_Outcome = TypeVar("_Outcome")

#: Default worker count: one per CPU, capped — pair joins are memory-bound
#: NumPy kernels, so oversubscription only adds IPC.
MAX_DEFAULT_WORKERS = 8


def default_worker_count() -> int:
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


def split_balanced(
    items: Sequence[Any], n_chunks: int, weights: Sequence[float] | None = None
) -> list[list[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, weight-balanced runs.

    Boundaries are placed where the cumulative weight crosses the ideal
    per-chunk share, while guaranteeing every chunk at least one item; the
    concatenation of the chunks is always exactly ``items`` in order.
    """
    n = len(items)
    if n == 0:
        return []
    if n_chunks <= 0:
        raise ValueError("n_chunks must be positive")
    n_chunks = min(n_chunks, n)
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ValueError("weights must match items")
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    total = float(cum[-1])
    bounds = [0]
    for j in range(1, n_chunks):
        cut = int(np.searchsorted(cum, total * j / n_chunks, side="left")) + 1
        cut = max(cut, bounds[-1] + 1)
        cut = min(cut, n - (n_chunks - j))
        bounds.append(cut)
    bounds.append(n)
    return [list(items[a:b]) for a, b in zip(bounds, bounds[1:])]


class PairPool:
    """A lazily started pool of forked processes joining partition pairs.

    Not thread-safe: one driver thread submits chunks and consumes results.
    Workers are plain :class:`~concurrent.futures.ProcessPoolExecutor`
    processes using the ``fork`` start method where the platform offers it
    (payloads and worker functions are picklable, so ``spawn`` works too).
    """

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = max(1, n_workers if n_workers is not None else default_worker_count())
        self._executor: ProcessPoolExecutor | None = None
        #: Times a broken executor was detected and torn down for rebuild.
        self.pool_breaks = 0
        #: Chunks whose pool future was lost and that re-ran serially.
        self.chunks_recovered = 0

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context
            )
        return self._executor

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every payload, preserving payload order.

        A single payload (or a single-worker pool) is run in-process — the
        worker functions are deterministic, so the outcome is identical and
        the fork/IPC cost is saved.

        Survives a broken pool (a worker SIGKILLed or OOM-killed mid-chunk
        marks the whole :class:`ProcessPoolExecutor` broken): every payload
        whose future was lost re-runs serially in the driver — the worker
        functions are pure, so the recovered results are bit-identical to
        an unfaulted run — and the dead executor is torn down so the *next*
        map builds a fresh one instead of failing forever.  Exceptions
        raised by ``fn`` itself (in a healthy pool) still propagate.
        """
        if len(payloads) <= 1 or self.n_workers == 1:
            return [fn(payload) for payload in payloads]
        executor = self._ensure_executor()
        futures: list[Future[Any] | None] = []
        for index, payload in enumerate(payloads):
            for spec in faults.fire("parallel.chunk", chunk=index):
                if spec.action == "kill":
                    # Break the pool "during chunk index": a payload that
                    # SIGKILLs whichever worker picks it up.
                    try:
                        executor.submit(faults.kill_self, None)
                    except BrokenExecutor:
                        pass
            try:
                futures.append(executor.submit(fn, payload))
            except BrokenExecutor:
                futures.append(None)  # pool already broken: recover below
        results: list[Any] = []
        recovered = 0
        for payload, future in zip(payloads, futures):
            if future is not None:
                try:
                    results.append(future.result())
                    continue
                except BrokenProcessPool:
                    pass
            results.append(fn(payload))
            recovered += 1
        if recovered:
            self.chunks_recovered += recovered
            self.pool_breaks += 1
            self.invalidate()
        return results

    def invalidate(self) -> None:
        """Drop the (broken) executor so the next use rebuilds a fresh one.

        ``shutdown(wait=False)`` on a broken pool only reaps bookkeeping —
        its workers are already gone; on a healthy pool it lets in-flight
        work finish in the background while new maps get a new pool.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "started" if self._executor is not None else "idle"
        return f"PairPool(n_workers={self.n_workers}, {state})"


_POOLS_GUARD = make_lock("pair-pools")
_POOLS: dict[int, PairPool] = {}


def shared_pair_pool(n_workers: int | None = None) -> PairPool:
    """The process-wide pool for ``n_workers`` (created on first use)."""
    key = max(1, n_workers if n_workers is not None else default_worker_count())
    with _POOLS_GUARD:
        pool = _POOLS.get(key)
        if pool is None:
            pool = PairPool(key)
            _POOLS[key] = pool
        return pool


def _reset_pools_after_fork() -> None:
    # A forked child inherits the pool registry, but the executors' worker
    # processes and management threads belong to the parent: shutting them
    # down from the child would hang, and reusing them is corruption.  Drop
    # the executor references without shutdown and let first use in the
    # child build fresh pools under a fresh (never parent-held) guard.
    global _POOLS_GUARD
    _POOLS_GUARD = make_lock("pair-pools")
    for pool in _POOLS.values():
        pool._executor = None
    _POOLS.clear()


os.register_at_fork(after_in_child=_reset_pools_after_fork)


# ---------------------------------------------------------------------------
# Worker payloads and chunk outcomes
# ---------------------------------------------------------------------------
@dataclass
class ChunkOutcome:
    """Per-pair outcomes of one worker chunk plus its allocator deltas."""

    pairs: list[Any]
    stats: AllocatorStats = field(default_factory=AllocatorStats)
    arena_bytes: int = 0
    arena_bumps: int = 0


def _run_chunk(payload: tuple[Any, ...]) -> ChunkOutcome:
    """Join a chunk of pairs with the payload's pair function (worker side)."""
    pair_fn, pairs, config, arena_capacity = payload
    allocator = config.make_allocator(arena_capacity)
    outcomes = [pair_fn(*pair, config, allocator) for pair in pairs]
    return ChunkOutcome(
        pairs=outcomes,
        stats=allocator.stats,
        arena_bytes=allocator.arena.used_bytes,
        arena_bumps=allocator.arena.global_atomics,
    )


def run_pairs(
    pair_fn: Callable[..., _Outcome],
    pairs: Sequence["PartitionPair"],
    config: "HashJoinConfig",
    allocator: MemoryAllocator,
    n_workers: int | None = None,
) -> list[_Outcome]:
    """Join ``pairs`` on the shared pool, each with ``pair_fn``.

    ``pair_fn(build part, probe part, build hashes, probe hashes, config,
    allocator)`` is a module-level function, so it pickles by name.  Each
    worker joins its chunk against a fresh allocator of ``config`` with
    ``allocator``'s arena capacity.  Returns the per-pair outcomes in pair
    order and folds the workers' allocator deltas into ``allocator`` (also
    in pair order), so the caller observes exactly the serial loop's state.
    """
    pool = shared_pair_pool(n_workers)
    weights = [
        float(len(build_part) + len(probe_part))
        for build_part, probe_part, _, _ in pairs
    ]
    chunks = split_balanced(pairs, pool.n_workers, weights)
    capacity = allocator.arena.capacity_bytes
    payloads = [(pair_fn, chunk, config, capacity) for chunk in chunks]
    outcomes: list[_Outcome] = []
    for chunk_outcome in pool.map(_run_chunk, payloads):
        outcomes.extend(chunk_outcome.pairs)
        allocator.absorb(
            chunk_outcome.stats, chunk_outcome.arena_bytes, chunk_outcome.arena_bumps
        )
    return outcomes
