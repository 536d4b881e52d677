"""Joins larger than the zero copy buffer (paper Appendix, Figure 19).

The zero copy buffer of the APU is small (512 MB), so data sets beyond it are
handled like a classic external-memory hash join with the buffer playing the
role of "main memory" and the rest of system memory playing "disk":

1. the input relations are partitioned chunk by chunk inside the zero copy
   buffer (16M-tuple chunks in the paper),
2. the intermediate partitions are copied out to system memory,
3. the matching intermediate partitions are linked into final partition
   pairs, and
4. each partition pair is joined inside the buffer with any of the in-buffer
   join variants (the paper compares SHJ-PL and PHJ-PL here).

A single level of partitioning is not always enough: a skewed key
distribution can leave one pair far larger than the buffer.  Following the
trade-offs of "Design Trade-offs for a Robust Dynamic Hybrid Hash Join"
(Jahangiri et al., PVLDB 15(4)), stage 2 is robust against that:

* **role reversal** — every in-buffer pair join builds on its smaller side
  (the emitted rid pairs are swapped back), so a skewed build side cannot
  inflate the hash table;
* **recursive re-partitioning** — an overflowing pair is re-partitioned with
  a fresh radix seed per level (bounded depth) and its children joined
  recursively;
* **dynamic spilling** — when re-partitioning stops making progress (e.g.
  a single all-duplicate key) or the depth budget is exhausted, the smaller
  side stays resident and the larger side streams through the remaining
  buffer in chunks; if even the smaller side overflows, the pair falls back
  to a block-nested-loop over chunks of both sides.  Either way no in-buffer
  join ever exceeds the simulated buffer budget.

The run reports the three components of Figure 19 — partition time, join time
and data copy time (including the stage-2 copy-out of each pair's result) —
the exact join result, and the robustness counters.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.relation import TUPLE_BYTES, Relation
from ..hardware.machine import Machine, coupled_machine
from .murmur import radix_of
from .partition import MAX_RADIX_BITS, PartitionError, split_relation_by_partition
from .result import JoinResult

#: Chunk size used by the paper when staging data through the buffer.
DEFAULT_CHUNK_TUPLES = 16_000_000

#: Bytes of one emitted match (two 4-byte rids), charged on pair copy-out.
RESULT_PAIR_BYTES = 8

#: Radix-bit ceiling shared with ``PartitionConfig``/``radix_of``.
MAX_SUPER_PARTITION_BITS = MAX_RADIX_BITS


class SuperPartitionOverflowError(PartitionError):
    """The required super-partition fan-out exceeds the radix-bit ceiling.

    Raised by :func:`plan_super_partitions` when clamping is disabled;
    carries the structured ``needed_bits``/``max_bits`` so callers can size
    buffers or fall back programmatically.
    """

    def __init__(self, needed_bits: int, max_bits: int) -> None:
        super().__init__(
            f"super-partition fan-out needs {needed_bits} radix bits, beyond "
            f"the {max_bits}-bit ceiling; clamp the fan-out (stage-2 "
            "recursion and spilling absorb the overflow pairs) or enlarge "
            "the buffer"
        )
        self.needed_bits = needed_bits
        self.max_bits = max_bits


@dataclass
class ExternalJoinBreakdown:
    """Figure 19's per-run time components (simulated seconds)."""

    partition_s: float = 0.0
    join_s: float = 0.0
    data_copy_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.partition_s + self.join_s + self.data_copy_s

    def as_dict(self) -> dict[str, float]:
        return {
            "partition_s": self.partition_s,
            "join_s": self.join_s,
            "data_copy_s": self.data_copy_s,
            "total_s": self.total_s,
        }


@dataclass
class ExternalJoinStats:
    """Robustness counters of one external join run."""

    #: Pairs that exceeded the buffer budget and were streamed in chunks.
    spilled_pairs: int = 0
    #: Recursive re-partitioning rounds that made progress.
    recursive_splits: int = 0
    #: In-buffer joins whose build side was the caller's probe side.
    role_reversals: int = 0
    #: Deepest recursion level reached below the super partitions.
    max_pair_depth: int = 0
    #: Largest (build + probe) bytes handed to one in-buffer join.
    max_in_buffer_bytes: int = 0

    def merge(self, other: "ExternalJoinStats") -> None:
        self.spilled_pairs += other.spilled_pairs
        self.recursive_splits += other.recursive_splits
        self.role_reversals += other.role_reversals
        self.max_pair_depth = max(self.max_pair_depth, other.max_pair_depth)
        self.max_in_buffer_bytes = max(
            self.max_in_buffer_bytes, other.max_in_buffer_bytes
        )


@dataclass
class ExternalJoinRun:
    """Outcome of one out-of-buffer join."""

    breakdown: ExternalJoinBreakdown
    result: JoinResult
    n_super_partitions: int
    fits_in_buffer: bool
    stats: ExternalJoinStats = field(default_factory=ExternalJoinStats)


#: Callable that joins one in-buffer partition pair and returns
#: (simulated seconds, join result).  The core package provides adapters for
#: its SHJ-PL / PHJ-PL executors.
PairJoiner = Callable[[Relation, Relation], tuple[float, JoinResult]]

#: One deferred accounting charge: ("copy", bytes) / ("join" | "partition",
#: seconds).  Pair tasks record events instead of touching the shared
#: machine, and the driver replays them in pair order — so parallel pair
#: execution accumulates the breakdown bit-identically to the serial loop.
_Event = tuple[str, float]


def _split_by_partition(
    relation: Relation, ids: np.ndarray, n_parts: int, label: str
) -> list[Relation]:
    """Split a relation into its super partitions (shared split kernel)."""
    parts, _ = split_relation_by_partition(relation, ids, n_parts, label)
    return parts


def plan_super_partitions(
    build: Relation,
    probe: Relation,
    machine: Machine,
    overhead_factor: float = 2.0,
    max_bits: int = MAX_SUPER_PARTITION_BITS,
    clamp: bool = True,
) -> int:
    """Number of first-level partitions so one pair fits the zero copy buffer.

    The fan-out is a power of two so radix bits describe it, and never
    exceeds ``2**max_bits`` — the ceiling ``PartitionConfig``/``radix_of``
    enforce.  Past the ceiling the fan-out is clamped (overflowing pairs are
    handled by stage-2 recursion and spilling); ``clamp=False`` raises a
    structured :class:`SuperPartitionOverflowError` instead.
    """
    buffer_bytes = machine.memory.zero_copy.capacity_bytes
    total_bytes = (build.nbytes + probe.nbytes) * overhead_factor
    if total_bytes <= buffer_bytes:
        return 1
    needed = int(np.ceil(total_bytes / buffer_bytes))
    bits = int(np.ceil(np.log2(needed)))
    if bits > max_bits:
        if not clamp:
            raise SuperPartitionOverflowError(bits, max_bits)
        bits = max_bits
    return 1 << bits


class ExternalHashJoin:
    """Partition through the zero copy buffer, then join each pair in-buffer."""

    def __init__(
        self,
        pair_joiner: PairJoiner,
        machine: Machine | None = None,
        chunk_tuples: int = DEFAULT_CHUNK_TUPLES,
        partition_rate_tuples_per_s: float = 55e6,
        overhead_factor: float = 2.0,
        max_recursion_depth: int = 3,
        role_reversal: bool = True,
        parallel: bool = False,
        n_workers: int | None = None,
    ) -> None:
        """``partition_rate_tuples_per_s`` is the co-processed radix
        partitioning throughput used to charge the staging passes; the default
        matches the in-buffer partitioning rate of the PHJ variants.

        ``overhead_factor`` models the working-space multiplier of an
        in-buffer join (hash table + output next to the inputs); a pair fits
        when ``(build + probe bytes) * overhead_factor`` is within the
        buffer.  ``max_recursion_depth`` bounds the re-partitioning levels
        below the super partitions; ``role_reversal=False`` keeps the
        caller's build side even when it is the larger one.

        ``parallel=True`` joins independent super-partition pairs on a
        thread pool (``n_workers`` threads) — the ``pair_joiner`` must then
        be thread-safe (see ``external_pair_joiner(machine_factory=...)``).
        ``parallel=False`` is the bit-matched serial reference: charges are
        recorded as per-pair events and replayed in pair order either way.
        """
        self.pair_joiner = pair_joiner
        self.machine = machine or coupled_machine()
        if chunk_tuples <= 0:
            raise ValueError("chunk_tuples must be positive")
        if overhead_factor < 1.0:
            raise ValueError("overhead_factor must be at least 1.0")
        if max_recursion_depth < 0:
            raise ValueError("max_recursion_depth must be non-negative")
        self.chunk_tuples = chunk_tuples
        self.partition_rate = partition_rate_tuples_per_s
        self.overhead_factor = overhead_factor
        self.max_recursion_depth = max_recursion_depth
        self.role_reversal = role_reversal
        self.parallel = parallel
        self.n_workers = n_workers

    # ------------------------------------------------------------------
    @property
    def _buffer_bytes(self) -> int:
        return self.machine.memory.zero_copy.capacity_bytes

    def _fits(self, build_part: Relation, probe_part: Relation) -> bool:
        pair_bytes = build_part.nbytes + probe_part.nbytes
        return pair_bytes * self.overhead_factor <= self._buffer_bytes

    def _replay(self, events: list[_Event], breakdown: ExternalJoinBreakdown) -> None:
        """Apply deferred charges in recorded order (bit-stable accumulation)."""
        for kind, value in events:
            if kind == "copy":
                breakdown.data_copy_s += self.machine.memory.copy_time(int(value))
            elif kind == "join":
                breakdown.join_s += float(value)
            else:
                breakdown.partition_s += float(value)

    def _charge_staging(self, relation: Relation, events: list[_Event]) -> None:
        """Chunked copy-in / partition / copy-out charges for one relation."""
        n_chunks = int(np.ceil(len(relation) / self.chunk_tuples))
        for chunk in range(n_chunks):
            start = chunk * self.chunk_tuples
            stop = min(start + self.chunk_tuples, len(relation))
            chunk_bytes = (stop - start) * TUPLE_BYTES
            events.append(("copy", chunk_bytes))  # in
            events.append(("partition", (stop - start) / self.partition_rate))
            events.append(("copy", chunk_bytes))  # out

    # ------------------------------------------------------------------
    # In-buffer pair joins (role reversal + result copy-out accounting)
    # ------------------------------------------------------------------
    def _invoke_joiner(
        self,
        build_side: Relation,
        probe_side: Relation,
        swapped: bool,
        events: list[_Event],
        stats: ExternalJoinStats,
    ) -> JoinResult:
        """One in-buffer join; ``swapped`` means the roles were reversed."""
        pair_bytes = build_side.nbytes + probe_side.nbytes
        stats.max_in_buffer_bytes = max(stats.max_in_buffer_bytes, pair_bytes)
        if swapped:
            stats.role_reversals += 1
        join_s, result = self.pair_joiner(build_side, probe_side)
        if swapped:
            result = JoinResult(
                build_rids=result.probe_rids, probe_rids=result.build_rids
            )
        events.append(("join", join_s))
        # The matching rid pairs leave the buffer: charge their copy-out
        # (the historical accounting only charged the pair's copy-in).
        events.append(("copy", result.match_count * RESULT_PAIR_BYTES))
        return result

    def _buffered_join(
        self,
        build_part: Relation,
        probe_part: Relation,
        events: list[_Event],
        stats: ExternalJoinStats,
    ) -> JoinResult:
        """Join one fitting pair inside the buffer (build on the smaller side)."""
        events.append(("copy", build_part.nbytes + probe_part.nbytes))
        swap = self.role_reversal and len(probe_part) < len(build_part)
        if swap:
            return self._invoke_joiner(probe_part, build_part, True, events, stats)
        return self._invoke_joiner(build_part, probe_part, False, events, stats)

    def _spill_join(
        self,
        build_part: Relation,
        probe_part: Relation,
        events: list[_Event],
        stats: ExternalJoinStats,
    ) -> list[JoinResult]:
        """Stream an oversized pair through the buffer (dynamic spilling).

        The smaller side stays resident (copied in once) while the larger
        side streams through the remaining budget; when even the smaller
        side overflows, both sides are chunked (block-nested-loop).  Every
        in-buffer join stays within the budget either way.
        """
        stats.spilled_pairs += 1
        budget_tuples = max(
            int(self._buffer_bytes // (self.overhead_factor * TUPLE_BYTES)), 2
        )
        if self.role_reversal and len(probe_part) < len(build_part):
            resident, streamed, swap = probe_part, build_part, True
        else:
            resident, streamed, swap = build_part, probe_part, False

        results: list[JoinResult] = []
        if len(resident) < budget_tuples:
            stream_chunk = budget_tuples - len(resident)
            events.append(("copy", resident.nbytes))
            for piece in streamed.split_chunks(stream_chunk):
                events.append(("copy", piece.nbytes))
                results.append(
                    self._invoke_joiner(resident, piece, swap, events, stats)
                )
        else:
            half = max(budget_tuples // 2, 1)
            for resident_piece in resident.split_chunks(half):
                events.append(("copy", resident_piece.nbytes))
                for streamed_piece in streamed.split_chunks(half):
                    events.append(("copy", streamed_piece.nbytes))
                    results.append(
                        self._invoke_joiner(
                            resident_piece, streamed_piece, swap, events, stats
                        )
                    )
        return results

    # ------------------------------------------------------------------
    # Recursive re-partitioning
    # ------------------------------------------------------------------
    @staticmethod
    def _child_seed(seed: int, depth: int) -> int:
        """A fresh radix seed per recursion level (kept in 31 bits)."""
        return (int(seed) * 0x9E3779B1 + depth + 1) & 0x7FFFFFFF

    def _try_recursive_split(
        self,
        build_part: Relation,
        probe_part: Relation,
        seed: int,
        depth: int,
    ) -> tuple[list[tuple[Relation, Relation]], int] | None:
        """Split an overflowing pair one level deeper, if that helps.

        Returns ``(child pairs, child seed)`` or ``None`` when the depth
        budget is exhausted or the split makes no progress (all tuples land
        in one child — e.g. a single heavy-hitter key), in which case the
        caller spills instead.  Nothing is charged for an abandoned split.
        """
        if depth >= self.max_recursion_depth:
            return None
        pair_bytes = build_part.nbytes + probe_part.nbytes
        needed = int(
            np.ceil(pair_bytes * self.overhead_factor / self._buffer_bytes)
        )
        bits = max(1, int(np.ceil(np.log2(max(needed, 2)))))
        bits = min(bits, MAX_SUPER_PARTITION_BITS)
        n_children = 1 << bits
        child_seed = self._child_seed(seed, depth)
        build_ids = radix_of(build_part.keys, bits, pass_index=0, seed=child_seed)
        probe_ids = radix_of(probe_part.keys, bits, pass_index=0, seed=child_seed)
        build_children = _split_by_partition(
            build_part, build_ids, n_children, build_part.name
        )
        probe_children = _split_by_partition(
            probe_part, probe_ids, n_children, probe_part.name
        )
        child_pairs = list(zip(build_children, probe_children))
        largest = max(b.nbytes + p.nbytes for b, p in child_pairs)
        if largest >= pair_bytes:
            return None
        return child_pairs, child_seed

    def _join_pair_task(
        self,
        build_part: Relation,
        probe_part: Relation,
        seed: int,
        events: list[_Event],
        stats: ExternalJoinStats,
        depth: int = 0,
    ) -> list[JoinResult]:
        """Join one pair: fit, or recurse, or spill.  Records events only."""
        stats.max_pair_depth = max(stats.max_pair_depth, depth)
        if self._fits(build_part, probe_part):
            return [self._buffered_join(build_part, probe_part, events, stats)]
        split = self._try_recursive_split(build_part, probe_part, seed, depth)
        if split is None:
            return self._spill_join(build_part, probe_part, events, stats)
        child_pairs, child_seed = split
        stats.recursive_splits += 1
        # Re-partitioning stages the pair through the buffer again.
        self._charge_staging(build_part, events)
        self._charge_staging(probe_part, events)
        results: list[JoinResult] = []
        for child_build, child_probe in child_pairs:
            if len(child_build) == 0 or len(child_probe) == 0:
                continue
            results.extend(
                self._join_pair_task(
                    child_build, child_probe, child_seed, events, stats, depth + 1
                )
            )
        return results

    # ------------------------------------------------------------------
    def run(self, build: Relation, probe: Relation, seed: int = 7) -> ExternalJoinRun:
        n_parts = plan_super_partitions(
            build, probe, self.machine, self.overhead_factor
        )
        breakdown = ExternalJoinBreakdown()
        stats = ExternalJoinStats()

        if n_parts == 1:
            # Everything fits: a single in-buffer join, no staging.
            stats.max_in_buffer_bytes = build.nbytes + probe.nbytes
            join_s, result = self.pair_joiner(build, probe)
            breakdown.join_s = join_s
            return ExternalJoinRun(
                breakdown=breakdown,
                result=result,
                n_super_partitions=1,
                fits_in_buffer=True,
                stats=stats,
            )

        bits = int(np.log2(n_parts))
        build_ids = radix_of(build.keys, bits, pass_index=0, seed=seed)
        probe_ids = radix_of(probe.keys, bits, pass_index=0, seed=seed)

        # Stage 1: partition chunk by chunk inside the buffer, copying the
        # chunk in and the produced partitions back out.
        staging_events: list[_Event] = []
        self._charge_staging(build, staging_events)
        self._charge_staging(probe, staging_events)
        self._replay(staging_events, breakdown)

        # Stage 2: join each linked partition pair inside the buffer.  The
        # pairs are carved out of one stable radix sort per relation; each pair
        # task records its charges as events so independent pairs can run on
        # worker threads, and the driver replays every pair's events in pair
        # order — the breakdown accumulates bit-identically to the serial
        # loop regardless of completion order.
        build_parts = _split_by_partition(build, build_ids, n_parts, "R")
        probe_parts = _split_by_partition(probe, probe_ids, n_parts, "S")
        pairs = [
            (build_part, probe_part)
            for build_part, probe_part in zip(build_parts, probe_parts)
            if len(build_part) and len(probe_part)
        ]

        def pair_task(
            pair: tuple[Relation, Relation]
        ) -> tuple[list[_Event], list[JoinResult], ExternalJoinStats]:
            events: list[_Event] = []
            local_stats = ExternalJoinStats()
            pair_results = self._join_pair_task(
                pair[0], pair[1], seed, events, local_stats
            )
            return events, pair_results, local_stats

        if self.parallel and len(pairs) > 1:
            max_workers = max(1, self.n_workers or min(os_cpu_count(), 8))
            with ThreadPoolExecutor(max_workers=max_workers) as executor:
                outcomes = list(executor.map(pair_task, pairs))
        else:
            outcomes = [pair_task(pair) for pair in pairs]

        results: list[JoinResult] = []
        for events, pair_results, local_stats in outcomes:
            self._replay(events, breakdown)
            results.extend(pair_results)
            stats.merge(local_stats)

        return ExternalJoinRun(
            breakdown=breakdown,
            result=JoinResult.concat(results),
            n_super_partitions=n_parts,
            fits_in_buffer=False,
            stats=stats,
        )


def os_cpu_count() -> int:
    """CPU count with a floor of 1 (module-level for test monkeypatching)."""
    import os

    return os.cpu_count() or 1
