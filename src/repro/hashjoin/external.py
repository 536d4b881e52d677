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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.relation import TUPLE_BYTES, Relation
from ..hardware.machine import Machine, coupled_machine
from .murmur import radix_of
from .partition import MAX_RADIX_BITS, split_relation_by_partition
from .result import JoinResult

#: Chunk size used by the paper when staging data through the buffer.
DEFAULT_CHUNK_TUPLES = 16_000_000

#: Bytes of one emitted match (two 4-byte rids), charged on pair copy-out.
RESULT_PAIR_BYTES = 8

#: Radix-bit ceiling shared with ``PartitionConfig``/``radix_of``.
MAX_SUPER_PARTITION_BITS = MAX_RADIX_BITS


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


def _split_pairs(
    build: Relation, probe: Relation, bits: int, seed: int, labels: tuple[str, str]
) -> list[tuple[Relation, Relation]]:
    """Radix-split both sides on ``bits`` bits of their keys' hashes.

    Returns the pairs under the partition ids that both sides hold, in
    ascending id order.
    """
    build_pids, build_parts, _ = split_relation_by_partition(
        build, radix_of(build.keys, bits, pass_index=0, seed=seed), 1 << bits, labels[0]
    )
    probe_pids, probe_parts, _ = split_relation_by_partition(
        probe, radix_of(probe.keys, bits, pass_index=0, seed=seed), 1 << bits, labels[1]
    )
    probe_by_pid = dict(zip(probe_pids, probe_parts))
    return [
        (build_part, probe_by_pid[pid])
        for pid, build_part in zip(build_pids, build_parts)
        if pid in probe_by_pid
    ]


def plan_super_partitions(
    build: Relation,
    probe: Relation,
    machine: Machine,
    overhead_factor: float = 2.0,
) -> int:
    """Number of first-level partitions so one pair fits the zero copy buffer.

    The fan-out is a power of two so radix bits describe it, and never
    exceeds ``2**MAX_SUPER_PARTITION_BITS`` — the ceiling
    ``PartitionConfig``/``radix_of`` enforce.  Past the ceiling the fan-out
    is clamped; stage-2 recursion and spilling handle the overflowing pairs.
    """
    buffer_bytes = machine.memory.zero_copy.capacity_bytes
    total_bytes = (build.nbytes + probe.nbytes) * overhead_factor
    if total_bytes <= buffer_bytes:
        return 1
    needed = int(np.ceil(total_bytes / buffer_bytes))
    bits = min(int(np.ceil(np.log2(needed))), MAX_SUPER_PARTITION_BITS)
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
    ) -> None:
        """``partition_rate_tuples_per_s`` is the co-processed radix
        partitioning throughput used to charge the staging passes; the default
        matches the in-buffer partitioning rate of the PHJ variants.

        ``overhead_factor`` models the working-space multiplier of an
        in-buffer join (hash table + output next to the inputs); a pair fits
        when ``(build + probe bytes) * overhead_factor`` is within the
        buffer.  ``max_recursion_depth`` bounds the re-partitioning levels
        below the super partitions.

        Role reversal is always on: every in-buffer join builds on the
        smaller side of its pair.  The pairs are joined one after another,
        and each charge goes straight into the run's breakdown: stage-1
        staging first, then pair by pair.
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

    # ------------------------------------------------------------------
    @property
    def _buffer_bytes(self) -> int:
        return self.machine.memory.zero_copy.capacity_bytes

    def _fits(self, build_part: Relation, probe_part: Relation) -> bool:
        pair_bytes = build_part.nbytes + probe_part.nbytes
        return pair_bytes * self.overhead_factor <= self._buffer_bytes

    def _charge_copy(self, nbytes: int, breakdown: ExternalJoinBreakdown) -> None:
        breakdown.data_copy_s += self.machine.memory.copy_time(nbytes)

    def _charge_staging(self, relation: Relation, breakdown: ExternalJoinBreakdown) -> None:
        """Chunked copy-in / partition / copy-out charges for one relation."""
        n_chunks = int(np.ceil(len(relation) / self.chunk_tuples))
        for chunk in range(n_chunks):
            start = chunk * self.chunk_tuples
            stop = min(start + self.chunk_tuples, len(relation))
            chunk_bytes = (stop - start) * TUPLE_BYTES
            self._charge_copy(chunk_bytes, breakdown)  # in
            breakdown.partition_s += (stop - start) / self.partition_rate
            self._charge_copy(chunk_bytes, breakdown)  # out

    # ------------------------------------------------------------------
    # In-buffer pair joins (role reversal + result copy-out accounting)
    # ------------------------------------------------------------------
    def _invoke_joiner(
        self,
        build_side: Relation,
        probe_side: Relation,
        swapped: bool,
        breakdown: ExternalJoinBreakdown,
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
        breakdown.join_s += float(join_s)
        # The matching rid pairs leave the buffer: charge their copy-out
        # (the historical accounting only charged the pair's copy-in).
        self._charge_copy(result.match_count * RESULT_PAIR_BYTES, breakdown)
        return result

    def _buffered_join(
        self,
        build_part: Relation,
        probe_part: Relation,
        breakdown: ExternalJoinBreakdown,
        stats: ExternalJoinStats,
    ) -> JoinResult:
        """Join one fitting pair inside the buffer (build on the smaller side)."""
        self._charge_copy(build_part.nbytes + probe_part.nbytes, breakdown)
        if len(probe_part) < len(build_part):
            return self._invoke_joiner(probe_part, build_part, True, breakdown, stats)
        return self._invoke_joiner(build_part, probe_part, False, breakdown, stats)

    def _spill_join(
        self,
        build_part: Relation,
        probe_part: Relation,
        breakdown: ExternalJoinBreakdown,
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
        if len(probe_part) < len(build_part):
            resident, streamed, swap = probe_part, build_part, True
        else:
            resident, streamed, swap = build_part, probe_part, False

        results: list[JoinResult] = []
        if len(resident) < budget_tuples:
            stream_chunk = budget_tuples - len(resident)
            self._charge_copy(resident.nbytes, breakdown)
            for piece in streamed.split_chunks(stream_chunk):
                self._charge_copy(piece.nbytes, breakdown)
                results.append(
                    self._invoke_joiner(resident, piece, swap, breakdown, stats)
                )
        else:
            half = max(budget_tuples // 2, 1)
            for resident_piece in resident.split_chunks(half):
                self._charge_copy(resident_piece.nbytes, breakdown)
                for streamed_piece in streamed.split_chunks(half):
                    self._charge_copy(streamed_piece.nbytes, breakdown)
                    results.append(
                        self._invoke_joiner(
                            resident_piece, streamed_piece, swap, breakdown, stats
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

        Returns ``(child pairs, child seed)``, where the child pairs are the
        children that hold tuples of both sides, or ``None`` when the depth
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
        child_seed = self._child_seed(seed, depth)
        child_pairs = _split_pairs(
            build_part, probe_part, bits, child_seed, (build_part.name, probe_part.name)
        )
        largest = max((b.nbytes + p.nbytes for b, p in child_pairs), default=0)
        if largest >= pair_bytes:
            return None
        return child_pairs, child_seed

    def _join_pair(
        self,
        build_part: Relation,
        probe_part: Relation,
        seed: int,
        breakdown: ExternalJoinBreakdown,
        stats: ExternalJoinStats,
        depth: int = 0,
    ) -> list[JoinResult]:
        """Join one pair: fit, or recurse, or spill."""
        stats.max_pair_depth = max(stats.max_pair_depth, depth)
        if self._fits(build_part, probe_part):
            return [self._buffered_join(build_part, probe_part, breakdown, stats)]
        split = self._try_recursive_split(build_part, probe_part, seed, depth)
        if split is None:
            return self._spill_join(build_part, probe_part, breakdown, stats)
        child_pairs, child_seed = split
        stats.recursive_splits += 1
        # Re-partitioning stages the pair through the buffer again.
        self._charge_staging(build_part, breakdown)
        self._charge_staging(probe_part, breakdown)
        results: list[JoinResult] = []
        for child_build, child_probe in child_pairs:
            results.extend(
                self._join_pair(
                    child_build, child_probe, child_seed, breakdown, stats, depth + 1
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

        # Stage 1: partition chunk by chunk inside the buffer, copying the
        # chunk in and the produced partitions back out.
        self._charge_staging(build, breakdown)
        self._charge_staging(probe, breakdown)

        # Stage 2: join each linked partition pair inside the buffer, in
        # partition order.  The pairs are carved out of one stable radix
        # sort per relation.
        pairs = _split_pairs(build, probe, int(np.log2(n_parts)), seed, ("R", "S"))
        results: list[JoinResult] = []
        for build_part, probe_part in pairs:
            results.extend(self._join_pair(build_part, probe_part, seed, breakdown, stats))

        return ExternalJoinRun(
            breakdown=breakdown,
            result=JoinResult.concat(results),
            n_super_partitions=n_parts,
            fits_in_buffer=False,
            stats=stats,
        )
