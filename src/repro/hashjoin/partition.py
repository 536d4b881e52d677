"""Radix partitioning and the partitioned hash join (PHJ, Algorithm 2).

The paper adopts the radix hash join [5]: both relations are split into the
same partitions by one or more passes over a number of lower bits of the
integer hash values (steps ``n1``–``n3`` per pass), after which a simple hash
join is applied to each partition pair.  Partitioning keeps each per-pair hash
table small enough to stay cache resident, trading extra sequential passes for
fewer memory stalls during the probe.
"""

from __future__ import annotations

# repro: kernel
from dataclasses import dataclass

import numpy as np

from ..data.relation import Relation
from ..hardware.cache import WorkingSet
from ..opencl.allocator import MemoryAllocator
from .hashtable import BUCKET_HEADER_BYTES, HashTable, radix_digits
from .murmur import (
    MURMUR_INSTRUCTIONS_PER_KEY,
    bucket_of_hashed,
    murmur2,
    radix_of,
    radix_span_of,
)
from .result import JoinResult
from .simple import HashJoinConfig, arena_capacity_for, execute_build, execute_probe
from .steps import (
    PARTITION_STEPS,
    PerTupleWork,
    StepExecution,
    StepSeries,
)

PARTITION_HEADER_VISIT_INSTRUCTIONS = 10.0
PARTITION_INSERT_INSTRUCTIONS = 15.0
PARTITION_SLOT_BYTES = 8


class PartitionError(RuntimeError):
    """Raised for invalid partitioning configurations."""


#: Ceiling on total radix bits enforced by :class:`PartitionConfig`.
MAX_RADIX_BITS = 24


@dataclass(frozen=True)
class PartitionConfig:
    """Radix-partitioning configuration.

    The number of passes and bits per pass are tuned to the memory hierarchy
    (TLB and caches) in the paper; :func:`plan_partitioning` picks them from a
    target per-partition size.
    """

    bits_per_pass: int = 6
    n_passes: int = 1

    def __post_init__(self) -> None:
        if self.bits_per_pass <= 0 or self.n_passes <= 0:
            raise PartitionError("bits_per_pass and n_passes must be positive")
        if self.bits_per_pass * self.n_passes > MAX_RADIX_BITS:
            raise PartitionError(
                f"more than {MAX_RADIX_BITS} radix bits is not supported"
            )

    @property
    def total_bits(self) -> int:
        return self.bits_per_pass * self.n_passes

    @property
    def n_partitions(self) -> int:
        return 1 << self.total_bits

    @property
    def fanout_per_pass(self) -> int:
        return 1 << self.bits_per_pass


def plan_partitioning(
    build_tuples: int,
    target_partition_tuples: int = 64_000,
    max_bits_per_pass: int = 8,
) -> PartitionConfig:
    """Choose radix bits/passes so each partition holds about the target tuples.

    Huge build sides whose ideal fan-out would exceed the 24-radix-bit
    ceiling fall back to larger-than-target partitions instead of emitting a
    configuration that :class:`PartitionConfig` rejects mid-run.
    """
    if build_tuples <= 0:
        return PartitionConfig(bits_per_pass=1, n_passes=1)
    if target_partition_tuples <= 0:
        raise PartitionError("target_partition_tuples must be positive")
    needed = max(1, int(np.ceil(build_tuples / target_partition_tuples)))
    total_bits = max(1, int(np.ceil(np.log2(needed))))
    total_bits = min(total_bits, MAX_RADIX_BITS)
    n_passes = max(1, int(np.ceil(total_bits / max_bits_per_pass)))
    bits_per_pass = int(np.ceil(total_bits / n_passes))
    if bits_per_pass * n_passes > MAX_RADIX_BITS:
        # Rounding bits up per pass overshot the ceiling: shrink the passes
        # (larger partitions) rather than raising from deep inside a run.
        bits_per_pass = MAX_RADIX_BITS // n_passes
    return PartitionConfig(bits_per_pass=bits_per_pass, n_passes=n_passes)


@dataclass
class PartitionSet:
    """The output of radix partitioning one relation.

    ``key_hashes`` carries the murmur values the fused partition kernel
    evaluated (one per tuple), from which each pair table takes its buckets;
    the per-pass reference kernel carries none.
    """

    relation: Relation
    partition_ids: np.ndarray
    config: PartitionConfig
    key_hashes: np.ndarray | None = None

    @property
    def n_partitions(self) -> int:
        return self.config.n_partitions

    def partitions_with_hashes(self) -> dict[int, tuple[Relation, np.ndarray]]:
        """(partition relation, its slice of the carried hashes) under each
        partition id that holds tuples, in ascending id order."""
        if self.key_hashes is None:
            raise PartitionError("the partition set carries no hashes")
        pids, parts, hashes = split_relation_by_partition(
            self.relation,
            self.partition_ids,
            self.n_partitions,
            self.relation.name,
            key_hashes=self.key_hashes,
        )
        return dict(zip(pids, zip(parts, hashes)))


def split_relation_by_partition(
    relation: Relation,
    ids: np.ndarray,
    n_parts: int,
    label: str,
    key_hashes: np.ndarray | None = None,
) -> tuple[list[int], list[Relation], list[np.ndarray]]:
    """Carve a relation into the partitions its tuples occupy, with one
    stable radix sort.

    Returns the occupied partition ids in ascending order, the part under
    each (named ``label[pid]``) and, when ``key_hashes`` is given, its slice
    per part (else no slices).  Part ``pid`` equals
    ``relation.take(np.flatnonzero(ids == pid))``: a stable sort keeps
    ascending positions inside every partition.  The ids are sorted as
    uint16 digits (:func:`~repro.hashjoin.hashtable.radix_digits`), which
    numpy radix-sorts in linear time, and the occupied ids and their bounds
    are read off the sorted ids, so nothing is allocated per possible
    partition.  The single split kernel behind
    :meth:`PartitionSet.partitions_with_hashes` and the external join's
    super-partition staging.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= n_parts):
        raise PartitionError(f"partition ids out of range [0, {n_parts})")
    order = np.lexsort(radix_digits(ids))
    sorted_ids = ids[order]
    first = np.ones(sorted_ids.size, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    pids = sorted_ids[starts].tolist()
    bounds = list(zip(starts.tolist(), [*starts[1:].tolist(), ids.size]))
    sorted_rel = relation.take(order)
    parts = [
        sorted_rel.slice(start, stop, name=f"{label}[{pid}]")
        for pid, (start, stop) in zip(pids, bounds)
    ]
    if key_hashes is None:
        return pids, parts, []
    sorted_hashes = key_hashes[order]
    return pids, parts, [sorted_hashes[start:stop] for start, stop in bounds]


@dataclass
class PartitionPhaseOutcome:
    """Step series of all partitioning passes plus the final partition sets."""

    series_per_pass: list[StepSeries]
    build_partitions: PartitionSet
    probe_partitions: PartitionSet


#: One partition pair: (build part, probe part, build hashes, probe hashes).
PartitionPair = tuple[Relation, Relation, np.ndarray, np.ndarray]


@dataclass
class PHJRun:
    """A fully executed partitioned hash join."""

    partition_phase: PartitionPhaseOutcome
    build_series: StepSeries
    probe_series: StepSeries
    result: JoinResult
    config: HashJoinConfig
    partition_config: PartitionConfig
    #: Largest per-pair hash-table size in bytes (cache-residency indicator).
    max_pair_table_bytes: int = 0

    @property
    def step_series(self) -> list[StepSeries]:
        return [*self.partition_phase.series_per_pass, self.build_series, self.probe_series]


# ---------------------------------------------------------------------------
# Partition phase: n1 .. n3 per pass
# ---------------------------------------------------------------------------
def final_partition_ids(
    keys: np.ndarray, config: PartitionConfig, fused: bool = True
) -> np.ndarray:
    """Partition id after all passes (the concatenation of per-pass radix bits).

    The fused kernel evaluates the hash once and masks out all passes' bits
    in one shot; ``fused=False`` keeps the per-pass loop (one hash evaluation
    and shift/OR per pass) as the bit-matched reference.
    """
    if fused:
        return radix_span_of(keys, config.total_bits)
    ids = np.zeros(np.asarray(keys).shape[0], dtype=np.int64)
    for pass_index in range(config.n_passes):
        digits = radix_of(keys, config.bits_per_pass, pass_index)
        ids |= digits << (config.bits_per_pass * pass_index)
    return ids


def _partition_pass_series(
    n: int,
    pass_index: int,
    config: PartitionConfig,
    allocator: MemoryAllocator,
    n_live_partitions: int,
    shared_between_devices: bool = True,
) -> StepSeries:
    """One radix-partitioning pass over ``n`` tuples (steps n1-n3).

    ``n_live_partitions`` is the number of partitions existing after this
    pass, which determines the size of the partition-header working set.
    The per-tuple work of the partition steps is uniform, so the series
    needs only the tuple count, not the keys.
    """
    # n1: compute the partition number (hash + bit extraction).
    n1 = StepExecution(
        step=PARTITION_STEPS[0],
        work=PerTupleWork(
            n_tuples=n,
            instructions=MURMUR_INSTRUCTIONS_PER_KEY + 10.0,
            sequential_bytes=12.0,
        ),
        working_set=None,
        intermediate_bytes_per_tuple=12.0,
    )

    headers_ws = WorkingSet(
        bytes=float(n_live_partitions * BUCKET_HEADER_BYTES),
        shared_between_devices=shared_between_devices,
    )
    # n2: visit the partition header (histogram / header latch).
    n2 = StepExecution(
        step=PARTITION_STEPS[1],
        work=PerTupleWork(
            n_tuples=n,
            instructions=PARTITION_HEADER_VISIT_INSTRUCTIONS,
            random_accesses=1.0,
            global_atomics=1.0,
        ),
        working_set=headers_ws,
        conflict_ratio={"cpu": 0.02, "gpu": 0.05},
        intermediate_bytes_per_tuple=8.0,
    )

    # n3: write the <key, rid> pair into its partition's output buffer.
    galloc, lalloc = allocator.atomics_per_request(PARTITION_SLOT_BYTES)
    allocator.bulk_allocate(n, PARTITION_SLOT_BYTES)
    n3 = StepExecution(
        step=PARTITION_STEPS[2],
        work=PerTupleWork(
            n_tuples=n,
            instructions=PARTITION_INSERT_INSTRUCTIONS,
            random_accesses=1.0,
            sequential_bytes=float(PARTITION_SLOT_BYTES),
            global_atomics=galloc,
            local_atomics=lalloc,
        ),
        working_set=WorkingSet(
            bytes=float(n * PARTITION_SLOT_BYTES),
            shared_between_devices=shared_between_devices,
        ),
        conflict_ratio={
            "cpu": allocator.conflict_ratio("cpu", PARTITION_SLOT_BYTES),
            "gpu": allocator.conflict_ratio("gpu", PARTITION_SLOT_BYTES),
        },
        intermediate_bytes_per_tuple=0.0,
    )
    return StepSeries(phase="partition", executions=[n1, n2, n3])


def execute_partition_phase(
    build: Relation,
    probe: Relation,
    partition_config: PartitionConfig,
    join_config: HashJoinConfig,
    allocator: MemoryAllocator,
    fused: bool = True,
) -> PartitionPhaseOutcome:
    """Partition both relations; one combined step series per pass.

    The fused kernel hashes each relation once and derives every pass's
    radix digits from that single evaluation (the per-pass step series need
    only the tuple count); ``fused=False`` keeps the per-pass id loop as the
    bit-matched reference, and carries no hashes.
    """
    series: list[StepSeries] = []
    n_combined = len(build) + len(probe)
    live = 1
    for pass_index in range(partition_config.n_passes):
        live *= partition_config.fanout_per_pass
        series.append(
            _partition_pass_series(
                n_combined,
                pass_index,
                partition_config,
                allocator,
                n_live_partitions=live,
                shared_between_devices=join_config.shared_hash_table,
            )
        )

    if fused:
        # One hash evaluation per relation: the partition ids are its low
        # bits, and the values are carried so each pair table takes its
        # buckets from them (b1/p1 consume the same murmur value).
        mask = np.uint64(partition_config.n_partitions - 1)
        build_hashes = murmur2(build.keys)
        probe_hashes = murmur2(probe.keys)
        build_ids = (build_hashes & mask).astype(np.int64)
        probe_ids = (probe_hashes & mask).astype(np.int64)
    else:
        build_hashes = probe_hashes = None
        build_ids = final_partition_ids(build.keys, partition_config, fused=False)
        probe_ids = final_partition_ids(probe.keys, partition_config, fused=False)
    return PartitionPhaseOutcome(
        series_per_pass=series,
        build_partitions=PartitionSet(
            build, build_ids, partition_config, key_hashes=build_hashes
        ),
        probe_partitions=PartitionSet(
            probe, probe_ids, partition_config, key_hashes=probe_hashes
        ),
    )


def partition_pairs(
    build: Relation,
    probe: Relation,
    partition_config: PartitionConfig,
    config: HashJoinConfig,
) -> tuple[PartitionPhaseOutcome, list[PartitionPair], MemoryAllocator]:
    """Partition both relations into the pairs that PHJ and PHJ-PL' join.

    Returns the partition phase, the pairs with at least one tuple in
    partition order, and the allocator the partition phase drew from, which
    the pair tables draw from next.  Each side's occupied partitions are read
    off its sorted ids, and a side holding no tuple of a pair gets an empty
    part, so neither time nor memory follows the partition count.
    """
    allocator = config.make_allocator(
        arena_capacity_for(len(build), len(probe)) + (len(build) + len(probe)) * 16
    )
    phase = execute_partition_phase(build, probe, partition_config, config, allocator)
    build_parts = phase.build_partitions.partitions_with_hashes()
    probe_parts = phase.probe_partitions.partitions_with_hashes()
    pairs: list[PartitionPair] = []
    for pid in sorted(build_parts.keys() | probe_parts.keys()):
        build_part, build_hashes = build_parts.get(pid) or _no_tuples(build, pid)
        probe_part, probe_hashes = probe_parts.get(pid) or _no_tuples(probe, pid)
        pairs.append((build_part, probe_part, build_hashes, probe_hashes))
    return phase, pairs, allocator


def _no_tuples(relation: Relation, pid: int) -> tuple[Relation, np.ndarray]:
    """Partition ``pid`` of a relation that holds none of its tuples."""
    return relation.slice(0, 0, name=f"{relation.name}[{pid}]"), np.empty(0, dtype=np.uint64)


# ---------------------------------------------------------------------------
# Joining the partition pairs with fine-grained SHJ steps
# ---------------------------------------------------------------------------
def _collapse_scalar(values: list[np.ndarray | float]) -> tuple[bool, float]:
    """Whether all per-pair quantities are one shared scalar (and which).

    NaN work values are collapsible too: NaN never compares equal to itself,
    so the historical ``{float(v)}`` set membership silently broadcast
    all-NaN scalars to full per-tuple arrays.
    """
    if any(isinstance(v, np.ndarray) for v in values):
        return False, 0.0
    first = float(values[0])
    if all(float(v) == first for v in values[1:]):
        return True, first
    if np.isnan(first) and all(np.isnan(float(v)) for v in values[1:]):
        return True, first
    return False, 0.0


def _concat_per_tuple(values: list[np.ndarray | float], lengths: list[int]) -> np.ndarray | float:
    """Concatenate one per-tuple work quantity across all pairs."""
    collapsed, scalar = _collapse_scalar(values)
    if collapsed:
        return scalar
    arrays = [
        v if isinstance(v, np.ndarray) else np.full(n, float(v))
        for v, n in zip(values, lengths)
    ]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.float64)


def concat_step_series(
    series_list: list[StepSeries],
    phase: str,
    working_set: WorkingSet | None,
) -> StepSeries:
    """Merge the same-phase step series of all partition pairs into one.

    The merged series processes the concatenation of all pairs' tuples; the
    per-step working set is overridden with the per-pair table size because
    that is what the probe's random accesses actually touch.
    """
    if not series_list:
        raise PartitionError("no step series to concatenate")
    n_steps = series_list[0].n_steps
    merged: list[StepExecution] = []
    for step_idx in range(n_steps):
        executions = [series[step_idx] for series in series_list]
        lengths = [e.n_tuples for e in executions]
        work = PerTupleWork(
            n_tuples=int(sum(lengths)),
            instructions=_concat_per_tuple([e.work.instructions for e in executions], lengths),
            random_accesses=_concat_per_tuple([e.work.random_accesses for e in executions], lengths),
            sequential_bytes=_concat_per_tuple([e.work.sequential_bytes for e in executions], lengths),
            global_atomics=_concat_per_tuple([e.work.global_atomics for e in executions], lengths),
            local_atomics=_concat_per_tuple([e.work.local_atomics for e in executions], lengths),
        )
        template = executions[0]
        conflict = {
            kind: max(e.conflict_ratio.get(kind, 0.0) for e in executions)
            for kind in ("cpu", "gpu")
        }
        merged.append(
            StepExecution(
                step=template.step,
                work=work,
                working_set=working_set if template.working_set is not None else None,
                conflict_ratio=conflict,
                intermediate_bytes_per_tuple=template.intermediate_bytes_per_tuple,
                grouped=template.grouped,
            )
        )
    return StepSeries(phase=phase, executions=merged)


def pair_table(
    build_hashes: np.ndarray,
    probe_hashes: np.ndarray,
    config: HashJoinConfig,
    allocator: MemoryAllocator,
) -> tuple[HashTable, np.ndarray, np.ndarray]:
    """A partition pair's empty hash table and both sides' bucket numbers.

    The table is sized for the pair's build side.  Both sides take their
    buckets from the murmur values carried through partitioning (b1/p1
    stand for that same hash evaluation), so equal keys meet in one bucket.
    This is where every partition pair's buckets are chosen.
    """
    table = HashTable(
        n_buckets=config.bucket_count_for(max(len(build_hashes), 1)),
        allocator=allocator,
        shared_between_devices=config.shared_hash_table,
    )
    return (
        table,
        bucket_of_hashed(build_hashes, table.n_buckets),
        bucket_of_hashed(probe_hashes, table.n_buckets),
    )


def join_partition_pair(
    build_part: Relation,
    probe_part: Relation,
    build_hashes: np.ndarray,
    probe_hashes: np.ndarray,
    config: HashJoinConfig,
    allocator: MemoryAllocator,
) -> tuple[StepSeries, StepSeries, JoinResult, int]:
    """Join one partition pair with the fine-grained SHJ steps.

    Returns ``(build series, probe series, result, table bytes)``.
    """
    table, build_buckets, probe_buckets = pair_table(
        build_hashes, probe_hashes, config, allocator
    )
    build_outcome = execute_build(build_part, table, config, buckets=build_buckets)
    probe_outcome = execute_probe(probe_part, table, config, buckets=probe_buckets)
    return build_outcome.series, probe_outcome.series, probe_outcome.result, table.nbytes


class PartitionedHashJoin:
    """The PHJ operator: radix partitioning followed by per-pair SHJ."""

    def __init__(
        self,
        config: HashJoinConfig | None = None,
        partition_config: PartitionConfig | None = None,
        target_partition_tuples: int = 64_000,
    ) -> None:
        self.config = config or HashJoinConfig()
        self.partition_config = partition_config
        self.target_partition_tuples = target_partition_tuples

    def run(self, build: Relation, probe: Relation) -> PHJRun:
        partition_config = self.partition_config or plan_partitioning(
            len(build), self.target_partition_tuples
        )
        partition_phase, pairs, allocator = partition_pairs(
            build, probe, partition_config, self.config
        )
        if not pairs:
            # Both inputs are empty: one empty pair still yields build and
            # probe series that carry every step, at zero tuples.
            no_hashes = np.empty(0, dtype=np.uint64)
            pairs = [(build, probe, no_hashes, no_hashes)]

        outcomes = [join_partition_pair(*pair, self.config, allocator) for pair in pairs]

        build_series_per_pair: list[StepSeries] = []
        probe_series_per_pair: list[StepSeries] = []
        results: list[JoinResult] = []
        max_table_bytes = 0
        for build_series_one, probe_series_one, result, table_bytes in outcomes:
            build_series_per_pair.append(build_series_one)
            probe_series_per_pair.append(probe_series_one)
            results.append(result)
            max_table_bytes = max(max_table_bytes, table_bytes)

        pair_ws = WorkingSet(
            bytes=float(max_table_bytes),
            shared_between_devices=self.config.shared_hash_table,
        )
        build_series = concat_step_series(build_series_per_pair, "build", pair_ws)
        probe_series = concat_step_series(probe_series_per_pair, "probe", pair_ws)

        return PHJRun(
            partition_phase=partition_phase,
            build_series=build_series,
            probe_series=probe_series,
            result=JoinResult.concat(results),
            config=self.config,
            partition_config=partition_config,
            max_pair_table_bytes=max_table_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedHashJoin(config={self.config!r}, "
            f"partition_config={self.partition_config!r})"
        )
