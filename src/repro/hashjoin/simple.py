"""The simple hash join (SHJ) decomposed into fine-grained steps.

Algorithm 1 of the paper: the build phase inserts every tuple of ``R`` into
the chained hash table (steps ``b1``–``b4``); the probe phase looks up every
tuple of ``S`` (steps ``p1``–``p4``) and emits matching rid pairs.  The
executor here really performs both phases (over numpy arrays via
:class:`~repro.hashjoin.hashtable.HashTable`) and records per-tuple work so
that any co-processing scheme can later split each step between the CPU and
the GPU at an arbitrary ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..data.relation import Relation
from ..hardware.cache import WorkingSet
from ..opencl.allocator import MemoryAllocator, make_allocator
from .hashtable import (
    BUCKET_HEADER_BYTES,
    HEADER_VISIT_INSTRUCTIONS,
    KEY_NODE_BYTES,
    KEY_SEARCH_BASE_INSTRUCTIONS,
    KEY_SEARCH_PER_NODE_INSTRUCTIONS,
    MATCH_VISIT_BASE_INSTRUCTIONS,
    MATCH_VISIT_PER_MATCH_INSTRUCTIONS,
    RID_INSERT_INSTRUCTIONS,
    RID_NODE_BYTES,
    HashTable,
    default_bucket_count,
)
from .murmur import MURMUR_INSTRUCTIONS_PER_KEY, bucket_of
from .result import JoinResult
from .steps import (
    BUILD_STEPS,
    PROBE_STEPS,
    PerTupleWork,
    StepExecution,
    StepSeries,
)

#: Extra per-tuple instructions and bytes paid when the divergence-grouping
#: optimisation pre-sorts the inputs of a workload-dependent step.
GROUPING_INSTRUCTIONS_PER_TUPLE = 6.0
GROUPING_SEQUENTIAL_BYTES_PER_TUPLE = 8.0


@dataclass(frozen=True)
class HashJoinConfig:
    """Tuning knobs shared by all hash-join variants (Section 3.3)."""

    #: Number of hash buckets; ``None`` sizes the table to ~1 key per bucket.
    n_buckets: int | None = None
    #: "basic" (one global atomic per allocation) or "block" (the optimised
    #: allocator of the paper).
    allocator_kind: str = "block"
    #: Block size of the optimised allocator (Figure 11; best ~2 KB).
    allocator_block_bytes: int = 2048
    #: Shared hash table between the CPU and the GPU vs. separate per-device
    #: tables merged afterwards (Figure 10).
    shared_hash_table: bool = True
    #: Workload-divergence grouping of the workload-dependent steps.
    grouping: bool = False

    def make_allocator(self, capacity_bytes: int) -> MemoryAllocator:
        return make_allocator(
            self.allocator_kind,
            capacity_bytes=capacity_bytes,
            block_bytes=self.allocator_block_bytes,
        )

    def bucket_count_for(self, expected_keys: int) -> int:
        if self.n_buckets is not None:
            return self.n_buckets
        return default_bucket_count(expected_keys)


@dataclass
class BuildOutcome:
    """Result of executing the build step series."""

    series: StepSeries
    table: HashTable


@dataclass
class ProbeOutcome:
    """Result of executing the probe step series."""

    series: StepSeries
    result: JoinResult


@dataclass
class SHJRun:
    """A fully executed simple hash join."""

    build: BuildOutcome
    probe: ProbeOutcome
    config: HashJoinConfig

    @property
    def result(self) -> JoinResult:
        return self.probe.result

    @property
    def step_series(self) -> list[StepSeries]:
        return [self.build.series, self.probe.series]

    @property
    def table(self) -> HashTable:
        return self.build.table


def arena_capacity_for(build_tuples: int, probe_tuples: int) -> int:
    """Pre-allocated arena size able to hold the table and the join output."""
    table_bytes = build_tuples * (KEY_NODE_BYTES + RID_NODE_BYTES)
    output_bytes = max(probe_tuples, build_tuples) * 8 * 4
    return max(table_bytes * 2 + output_bytes, 1 << 16)


def make_table(
    build_tuples: int,
    probe_tuples: int,
    config: HashJoinConfig,
    allocator: MemoryAllocator | None = None,
) -> HashTable:
    """Create a hash table sized for ``build_tuples`` build-side tuples."""
    allocator = allocator or config.make_allocator(
        arena_capacity_for(build_tuples, probe_tuples)
    )
    return HashTable(
        n_buckets=config.bucket_count_for(build_tuples),
        allocator=allocator,
        shared_between_devices=config.shared_hash_table,
    )


# ---------------------------------------------------------------------------
# Build phase: b1 .. b4
# ---------------------------------------------------------------------------
def execute_build(
    build: Relation,
    table: HashTable,
    config: HashJoinConfig | None = None,
    buckets: np.ndarray | None = None,
) -> BuildOutcome:
    """Run the build phase of SHJ on ``build`` into ``table``.

    ``buckets`` optionally carries precomputed bucket numbers (the PHJ
    driver derives them from the hash values the partition phase already
    evaluated); they must equal ``bucket_of(build.keys, table.n_buckets)``.
    The charged b1 work is unchanged — the step still stands for the hash
    computation wherever its value was produced.
    """
    config = config or HashJoinConfig()
    n = len(build)
    allocator = table.allocator

    # b1: compute hash bucket number for every tuple.
    if buckets is None:
        buckets = (
            bucket_of(build.keys, table.n_buckets)
            if n
            else np.empty(0, dtype=np.int64)
        )
    b1 = StepExecution(
        step=BUILD_STEPS[0],
        work=PerTupleWork(
            n_tuples=n,
            instructions=MURMUR_INSTRUCTIONS_PER_KEY,
            sequential_bytes=12.0,
        ),
        working_set=None,
        intermediate_bytes_per_tuple=12.0,
    )

    # b2-b4: insert every tuple (real side effects happen here).
    work = table.bulk_insert(build.keys, build.rids, buckets)
    table_ws = table.working_set()
    header_ws = WorkingSet(
        bytes=float(table.n_buckets * BUCKET_HEADER_BYTES),
        shared_between_devices=table.shared_between_devices,
    )
    galloc_key, lalloc_key = allocator.atomics_per_request(KEY_NODE_BYTES)
    galloc_rid, lalloc_rid = allocator.atomics_per_request(RID_NODE_BYTES)

    b2 = StepExecution(
        step=BUILD_STEPS[1],
        work=PerTupleWork(
            n_tuples=n,
            instructions=HEADER_VISIT_INSTRUCTIONS,
            random_accesses=1.0,
            global_atomics=1.0,
        ),
        working_set=header_ws,
        conflict_ratio=dict(work.latch_conflict),
        intermediate_bytes_per_tuple=8.0,
    )

    visited = work.key_nodes_visited
    created = work.new_key_created
    b3_work = PerTupleWork(
        n_tuples=n,
        instructions=KEY_SEARCH_BASE_INSTRUCTIONS
        + KEY_SEARCH_PER_NODE_INSTRUCTIONS * visited,
        random_accesses=visited,
        global_atomics=created * galloc_key,
        local_atomics=created * lalloc_key,
    )
    b3 = StepExecution(
        step=BUILD_STEPS[2],
        work=_with_grouping_overhead(b3_work, config.grouping),
        working_set=table_ws,
        conflict_ratio={
            "cpu": allocator.conflict_ratio("cpu", KEY_NODE_BYTES),
            "gpu": allocator.conflict_ratio("gpu", KEY_NODE_BYTES),
        },
        grouped=config.grouping,
        intermediate_bytes_per_tuple=8.0,
    )

    b4 = StepExecution(
        step=BUILD_STEPS[3],
        work=PerTupleWork(
            n_tuples=n,
            instructions=RID_INSERT_INSTRUCTIONS,
            random_accesses=1.0,
            sequential_bytes=float(RID_NODE_BYTES),
            global_atomics=galloc_rid,
            local_atomics=lalloc_rid,
        ),
        working_set=table_ws,
        conflict_ratio={
            "cpu": allocator.conflict_ratio("cpu", RID_NODE_BYTES),
            "gpu": allocator.conflict_ratio("gpu", RID_NODE_BYTES),
        },
        intermediate_bytes_per_tuple=0.0,
    )

    series = StepSeries(phase="build", executions=[b1, b2, b3, b4])
    return BuildOutcome(series=series, table=table)


# ---------------------------------------------------------------------------
# Probe phase: p1 .. p4
# ---------------------------------------------------------------------------
def execute_probe(
    probe: Relation,
    table: HashTable,
    config: HashJoinConfig | None = None,
    buckets: np.ndarray | None = None,
) -> ProbeOutcome:
    """Run the probe phase of SHJ with ``probe`` against ``table``.

    ``buckets`` optionally carries precomputed bucket numbers, exactly as
    in :func:`execute_build`.
    """
    config = config or HashJoinConfig()
    n = len(probe)
    allocator = table.allocator

    if buckets is None:
        buckets = (
            bucket_of(probe.keys, table.n_buckets)
            if n
            else np.empty(0, dtype=np.int64)
        )
    p1 = StepExecution(
        step=PROBE_STEPS[0],
        work=PerTupleWork(
            n_tuples=n,
            instructions=MURMUR_INSTRUCTIONS_PER_KEY,
            sequential_bytes=12.0,
        ),
        working_set=None,
        intermediate_bytes_per_tuple=12.0,
    )

    result, work = table.bulk_probe(probe.keys, probe.rids, buckets)
    table_ws = table.working_set()
    header_ws = WorkingSet(
        bytes=float(table.n_buckets * BUCKET_HEADER_BYTES),
        shared_between_devices=table.shared_between_devices,
    )

    p2 = StepExecution(
        step=PROBE_STEPS[1],
        work=PerTupleWork(
            n_tuples=n,
            instructions=HEADER_VISIT_INSTRUCTIONS,
            random_accesses=1.0,
        ),
        working_set=header_ws,
        intermediate_bytes_per_tuple=8.0,
    )

    visited = work.key_nodes_visited
    p3_work = PerTupleWork(
        n_tuples=n,
        instructions=KEY_SEARCH_BASE_INSTRUCTIONS
        + KEY_SEARCH_PER_NODE_INSTRUCTIONS * visited,
        random_accesses=visited,
    )
    p3 = StepExecution(
        step=PROBE_STEPS[2],
        work=_with_grouping_overhead(p3_work, config.grouping),
        working_set=table_ws,
        grouped=config.grouping,
        intermediate_bytes_per_tuple=8.0,
    )

    matches = work.matches
    galloc_out, lalloc_out = allocator.atomics_per_request(8)
    p4_work = PerTupleWork(
        n_tuples=n,
        instructions=MATCH_VISIT_BASE_INSTRUCTIONS
        + MATCH_VISIT_PER_MATCH_INSTRUCTIONS * matches,
        random_accesses=matches,
        sequential_bytes=8.0 * matches,
        global_atomics=matches * galloc_out,
        local_atomics=matches * lalloc_out,
    )
    p4 = StepExecution(
        step=PROBE_STEPS[3],
        work=_with_grouping_overhead(p4_work, config.grouping),
        working_set=table_ws,
        conflict_ratio={
            "cpu": allocator.conflict_ratio("cpu", 8),
            "gpu": allocator.conflict_ratio("gpu", 8),
        },
        grouped=config.grouping,
        intermediate_bytes_per_tuple=0.0,
    )

    series = StepSeries(phase="probe", executions=[p1, p2, p3, p4])
    return ProbeOutcome(series=series, result=result)


def _with_grouping_overhead(work: PerTupleWork, grouping: bool) -> PerTupleWork:
    """Charge the grouping pass when the optimisation is enabled."""
    if not grouping:
        return work
    return replace(
        work,
        instructions=work.instructions + GROUPING_INSTRUCTIONS_PER_TUPLE,
        sequential_bytes=work.sequential_bytes + GROUPING_SEQUENTIAL_BYTES_PER_TUPLE,
    )


# ---------------------------------------------------------------------------
# Whole-join convenience wrapper
# ---------------------------------------------------------------------------
class SimpleHashJoin:
    """The SHJ operator: build then probe, with fine-grained step accounting."""

    def __init__(self, config: HashJoinConfig | None = None) -> None:
        self.config = config or HashJoinConfig()

    def run(self, build: Relation, probe: Relation) -> SHJRun:
        table = make_table(len(build), len(probe), self.config)
        build_outcome = execute_build(build, table, self.config)
        probe_outcome = execute_probe(probe, table, self.config)
        return SHJRun(build=build_outcome, probe=probe_outcome, config=self.config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimpleHashJoin(config={self.config!r})"
