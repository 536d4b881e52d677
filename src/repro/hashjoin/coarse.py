"""Coarse-grained step definition for PHJ (PHJ-PL', Section 3.3 / Table 3).

Blanas et al. [4] process each partition pair with one thread after
partitioning: the whole per-pair simple hash join is a single step and the
input items of that step are the partition *pairs*, not tuples.  The paper
compares this coarse granularity against its fine-grained per-tuple steps and
finds it slower (Table 3): every pair builds its own private hash table, which
destroys cross-device cache reuse and creates heavy workload divergence when
partition sizes are uneven.

This module executes the coarse-grained variant for real (producing the same
join result) and reports the per-pair work so the PL executor can schedule
pairs across the CPU and the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data.relation import Relation
from ..hardware.cache import WorkingSet
from ..opencl.allocator import MemoryAllocator
from .hashtable import (
    HEADER_VISIT_INSTRUCTIONS,
    KEY_SEARCH_BASE_INSTRUCTIONS,
    KEY_SEARCH_PER_NODE_INSTRUCTIONS,
    MATCH_VISIT_BASE_INSTRUCTIONS,
    MATCH_VISIT_PER_MATCH_INSTRUCTIONS,
    RID_INSERT_INSTRUCTIONS,
    RID_NODE_BYTES,
)
from .murmur import MURMUR_INSTRUCTIONS_PER_KEY
from .partition import PartitionConfig, pair_table, partition_pairs, plan_partitioning
from .result import JoinResult
from .simple import HashJoinConfig
from .steps import PerTupleWork, StepDefinition, StepExecution, StepSeries

#: The coarse-grained "join one partition pair" step.
PAIR_JOIN_STEP = StepDefinition(
    name="pair-join",
    phase="join",
    description="simple hash join of one partition pair executed by one thread",
)


@dataclass
class CoarsePHJRun:
    """A PHJ executed with the coarse-grained (per-pair) step definition."""

    partition_series: list[StepSeries]
    pair_series: StepSeries
    result: JoinResult
    #: Total bytes of all per-pair hash tables alive during the join phase.
    total_table_bytes: int

    @property
    def step_series(self) -> list[StepSeries]:
        return [*self.partition_series, self.pair_series]


def join_pair_coarse(
    build_part: Relation,
    probe_part: Relation,
    build_hashes: np.ndarray,
    probe_hashes: np.ndarray,
    config: HashJoinConfig,
    allocator: MemoryAllocator,
) -> tuple[tuple[float, float, float, float], JoinResult, int]:
    """Join one pair as a single coarse work item.

    Returns ``((instructions, random accesses, sequential bytes, atomics),
    result, table bytes)`` — the per-pair scalars of the pair-join step.
    """
    table, build_buckets, probe_buckets = pair_table(
        build_hashes, probe_hashes, config, allocator
    )
    build_work = table.bulk_insert(build_part.keys, build_part.rids, build_buckets)
    result, probe_work = table.bulk_probe(probe_part.keys, probe_part.rids, probe_buckets)

    nb, npr = len(build_part), len(probe_part)
    instructions = (
        nb * (MURMUR_INSTRUCTIONS_PER_KEY + HEADER_VISIT_INSTRUCTIONS + RID_INSERT_INSTRUCTIONS)
        + float(np.sum(KEY_SEARCH_BASE_INSTRUCTIONS
                       + KEY_SEARCH_PER_NODE_INSTRUCTIONS * build_work.key_nodes_visited))
        + npr * (MURMUR_INSTRUCTIONS_PER_KEY + HEADER_VISIT_INSTRUCTIONS)
        + float(np.sum(KEY_SEARCH_BASE_INSTRUCTIONS
                       + KEY_SEARCH_PER_NODE_INSTRUCTIONS * probe_work.key_nodes_visited))
        + float(np.sum(MATCH_VISIT_BASE_INSTRUCTIONS
                       + MATCH_VISIT_PER_MATCH_INSTRUCTIONS * probe_work.matches))
    )
    random_accesses = (
        nb * 2.0
        + float(np.sum(build_work.key_nodes_visited))
        + npr * 1.0
        + float(np.sum(probe_work.key_nodes_visited))
        + float(np.sum(probe_work.matches))
    )
    sequential_bytes = (
        nb * (12.0 + RID_NODE_BYTES)
        + npr * 12.0
        + 8.0 * float(np.sum(probe_work.matches))
    )
    atomics = nb * 2.0 + float(np.sum(probe_work.matches)) * 0.1
    return (
        (instructions, random_accesses, sequential_bytes, atomics),
        result,
        table.nbytes,
    )


class CoarseGrainedPHJ:
    """PHJ with one work item per partition pair (the PHJ-PL' baseline)."""

    def __init__(
        self,
        config: HashJoinConfig | None = None,
        partition_config: PartitionConfig | None = None,
        target_partition_tuples: int = 64_000,
    ) -> None:
        # Separate per-pair tables are inherent to this variant.
        self.config = replace(config or HashJoinConfig(), shared_hash_table=False)
        self.partition_config = partition_config
        self.target_partition_tuples = target_partition_tuples

    def run(self, build: Relation, probe: Relation) -> CoarsePHJRun:
        partition_config = self.partition_config or plan_partitioning(
            len(build), self.target_partition_tuples
        )
        partition_phase, pairs, allocator = partition_pairs(
            build, probe, partition_config, self.config
        )
        outcomes = [join_pair_coarse(*pair, self.config, allocator) for pair in pairs]

        per_pair_instructions: list[float] = []
        per_pair_random: list[float] = []
        per_pair_seq: list[float] = []
        per_pair_atomics: list[float] = []
        results: list[JoinResult] = []
        total_table_bytes = 0
        for (instructions, random_accesses, sequential_bytes, atomics), result, table_bytes in outcomes:
            per_pair_instructions.append(instructions)
            per_pair_random.append(random_accesses)
            per_pair_seq.append(sequential_bytes)
            per_pair_atomics.append(atomics)
            results.append(result)
            total_table_bytes += table_bytes

        n_pairs = len(per_pair_instructions)
        pair_work = PerTupleWork(
            n_tuples=n_pairs,
            instructions=np.asarray(per_pair_instructions, dtype=np.float64),
            random_accesses=np.asarray(per_pair_random, dtype=np.float64),
            sequential_bytes=np.asarray(per_pair_seq, dtype=np.float64),
            global_atomics=np.asarray(per_pair_atomics, dtype=np.float64),
        )
        pair_execution = StepExecution(
            step=PAIR_JOIN_STEP,
            work=pair_work,
            # All private tables are live together and are not shared across
            # devices: the working set is the sum, not one small table.
            working_set=WorkingSet(
                bytes=float(total_table_bytes), shared_between_devices=False
            ),
            conflict_ratio={"cpu": 0.0, "gpu": 0.0},
            intermediate_bytes_per_tuple=0.0,
        )
        pair_series = StepSeries(phase="join", executions=[pair_execution])

        return CoarsePHJRun(
            partition_series=partition_phase.series_per_pass,
            pair_series=pair_series,
            result=JoinResult.concat(results),
            total_table_bytes=total_table_bytes,
        )
