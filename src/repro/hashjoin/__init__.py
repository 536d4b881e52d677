"""Hash-join substrate: hash table, SHJ, radix PHJ and their fine-grained steps.

PHJ (fine-grained steps per pair) and PHJ-PL' (one coarse step per pair)
share one partition-pair path: :func:`partition_pairs` partitions both
relations and carries the murmur hashes, :func:`pair_table` picks every pair
table's buckets from them, and :func:`run_pairs` joins the pairs on the
process pool when ``parallel=True``.  Divergence grouping (Section 3.3) has
one model: ``HashJoinConfig(grouping=True)`` marks the skew-sensitive steps
grouped, and :meth:`PerTupleWork.stats_for_range` sorts each such range
before measuring its divergence.  :class:`ExternalHashJoin` joins the pairs
of an out-of-buffer join one after another, always building on the smaller
side.  The pool and the out-of-core join are documented in
``docs/performance.md``.
"""

from .coarse import PAIR_JOIN_STEP, CoarseGrainedPHJ, CoarsePHJRun, join_pair_coarse
from .external import (
    DEFAULT_CHUNK_TUPLES,
    MAX_SUPER_PARTITION_BITS,
    RESULT_PAIR_BYTES,
    ExternalHashJoin,
    ExternalJoinBreakdown,
    ExternalJoinRun,
    ExternalJoinStats,
    plan_super_partitions,
)
from .hashtable import (
    BUCKET_HEADER_BYTES,
    KEY_NODE_BYTES,
    RID_NODE_BYTES,
    BuildWork,
    HashTable,
    HashTableError,
    ProbeWork,
    default_bucket_count,
)
from .murmur import (
    DEFAULT_SEED,
    MURMUR_INSTRUCTIONS_PER_KEY,
    bucket_of,
    bucket_of_hashed,
    murmur2,
    murmur2_scalar,
    radix_of,
    radix_span_of,
)
from .parallel import PairPool, run_pairs, shared_pair_pool, split_balanced
from .partition import (
    MAX_RADIX_BITS,
    PartitionConfig,
    PartitionError,
    PartitionSet,
    PartitionedHashJoin,
    PHJRun,
    concat_step_series,
    execute_partition_phase,
    final_partition_ids,
    join_partition_pair,
    pair_table,
    partition_pairs,
    plan_partitioning,
)
from .result import JoinResult, reference_join, vectorized_reference_join
from .simple import (
    BuildOutcome,
    HashJoinConfig,
    ProbeOutcome,
    SHJRun,
    SimpleHashJoin,
    arena_capacity_for,
    execute_build,
    execute_probe,
    make_table,
)
from .steps import (
    ALL_STEP_NAMES,
    BUILD_PHASE,
    BUILD_STEPS,
    PARTITION_PHASE,
    PARTITION_STEPS,
    PROBE_PHASE,
    PROBE_STEPS,
    PerTupleWork,
    StepDefinition,
    StepExecution,
    StepSeries,
    step_by_name,
)

__all__ = [
    "ALL_STEP_NAMES",
    "BUCKET_HEADER_BYTES",
    "BUILD_PHASE",
    "BUILD_STEPS",
    "BuildOutcome",
    "BuildWork",
    "CoarseGrainedPHJ",
    "CoarsePHJRun",
    "DEFAULT_CHUNK_TUPLES",
    "DEFAULT_SEED",
    "ExternalHashJoin",
    "ExternalJoinBreakdown",
    "ExternalJoinRun",
    "ExternalJoinStats",
    "HashJoinConfig",
    "HashTable",
    "HashTableError",
    "JoinResult",
    "KEY_NODE_BYTES",
    "MAX_RADIX_BITS",
    "MAX_SUPER_PARTITION_BITS",
    "MURMUR_INSTRUCTIONS_PER_KEY",
    "PAIR_JOIN_STEP",
    "PARTITION_PHASE",
    "PARTITION_STEPS",
    "PHJRun",
    "PROBE_PHASE",
    "PROBE_STEPS",
    "PartitionConfig",
    "PartitionError",
    "PairPool",
    "PartitionSet",
    "PartitionedHashJoin",
    "PerTupleWork",
    "ProbeOutcome",
    "ProbeWork",
    "RESULT_PAIR_BYTES",
    "RID_NODE_BYTES",
    "SHJRun",
    "SimpleHashJoin",
    "StepDefinition",
    "StepExecution",
    "StepSeries",
    "arena_capacity_for",
    "bucket_of",
    "bucket_of_hashed",
    "concat_step_series",
    "default_bucket_count",
    "execute_build",
    "execute_partition_phase",
    "execute_probe",
    "final_partition_ids",
    "join_pair_coarse",
    "join_partition_pair",
    "make_table",
    "murmur2",
    "murmur2_scalar",
    "pair_table",
    "partition_pairs",
    "plan_partitioning",
    "plan_super_partitions",
    "radix_of",
    "radix_span_of",
    "reference_join",
    "run_pairs",
    "shared_pair_pool",
    "split_balanced",
    "step_by_name",
    "vectorized_reference_join",
]
