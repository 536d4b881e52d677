"""Fine-grained step definitions for SHJ and PHJ (paper Section 3.1).

A *step* is computation or memory access applied to every input tuple.  The
simple hash join has two step series::

    build:  b1 b2 b3 b4
    probe:  p1 p2 p3 p4

and the partitioned hash join adds one series per partitioning pass::

    partition (per pass):  n1 n2 n3

Executing a step on the simulator yields a :class:`StepExecution`: the real
data-structure side effects have happened (hash table built, partitions
written, matches produced) and the object records *per-tuple* work so that any
co-processing scheme (OL/DD/PL/BasicUnit) can later split the tuples between
the CPU and the GPU at any ratio and obtain exact work statistics for each
portion — including workload divergence of the specific tuple range.
"""

from __future__ import annotations

# repro: kernel
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..hardware.cache import WorkingSet
from ..hardware.workstats import WorkProfile, WorkStats
from ..opencl.wavefront import AMD_WAVEFRONT_WIDTH, wavefront_divergence

#: Most :class:`WorkStats` one :class:`PerTupleWork` memoises.  A Monte
#: Carlo step on the 0.02 ratio grid needs about 102 (51 cuts x 2 sides).
STATS_MEMO_ENTRIES = 256

BUILD_PHASE = "build"
PROBE_PHASE = "probe"
PARTITION_PHASE = "partition"


@dataclass(frozen=True)
class StepDefinition:
    """Identity and description of one fine-grained step."""

    name: str
    phase: str
    description: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Fine-grained steps of the simple hash join build phase (Algorithm 1).
BUILD_STEPS: tuple[StepDefinition, ...] = (
    StepDefinition("b1", BUILD_PHASE, "compute hash bucket number"),
    StepDefinition("b2", BUILD_PHASE, "visit the hash bucket header"),
    StepDefinition("b3", BUILD_PHASE, "visit the hash key lists and create a key header if necessary"),
    StepDefinition("b4", BUILD_PHASE, "insert the record id into the rid list"),
)

#: Fine-grained steps of the simple hash join probe phase (Algorithm 1).
PROBE_STEPS: tuple[StepDefinition, ...] = (
    StepDefinition("p1", PROBE_PHASE, "compute hash bucket number"),
    StepDefinition("p2", PROBE_PHASE, "visit the hash bucket header"),
    StepDefinition("p3", PROBE_PHASE, "visit the hash key lists"),
    StepDefinition("p4", PROBE_PHASE, "visit the matching build tuple and produce output"),
)

#: Fine-grained steps of one radix-partitioning pass (Algorithm 2).
PARTITION_STEPS: tuple[StepDefinition, ...] = (
    StepDefinition("n1", PARTITION_PHASE, "compute partition number"),
    StepDefinition("n2", PARTITION_PHASE, "visit the partition header"),
    StepDefinition("n3", PARTITION_PHASE, "insert the <key, rid> into the partition"),
)

ALL_STEP_NAMES: tuple[str, ...] = tuple(
    s.name for s in PARTITION_STEPS + BUILD_STEPS + PROBE_STEPS
)


def step_by_name(name: str) -> StepDefinition:
    for step in PARTITION_STEPS + BUILD_STEPS + PROBE_STEPS:
        if step.name == name:
            return step
    raise KeyError(f"unknown step {name!r}")


ArrayOrScalar = "np.ndarray | float"


def _as_array(value: np.ndarray | float, n: int) -> np.ndarray:
    """Broadcast a scalar per-tuple quantity to an array of length ``n``."""
    if isinstance(value, np.ndarray):
        if value.shape[0] != n:
            raise ValueError(f"per-tuple array has length {value.shape[0]}, expected {n}")
        return value.astype(np.float64, copy=False)
    return np.full(n, float(value), dtype=np.float64)


def _range_sum(value: np.ndarray | float, start: int, stop: int) -> float:
    """Sum of a per-tuple quantity over the index range [start, stop)."""
    if isinstance(value, np.ndarray):
        return float(value[start:stop].sum())
    return float(value) * (stop - start)


@dataclass
class PerTupleWork:
    """Per-tuple work quantities of one executed step.

    Quantities may be scalars (uniform work, e.g. hash computation) or arrays
    of length ``n_tuples`` (workload-dependent work, e.g. key-list traversal
    lengths in ``b3``/``p3``).

    The workload proxy is memoised after its first use, and so is every
    :class:`WorkStats` that :meth:`stats_for_range` returns, keyed by the
    clamped ``(start, stop, conflict_ratio, wavefront_width, grouped)``.
    Executors, calibration and Monte Carlo studies revisit the same ranges
    (ratios on the optimiser's delta grid cut each step at a few dozen
    points), so a repeat is a dictionary lookup; ``WorkStats`` is frozen, so
    callers share one instance.  The memo keeps at most
    :data:`STATS_MEMO_ENTRIES` entries and evicts the oldest first.  The
    quantities must therefore not be mutated in place after the first stats
    call — build a new instance (or ``dataclasses.replace``) instead, which
    starts with fresh caches.
    """

    n_tuples: int
    instructions: np.ndarray | float = 0.0
    random_accesses: np.ndarray | float = 0.0
    sequential_bytes: np.ndarray | float = 0.0
    global_atomics: np.ndarray | float = 0.0
    local_atomics: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        if self.n_tuples < 0:
            raise ValueError("n_tuples must be non-negative")
        self._proxy_cache: np.ndarray | None = None
        self._stats_memo: dict[tuple[int, int, float, int, bool], WorkStats] = {}

    # ------------------------------------------------------------------
    def _full_proxy(self) -> np.ndarray:
        """The whole series' workload proxy, computed once and reused."""
        if self._proxy_cache is None:
            proxy = _as_array(self.instructions, self.n_tuples).copy()
            proxy += 10.0 * _as_array(self.random_accesses, self.n_tuples)
            proxy += 5.0 * _as_array(self.global_atomics, self.n_tuples)
            self._proxy_cache = proxy
        return self._proxy_cache

    def workload_proxy(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Scalar per-tuple execution-time proxy used for divergence."""
        stop = self.n_tuples if stop is None else stop
        n = max(stop - start, 0)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return self._full_proxy()[start:stop].copy()

    def stats_for_range(
        self,
        start: int,
        stop: int,
        conflict_ratio: float = 0.0,
        wavefront_width: int = AMD_WAVEFRONT_WIDTH,
        grouped: bool = False,
    ) -> WorkStats:
        """Exact :class:`WorkStats` for the tuple range ``[start, stop)``.

        ``grouped`` applies the divergence-grouping optimisation: the range's
        workloads are considered sorted by workload before wavefront
        formation, which reduces the divergence component.
        """
        start = max(0, start)
        stop = min(self.n_tuples, stop)
        n = max(stop - start, 0)
        if n == 0:
            return WorkStats()
        key = (start, stop, conflict_ratio, wavefront_width, grouped)
        stats = self._stats_memo.get(key)
        if stats is not None:
            return stats
        proxy = self.workload_proxy(start, stop)
        if grouped:
            proxy = np.sort(proxy)
        stats = WorkStats(
            tuples=n,
            instructions=_range_sum(self.instructions, start, stop),
            sequential_bytes=_range_sum(self.sequential_bytes, start, stop),
            random_accesses=_range_sum(self.random_accesses, start, stop),
            global_atomics=_range_sum(self.global_atomics, start, stop),
            local_atomics=_range_sum(self.local_atomics, start, stop),
            divergence=wavefront_divergence(proxy, width=wavefront_width).divergence,
            atomic_conflict_ratio=conflict_ratio,
        )
        if len(self._stats_memo) >= STATS_MEMO_ENTRIES:
            del self._stats_memo[next(iter(self._stats_memo))]  # oldest first
        self._stats_memo[key] = stats
        return stats

    def total_stats(
        self,
        conflict_ratio: float = 0.0,
        wavefront_width: int = AMD_WAVEFRONT_WIDTH,
        grouped: bool = False,
    ) -> WorkStats:
        return self.stats_for_range(
            0, self.n_tuples, conflict_ratio=conflict_ratio,
            wavefront_width=wavefront_width, grouped=grouped,
        )

    def average_profile(self) -> WorkProfile:
        """Per-tuple averages (what profiling tools report in the paper)."""
        n = max(self.n_tuples, 1)
        stats = self.total_stats()
        return WorkProfile(
            instructions_per_tuple=stats.instructions / n,
            sequential_bytes_per_tuple=stats.sequential_bytes / n,
            random_accesses_per_tuple=stats.random_accesses / n,
            global_atomics_per_tuple=stats.global_atomics / n,
            local_atomics_per_tuple=stats.local_atomics / n,
            divergence=stats.divergence,
        )


@dataclass
class StepExecution:
    """One executed step: data side effects done, per-tuple work recorded."""

    step: StepDefinition
    work: PerTupleWork
    #: Structure touched by the step's random accesses, for the cache model.
    working_set: WorkingSet | None = None
    #: Latch-contention ratio per device kind ("cpu"/"gpu").
    conflict_ratio: dict[str, float] = field(default_factory=dict)
    #: Bytes of intermediate result produced per tuple (what would travel over
    #: PCI-e between this step and the next one if their ratios differ).
    intermediate_bytes_per_tuple: float = 8.0
    #: Whether the divergence-grouping optimisation (Section 3.3) is applied
    #: to this step's wavefront formation.
    grouped: bool = False

    @property
    def n_tuples(self) -> int:
        return self.work.n_tuples

    def conflict_for(self, device_kind: str) -> float:
        return self.conflict_ratio.get(device_kind, 0.0)

    def stats_for_range(
        self,
        start: int,
        stop: int,
        device_kind: str,
        wavefront_width: int = AMD_WAVEFRONT_WIDTH,
        grouped: bool | None = None,
    ) -> WorkStats:
        grouped = self.grouped if grouped is None else grouped
        return self.work.stats_for_range(
            start,
            stop,
            conflict_ratio=self.conflict_for(device_kind),
            wavefront_width=wavefront_width,
            grouped=grouped,
        )


@dataclass
class StepSeries:
    """An ordered list of executed steps separated from others by barriers."""

    phase: str
    executions: list[StepExecution]

    def __post_init__(self) -> None:
        if not self.executions:
            raise ValueError("a step series needs at least one step execution")
        lengths = {e.n_tuples for e in self.executions}
        if len(lengths) > 1:
            raise ValueError(
                f"all steps of a series must process the same tuple count, got {lengths}"
            )

    @property
    def n_steps(self) -> int:
        return len(self.executions)

    @property
    def n_tuples(self) -> int:
        return self.executions[0].n_tuples

    @property
    def step_names(self) -> list[str]:
        return [e.step.name for e in self.executions]

    def __iter__(self) -> Iterator[StepExecution]:
        return iter(self.executions)

    def __getitem__(self, index: int) -> StepExecution:
        return self.executions[index]
