"""End-to-end co-processed hash join variants (SHJ/PHJ x CPU/GPU/OL/DD/PL).

This module ties everything together the way Section 5 of the paper runs its
experiments:

1. execute the join algorithm (SHJ or radix PHJ) to obtain the real join
   result and the per-step work of every step series,
2. calibrate the cost model from the executed steps (Section 4.2),
3. let the requested co-processing scheme pick the workload ratios via the
   cost model (Section 3.2 / 4.1),
4. measure the chosen ratios on the simulated machine — coupled or emulated
   discrete — including pipelined delays, latch contention, divergence,
   PCI-e transfers and hash-table merge overheads.

The returned :class:`JoinTiming` carries both the measured phase breakdown
(Figure 3 style) and the cost model's estimate (Figures 7-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..costmodel.batch import EstimateCache
from ..costmodel.calibration import CalibrationTable
from ..data.relation import Relation, TUPLE_BYTES
from ..hardware.cache import CacheStats
from ..hardware.machine import Machine, coupled_machine
from ..hardware.pcie import PCIeBus
from ..hashjoin.partition import PartitionConfig, PartitionedHashJoin
from ..hashjoin.result import JoinResult
from ..hashjoin.simple import HashJoinConfig, SimpleHashJoin
from ..hashjoin.steps import StepSeries
from .executor import CoProcessingExecutor, PhaseTiming
from .schemes import RatioPlan, Scheme, plan_ratios, variant_name

SHJ = "SHJ"
PHJ = "PHJ"
ALGORITHMS = (SHJ, PHJ)


class JoinVariantError(ValueError):
    """Raised for invalid variant requests."""


@dataclass
class JoinTiming:
    """Measured and estimated timing of one executed join variant."""

    variant: str
    algorithm: str
    scheme: Scheme
    architecture: str
    phases: list[PhaseTiming]
    plans: list[RatioPlan]
    result: JoinResult
    merge_s: float = 0.0
    estimated_s: float = 0.0
    cache_stats: CacheStats = field(default_factory=CacheStats)
    calibration: CalibrationTable | None = None

    # ------------------------------------------------------------------
    @property
    def total_s(self) -> float:
        """End-to-end measured elapsed time (phases are separated by barriers)."""
        return sum(p.elapsed_s for p in self.phases) + self.merge_s

    @property
    def transfer_s(self) -> float:
        return sum(p.transfer_s for p in self.phases)

    def phase_seconds(self, phase: str) -> float:
        """Total co-processing time of all series of one phase (e.g. 'partition')."""
        return sum(p.compute_s for p in self.phases if p.phase == phase)

    def ratios_by_phase(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for plan in self.plans:
            out.setdefault(plan.phase, list(plan.ratios))
        return out

    def breakdown(self) -> dict[str, float]:
        """Figure 3 style breakdown of the measured time."""
        return {
            "data_transfer_s": self.transfer_s,
            "merge_s": self.merge_s,
            "partition_s": self.phase_seconds("partition"),
            "build_s": self.phase_seconds("build"),
            "probe_s": self.phase_seconds("probe"),
            "total_s": self.total_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JoinTiming({self.variant!r} on {self.architecture}, "
            f"total={self.total_s:.4f}s, matches={self.result.match_count})"
        )


@dataclass(frozen=True)
class VariantConfig:
    """Everything needed to run one join variant."""

    algorithm: str = SHJ
    scheme: Scheme = Scheme.PIPELINED
    join_config: HashJoinConfig = field(default_factory=HashJoinConfig)
    partition_config: PartitionConfig | None = None
    target_partition_tuples: int = 64_000
    #: ``None`` = shared table on the coupled machine, separate on discrete.
    shared_hash_table: bool | None = None
    ratio_delta: float = 0.02
    #: Joins always run their partition pairs serially.  The field exists
    #: only because ``bench/workloads.py`` passes ``parallel=False``; no other
    #: value is accepted.
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise JoinVariantError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.parallel:
            raise JoinVariantError(
                "partition pairs are joined serially; parallel must be False"
            )

    @property
    def name(self) -> str:
        return variant_name(self.algorithm, self.scheme)


class HashJoinVariant:
    """One named variant (e.g. SHJ-PL) executable on any simulated machine."""

    def __init__(self, config: VariantConfig) -> None:
        self.config = config

    @classmethod
    def named(cls, algorithm: str, scheme: Scheme | str, **kwargs) -> "HashJoinVariant":
        return cls(VariantConfig(algorithm=algorithm, scheme=Scheme.parse(scheme), **kwargs))

    # ------------------------------------------------------------------
    def execute(
        self,
        build: Relation,
        probe: Relation,
        machine: Machine | None = None,
        cache: EstimateCache | None = None,
    ) -> JoinTiming:
        """Run the variant; ``cache`` shares cost-model evaluations across calls."""
        machine = machine or coupled_machine()
        machine.reset_counters()
        config = self.config
        scheme = Scheme.parse(config.scheme)

        shared = config.shared_hash_table
        if shared is None:
            shared = machine.is_coupled
        join_config = replace(config.join_config, shared_hash_table=shared)

        # 1. Execute the algorithm for real.
        if config.algorithm == SHJ:
            run = SimpleHashJoin(join_config).run(build, probe)
            series_list: list[StepSeries] = [run.build.series, run.probe.series]
            result = run.result
            table_stats = (run.table.n_key_nodes, run.table.n_rid_nodes, run.table.nbytes)
        else:
            run = PartitionedHashJoin(
                config=join_config,
                partition_config=config.partition_config,
                target_partition_tuples=config.target_partition_tuples,
            ).run(build, probe)
            series_list = [*run.partition_phase.series_per_pass, run.build_series, run.probe_series]
            result = run.result
            table_stats = (
                len(build),  # distinct key nodes across all per-pair tables (upper bound)
                len(build),
                run.max_pair_table_bytes,
            )

        # 2. Calibrate the cost model from the executed steps — once per
        #    series (PHJ repeats step names across passes, so a name-keyed
        #    lookup over the whole join would be ambiguous); the whole-join
        #    table reuses the same calibrations instead of re-profiling.
        series_tables = [
            CalibrationTable.from_series([series], machine) for series in series_list
        ]
        calibration = CalibrationTable.merged(series_tables)

        # 3. Plan ratios per phase, 4. measure them.
        executor = CoProcessingExecutor(machine)
        phases: list[PhaseTiming] = []
        plans: list[RatioPlan] = []
        estimated_s = 0.0
        for series, series_table in zip(series_list, series_tables):
            steps = series_table.step_costs()
            plan = plan_ratios(
                scheme, series.phase, steps, delta=config.ratio_delta, cache=cache
            )
            timing = executor.execute_series(
                series,
                plan.ratios,
                pipelined=scheme.uses_pipelined_delays,
            )
            phases.append(timing)
            plans.append(plan)
            estimated_s += plan.estimated_s

        # Merge overhead of separate hash tables (DD-style co-processing).
        merge_s = 0.0
        if not shared and not scheme.is_single_device and scheme is not Scheme.OFFLOADING:
            merge_s = self._merge_overhead(executor, plans, table_stats, machine)

        return JoinTiming(
            variant=config.name,
            algorithm=config.algorithm,
            scheme=scheme,
            architecture="coupled" if machine.is_coupled else "discrete",
            phases=phases,
            plans=plans,
            result=result,
            merge_s=merge_s,
            estimated_s=estimated_s,
            cache_stats=CacheStats(
                accesses=machine.cache.stats.accesses,
                misses=machine.cache.stats.misses,
            ),
            calibration=calibration,
        )

    # ------------------------------------------------------------------
    def _merge_overhead(
        self,
        executor: CoProcessingExecutor,
        plans: list[RatioPlan],
        table_stats: tuple[int, int, int],
        machine: Machine,
    ) -> float:
        """Cost of merging the GPU-built partial structures into the CPU's.

        With separate hash tables each device builds a private partial table;
        the GPU's share (determined by the build ratios) must be merged back,
        and on the discrete architecture it additionally crosses the PCI-e bus.
        """
        build_plans = [p for p in plans if p.phase == "build"]
        partition_plans = [p for p in plans if p.phase == "partition"]
        n_keys, n_rids, table_bytes = table_stats
        merge_s = 0.0

        if build_plans:
            gpu_fraction = 1.0 - build_plans[0].ratios[-1]
            if 0.0 < gpu_fraction:
                merge_s += executor.merge_cost(
                    n_keys * gpu_fraction, n_rids * gpu_fraction, table_bytes * gpu_fraction
                )
                if not machine.is_coupled:
                    merge_s += machine.transfer_seconds(
                        int(table_bytes * gpu_fraction),
                        PCIeBus.DEVICE_TO_HOST,
                        label="build:partial-table",
                    )

        for plan in partition_plans:
            gpu_fraction = 1.0 - plan.ratios[-1]
            if gpu_fraction <= 0.0:
                continue
            moved_bytes = n_rids * TUPLE_BYTES * gpu_fraction
            merge_s += executor.merge_cost(0.0, n_rids * gpu_fraction * 0.5, moved_bytes)
        return merge_s


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------
def run_join(
    algorithm: str,
    scheme: Scheme | str,
    build: Relation,
    probe: Relation,
    machine: Machine | None = None,
    cache: EstimateCache | None = None,
    **config_kwargs,
) -> JoinTiming:
    """Execute one variant; the main public entry point of the library."""
    variant = HashJoinVariant.named(algorithm, scheme, **config_kwargs)
    return variant.execute(build, probe, machine=machine, cache=cache)


def run_all_variants(
    build: Relation,
    probe: Relation,
    machine: Machine | None = None,
    algorithms: tuple[str, ...] = (SHJ, PHJ),
    schemes: tuple[Scheme, ...] = (
        Scheme.CPU_ONLY,
        Scheme.GPU_ONLY,
        Scheme.DATA_DIVIDING,
        Scheme.OFFLOADING,
        Scheme.PIPELINED,
    ),
    **config_kwargs,
) -> dict[str, JoinTiming]:
    """Run a grid of variants and return them keyed by variant name."""
    machine = machine or coupled_machine()
    cache = EstimateCache()
    out: dict[str, JoinTiming] = {}
    for algorithm in algorithms:
        for scheme in schemes:
            timing = run_join(
                algorithm, scheme, build, probe, machine=machine, cache=cache,
                **config_kwargs,
            )
            out[f"{algorithm}-{Scheme.parse(scheme).value}"] = timing
    return out


def external_pair_joiner(
    algorithm: str = PHJ,
    scheme: Scheme | str = Scheme.PIPELINED,
    machine: Machine | None = None,
    **config_kwargs,
):
    """Adapter for :class:`repro.hashjoin.external.ExternalHashJoin`.

    Returns a callable mapping one in-buffer partition pair to
    ``(simulated seconds, join result)``, measured by ``run_join`` on
    ``machine`` (a fresh coupled machine per pair when ``None``).

    ``run_join`` resets the machine's counters on every call.  When the
    external join charges its copies to that same machine, as Figure 19
    does, ``machine.memory.copied_bytes`` after the run therefore counts
    only the copies charged after the last pair join.  The run's
    ``ExternalJoinBreakdown`` holds every charge.
    """

    def joiner(build: Relation, probe: Relation) -> tuple[float, JoinResult]:
        timing = run_join(algorithm, scheme, build, probe, machine=machine, **config_kwargs)
        return timing.total_s, timing.result

    return joiner
