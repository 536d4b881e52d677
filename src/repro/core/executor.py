"""Co-processing executor: "measured" simulated time of a step series.

Given an executed step series (real data-structure side effects plus per-tuple
work), a machine model and a per-step workload-ratio vector, the executor
splits every step's tuples between the CPU and the GPU, charges each portion
on its device (including the effects the analytic cost model ignores: latch
contention, workload divergence, cache-miss differences of the actual tuple
ranges), adds the pipelined-execution delays of Eqs. 4/5, and — on the
emulated discrete architecture — the PCI-e transfers implied by the ratio
choices.  The result plays the role of a wall-clock measurement on the APU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..data.relation import TUPLE_BYTES
from ..hardware.machine import CPU, GPU, Machine
from ..hardware.pcie import PCIeBus
from ..hardware.workstats import TimeBreakdown
from ..hashjoin.steps import StepExecution, StepSeries
from ..costmodel.abstract import pipeline_delays


class ExecutionError(ValueError):
    """Raised for inconsistent execution requests."""


@dataclass
class StepTiming:
    """Simulated timing of one step under one ratio split."""

    name: str
    ratio: float
    cpu: TimeBreakdown
    gpu: TimeBreakdown
    cpu_tuples: int
    gpu_tuples: int
    #: Bytes of intermediate results exchanged with the previous step because
    #: the ratio changed (moved over PCI-e on the discrete architecture).
    exchanged_bytes: float = 0.0

    @property
    def cpu_s(self) -> float:
        return self.cpu.total_s

    @property
    def gpu_s(self) -> float:
        return self.gpu.total_s


@dataclass
class PhaseTiming:
    """Simulated timing of one step series (one phase) under a ratio vector."""

    phase: str
    ratios: list[float]
    steps: list[StepTiming]
    cpu_delay_s: list[float] = field(default_factory=list)
    gpu_delay_s: list[float] = field(default_factory=list)
    transfer_s: float = 0.0
    merge_s: float = 0.0

    @property
    def cpu_total_s(self) -> float:
        return sum(s.cpu_s for s in self.steps) + sum(self.cpu_delay_s)

    @property
    def gpu_total_s(self) -> float:
        return sum(s.gpu_s for s in self.steps) + sum(self.gpu_delay_s)

    @property
    def compute_s(self) -> float:
        """Co-processing part of the phase: the slower device's time."""
        return max(self.cpu_total_s, self.gpu_total_s)

    @property
    def elapsed_s(self) -> float:
        """Phase wall time: co-processing + serial transfer and merge parts."""
        return self.compute_s + self.transfer_s + self.merge_s

    def breakdown(self) -> dict[str, float]:
        return {
            "phase": self.phase,
            "cpu_s": self.cpu_total_s,
            "gpu_s": self.gpu_total_s,
            "transfer_s": self.transfer_s,
            "merge_s": self.merge_s,
            "elapsed_s": self.elapsed_s,
        }


def _validate_ratios(series: StepSeries, ratios: Sequence[float]) -> list[float]:
    if len(ratios) != series.n_steps:
        raise ExecutionError(
            f"phase {series.phase!r} has {series.n_steps} steps "
            f"but {len(ratios)} ratios were given"
        )
    cleaned = []
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise ExecutionError(f"ratio {r} outside [0, 1]")
        cleaned.append(float(r))
    return cleaned


class CoProcessingExecutor:
    """Runs step series on a simulated machine under arbitrary ratio vectors."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    def execute_series(
        self,
        series: StepSeries,
        ratios: Sequence[float],
        pipelined: bool = True,
    ) -> PhaseTiming:
        """Measure one phase under the given per-step CPU ratios.

        ``pipelined`` enables the Eq. 4/5 delay accounting (PL); with identical
        ratios on every step (DD) or all-0/1 ratios (OL) the delays are zero
        anyway, so it is safe to leave it on.

        On the discrete architecture, the GPU's share of the first step's
        input and of the last step's output are moved over the PCI-e bus.
        """
        ratios = _validate_ratios(series, ratios)
        timings: list[StepTiming] = []
        transfer_s = 0.0

        wavefront_width = self.machine.spec.gpu.wavefront_width
        for index, execution in enumerate(series):
            ratio = ratios[index]
            n = execution.n_tuples
            cut = int(round(n * ratio))
            cpu_stats = execution.stats_for_range(0, cut, CPU, wavefront_width=wavefront_width)
            gpu_stats = execution.stats_for_range(cut, n, GPU, wavefront_width=wavefront_width)
            cpu_time = self.machine.step_time(CPU, cpu_stats, execution.working_set)
            gpu_time = self.machine.step_time(GPU, gpu_stats, execution.working_set)

            exchanged = 0.0
            if index > 0:
                ratio_change = ratio - ratios[index - 1]
                moved_tuples = abs(ratio_change) * n
                exchanged = moved_tuples * execution.intermediate_bytes_per_tuple
                if not self.machine.is_coupled and exchanged:
                    # A growing CPU share pulls intermediate results produced
                    # on the GPU back to the host (d2h); a shrinking share
                    # pushes CPU-produced intermediates to the device (h2d).
                    direction = (
                        PCIeBus.DEVICE_TO_HOST
                        if ratio_change > 0
                        else PCIeBus.HOST_TO_DEVICE
                    )
                    transfer_s += self.machine.transfer_seconds(
                        int(exchanged), direction,
                        label=f"{series.phase}:{execution.step.name}:intermediate",
                    )

            timings.append(
                StepTiming(
                    name=execution.step.name,
                    ratio=ratio,
                    cpu=cpu_time,
                    gpu=gpu_time,
                    cpu_tuples=cut,
                    gpu_tuples=n - cut,
                    exchanged_bytes=exchanged,
                )
            )

        # Input / output movement of the GPU's share on the discrete machine.
        if not self.machine.is_coupled and series.n_steps:
            first, last = timings[0], timings[-1]
            if first.gpu_tuples:
                transfer_s += self.machine.transfer_seconds(
                    first.gpu_tuples * TUPLE_BYTES,
                    PCIeBus.HOST_TO_DEVICE,
                    label=f"{series.phase}:input",
                )
            if last.gpu_tuples:
                transfer_s += self.machine.transfer_seconds(
                    last.gpu_tuples * TUPLE_BYTES,
                    PCIeBus.DEVICE_TO_HOST,
                    label=f"{series.phase}:output",
                )

        cpu_step_s = [t.cpu_s for t in timings]
        gpu_step_s = [t.gpu_s for t in timings]
        if pipelined:
            cpu_delay, gpu_delay = pipeline_delays(cpu_step_s, gpu_step_s, ratios)
        else:
            cpu_delay = [0.0] * len(timings)
            gpu_delay = [0.0] * len(timings)

        return PhaseTiming(
            phase=series.phase,
            ratios=ratios,
            steps=timings,
            cpu_delay_s=cpu_delay,
            gpu_delay_s=gpu_delay,
            transfer_s=transfer_s,
        )

    # ------------------------------------------------------------------
    def merge_cost(self, n_key_nodes: float, n_rid_nodes: float, table_bytes: float) -> float:
        """CPU-side cost of merging a partial hash table (separate tables / DD
        on the discrete architecture)."""
        from ..hardware.workstats import WorkStats

        # Merging is mostly a streaming copy of the partial table's nodes with
        # an occasional pointer fix-up, so only a fraction of the node visits
        # miss the cache.
        nodes = n_key_nodes + n_rid_nodes
        stats = WorkStats(
            tuples=int(nodes),
            instructions=15.0 * nodes,
            random_accesses=0.25 * nodes,
            sequential_bytes=2.0 * table_bytes,
        )
        return self.machine.step_seconds(CPU, stats, None)
