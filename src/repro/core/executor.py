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

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from ..data.relation import TUPLE_BYTES
from ..hardware.machine import CPU, GPU, Machine
from ..hardware.pcie import PCIeBus
from ..hardware.workstats import TimeBreakdown
from ..hashjoin.steps import StepExecution, StepSeries
from ..costmodel.abstract import CostModelError, left_sum, pipeline_delays
from ..costmodel.batch import as_ratio_matrix, pipelined_totals


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
        return left_sum(s.cpu_s for s in self.steps) + left_sum(self.cpu_delay_s)

    @property
    def gpu_total_s(self) -> float:
        return left_sum(s.gpu_s for s in self.steps) + left_sum(self.gpu_delay_s)

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


@dataclass
class GridTiming:
    """Simulated timings of one step series under a matrix of ratio vectors.

    ``elapsed_s`` holds one phase time per row; :meth:`row` materialises row
    ``i`` as the :class:`PhaseTiming` that ``execute_series`` returns for
    ``ratio_matrix[i]``.  Each step was timed once per distinct cut:
    ``cpu_times[j]``/``gpu_times[j]`` hold those breakdowns and ``slot[i, j]``
    picks row ``i``'s.
    """

    phase: str
    step_names: list[str]
    n_tuples: int
    ratio_matrix: np.ndarray
    cuts: np.ndarray
    slot: np.ndarray
    cpu_times: list[list[TimeBreakdown]]
    gpu_times: list[list[TimeBreakdown]]
    exchanged_bytes: np.ndarray
    cpu_delay_s: np.ndarray
    gpu_delay_s: np.ndarray
    transfer_s: np.ndarray
    elapsed_s: np.ndarray

    def __len__(self) -> int:
        return int(self.ratio_matrix.shape[0])

    def row(self, i: int) -> PhaseTiming:
        """Row ``i`` as the scalar path's :class:`PhaseTiming`."""
        ratios = self.ratio_matrix[i].tolist()
        steps = []
        for j, name in enumerate(self.step_names):
            cut = int(self.cuts[i, j])
            k = int(self.slot[i, j])
            steps.append(
                StepTiming(
                    name=name,
                    ratio=ratios[j],
                    cpu=replace(self.cpu_times[j][k]),
                    gpu=replace(self.gpu_times[j][k]),
                    cpu_tuples=cut,
                    gpu_tuples=self.n_tuples - cut,
                    exchanged_bytes=float(self.exchanged_bytes[i, j]),
                )
            )
        return PhaseTiming(
            phase=self.phase,
            ratios=ratios,
            steps=steps,
            cpu_delay_s=self.cpu_delay_s[i].tolist(),
            gpu_delay_s=self.gpu_delay_s[i].tolist(),
            transfer_s=float(self.transfer_s[i]),
        )


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
    def execute_grid(
        self,
        series: StepSeries,
        ratio_matrix: ArrayLike,
        pipelined: bool = True,
    ) -> GridTiming:
        """Measure one phase under every row of an ``(m, n_steps)`` matrix.

        The matrix is validated like ``execute_series``'s ratios (a single
        vector counts as one row).  Row ``i`` of the result equals ``execute_series(series,
        ratio_matrix[i], pipelined)``, and the machine's cache counters and
        PCI-e records move exactly as that row-by-row loop moves them.  Each
        step's cut points are computed for all rows at once and each
        distinct cut is timed once on the scalar path (rows on the
        optimiser's 0.02 grid share at most 51 cuts per step); the Eq. 4/5
        delays and Eq. 1 then run over all rows together.
        """
        try:
            R = as_ratio_matrix(ratio_matrix, series.n_steps)
        except CostModelError as exc:
            raise ExecutionError(f"phase {series.phase!r}: {exc}") from exc
        m, n_steps = R.shape
        n = series.n_tuples
        wavefront_width = self.machine.spec.gpu.wavefront_width
        cuts = np.empty((m, n_steps), dtype=np.int64)
        slot = np.empty((m, n_steps), dtype=np.int64)
        cpu_step = np.empty((m, n_steps), dtype=np.float64)
        gpu_step = np.empty((m, n_steps), dtype=np.float64)
        cpu_times: list[list[TimeBreakdown]] = []
        gpu_times: list[list[TimeBreakdown]] = []
        cpu_model = self.machine.device_model(CPU)
        gpu_model = self.machine.device_model(GPU)
        for j, execution in enumerate(series):
            # np.rint rounds half to even, as round() does on the same product.
            cuts[:, j] = np.rint(n * R[:, j])
            distinct, inverse, repeats = np.unique(
                cuts[:, j], return_inverse=True, return_counts=True
            )
            slot[:, j] = inverse
            env = self.machine.memory_environment(execution.working_set)
            cpu_times.append([])
            gpu_times.append([])
            for cut, count in zip(distinct.tolist(), repeats.tolist()):
                cpu_stats = execution.stats_for_range(0, cut, CPU, wavefront_width=wavefront_width)
                gpu_stats = execution.stats_for_range(cut, n, GPU, wavefront_width=wavefront_width)
                # Each call rounds its counts to whole numbers, so ``count``
                # rows sharing this cut add exactly ``count`` times as much.
                for stats in (cpu_stats, gpu_stats):
                    if stats.random_accesses:
                        self.machine.cache.record_accesses(
                            stats.random_accesses, env.miss_ratio, repeats=count
                        )
                cpu_times[j].append(cpu_model.elapsed(cpu_stats, env))
                gpu_times[j].append(gpu_model.elapsed(gpu_stats, env))
            cpu_step[:, j] = np.array([t.total_s for t in cpu_times[j]])[inverse]
            gpu_step[:, j] = np.array([t.total_s for t in gpu_times[j]])[inverse]

        exchanged = np.zeros((m, n_steps), dtype=np.float64)
        change = R[:, 1:] - R[:, :-1]
        if n_steps > 1:
            bytes_per_tuple = np.array(
                [e.intermediate_bytes_per_tuple for e in series.executions[1:]]
            )
            exchanged[:, 1:] = np.abs(change) * n * bytes_per_tuple
        transfer_s = self._grid_transfers(series, change, cuts, exchanged)
        cpu_delay, gpu_delay, cpu_total, gpu_total = pipelined_totals(
            R, cpu_step, gpu_step, pipelined
        )
        return GridTiming(
            phase=series.phase,
            step_names=series.step_names,
            n_tuples=n,
            ratio_matrix=R,
            cuts=cuts,
            slot=slot,
            cpu_times=cpu_times,
            gpu_times=gpu_times,
            exchanged_bytes=exchanged,
            cpu_delay_s=cpu_delay,
            gpu_delay_s=gpu_delay,
            transfer_s=transfer_s,
            elapsed_s=np.maximum(cpu_total, gpu_total) + transfer_s,
        )

    def _grid_transfers(
        self,
        series: StepSeries,
        change: np.ndarray,
        cuts: np.ndarray,
        exchanged: np.ndarray,
    ) -> np.ndarray:
        """Each row's PCI-e seconds, recorded on the bus in the scalar order.

        Row by row, as ``execute_series`` would be called: the intermediates
        in step order, then the GPU share's input, then its output, each
        row's seconds summed in that order.  Zero on the coupled machine.
        """
        transfer_s = np.zeros(cuts.shape[0], dtype=np.float64)
        if self.machine.is_coupled:
            return transfer_s
        n = series.n_tuples
        labels = [f"{series.phase}:{e.step.name}:intermediate" for e in series]
        grows = (change > 0).tolist()
        for i, (row_bytes, first_cut, last_cut) in enumerate(
            zip(exchanged.tolist(), cuts[:, 0].tolist(), cuts[:, -1].tolist())
        ):
            total = 0.0
            for j in range(1, len(labels)):
                if row_bytes[j]:
                    direction = (
                        PCIeBus.DEVICE_TO_HOST if grows[i][j - 1] else PCIeBus.HOST_TO_DEVICE
                    )
                    total += self.machine.transfer_seconds(
                        int(row_bytes[j]), direction, label=labels[j]
                    )
            if n - first_cut:
                total += self.machine.transfer_seconds(
                    (n - first_cut) * TUPLE_BYTES,
                    PCIeBus.HOST_TO_DEVICE,
                    label=f"{series.phase}:input",
                )
            if n - last_cut:
                total += self.machine.transfer_seconds(
                    (n - last_cut) * TUPLE_BYTES,
                    PCIeBus.DEVICE_TO_HOST,
                    label=f"{series.phase}:output",
                )
            transfer_s[i] = total
        return transfer_s

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
