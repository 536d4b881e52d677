"""The BasicUnit coarse-grained scheduling baseline (paper Appendix, Fig. 16-18).

BasicUnit dynamically hands out chunks of tuples to whichever device becomes
idle first; a device then performs *every* step of the phase on its chunk.
Compared with the fine-grained PL scheme it cannot give different steps
different ratios, so the CPU ends up executing GPU-friendly work (hash
computation) and vice versa; the paper measures SHJ-PL/PHJ-PL to be 31% / 25%
faster than their BasicUnit counterparts, and the resulting per-phase ratios
(Figures 17/18) differ markedly from the per-step optima (Figures 5/6).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.machine import CPU, GPU, Machine, coupled_machine
from ..hashjoin.steps import StepSeries


class BasicUnitError(ValueError):
    """Raised for invalid BasicUnit configurations."""


@dataclass
class BasicUnitPhase:
    """Outcome of scheduling one phase with BasicUnit."""

    phase: str
    chunk_tuples: int
    cpu_chunks: int
    gpu_chunks: int
    cpu_s: float
    gpu_s: float
    scheduling_overhead_s: float
    cpu_tuples: int = 0
    gpu_tuples: int = 0

    @property
    def n_chunks(self) -> int:
        return self.cpu_chunks + self.gpu_chunks

    @property
    def cpu_ratio(self) -> float:
        """Fraction of the phase's tuples processed by the CPU (Figures 17/18)."""
        total = self.cpu_tuples + self.gpu_tuples
        if total == 0:
            return 0.0
        return self.cpu_tuples / total

    @property
    def elapsed_s(self) -> float:
        return max(self.cpu_s, self.gpu_s) + self.scheduling_overhead_s


@dataclass
class BasicUnitRun:
    """All phases of one join scheduled with BasicUnit."""

    phases: list[BasicUnitPhase]

    @property
    def total_s(self) -> float:
        return sum(p.elapsed_s for p in self.phases)

    def ratios_by_phase(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for phase in self.phases:
            # Later series of the same phase (multi-pass partitioning) average in.
            if phase.phase in out:
                out[phase.phase] = (out[phase.phase] + phase.cpu_ratio) / 2.0
            else:
                out[phase.phase] = phase.cpu_ratio
        return out


class BasicUnitScheduler:
    """Greedy earliest-finish chunk dispatcher over the two devices."""

    #: Fixed per-chunk dispatch cost (queue synchronisation, kernel launch).
    DEFAULT_DISPATCH_OVERHEAD_S = 40e-6

    def __init__(
        self,
        machine: Machine | None = None,
        cpu_chunk_tuples: int = 64_000,
        gpu_chunk_tuples: int = 256_000,
        dispatch_overhead_s: float = DEFAULT_DISPATCH_OVERHEAD_S,
    ) -> None:
        if cpu_chunk_tuples <= 0 or gpu_chunk_tuples <= 0:
            raise BasicUnitError("chunk sizes must be positive")
        self.machine = machine or coupled_machine()
        self.cpu_chunk_tuples = cpu_chunk_tuples
        self.gpu_chunk_tuples = gpu_chunk_tuples
        self.dispatch_overhead_s = dispatch_overhead_s

    # ------------------------------------------------------------------
    def _chunk_time(self, series: StepSeries, start: int, stop: int, device: str) -> float:
        """Time for one device to run *all* steps of the phase on one chunk."""
        total = 0.0
        width = self.machine.spec.gpu.wavefront_width
        for execution in series:
            stats = execution.stats_for_range(start, stop, device, wavefront_width=width)
            total += self.machine.step_seconds(device, stats, execution.working_set)
        return total

    def schedule_series(self, series: StepSeries) -> BasicUnitPhase:
        """Dispatch the phase's tuples chunk by chunk to the idle device."""
        n = series.n_tuples
        chunk = max(self.cpu_chunk_tuples, 1)
        cpu_busy_until = 0.0
        gpu_busy_until = 0.0
        cpu_chunks = 0
        gpu_chunks = 0
        cpu_tuples = 0
        gpu_tuples = 0
        overhead = 0.0
        position = 0
        while position < n:
            # The device that frees up first takes the next chunk; the chunk
            # size is tuned per device (larger launches amortise better on the
            # GPU).
            if cpu_busy_until <= gpu_busy_until:
                device = CPU
                size = min(self.cpu_chunk_tuples, n - position)
            else:
                device = GPU
                size = min(self.gpu_chunk_tuples, n - position)
            elapsed = self._chunk_time(series, position, position + size, device)
            overhead += self.dispatch_overhead_s
            if device == CPU:
                cpu_busy_until += elapsed
                cpu_chunks += 1
                cpu_tuples += size
            else:
                gpu_busy_until += elapsed
                gpu_chunks += 1
                gpu_tuples += size
            position += size

        return BasicUnitPhase(
            phase=series.phase,
            chunk_tuples=chunk,
            cpu_chunks=cpu_chunks,
            gpu_chunks=gpu_chunks,
            cpu_s=cpu_busy_until,
            gpu_s=gpu_busy_until,
            scheduling_overhead_s=overhead,
            cpu_tuples=cpu_tuples,
            gpu_tuples=gpu_tuples,
        )

    def schedule(self, series_list: list[StepSeries]) -> BasicUnitRun:
        return BasicUnitRun(phases=[self.schedule_series(s) for s in series_list])
