"""The abstract cost model for pipelined co-processing (paper Section 4.1).

A step series of ``n`` steps is executed with per-step CPU workload ratios
``r_1 .. r_n``.  The model estimates, per processor, the execution time of
each step as computation plus memory stalls (Eq. 2/3; the per-tuple unit
costs are supplied by :mod:`repro.costmodel.calibration`), adds the pipelined
delay caused by ratio changes between consecutive steps (Eqs. 4 and 5), and
takes the slower of the two processors as the series' elapsed time (Eq. 1).

DD is the special case of identical ratios on every step, and OL the special
case of every ratio being 0 or 1, so a single implementation covers all three
co-processing schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

CPU = "cpu"
GPU = "gpu"


class CostModelError(ValueError):
    """Raised for inconsistent cost-model inputs."""


def left_sum(values: Iterable[float]) -> float:
    """Add ``values`` one by one, left to right, as ``np.cumsum`` does.

    The scalar reference adds with this fold, not the built-in ``sum()``:
    CPython 3.12 made ``sum()`` of floats compensated, so it can differ from
    the vector kernel's left-to-right sums in the last bit (ten steps of
    0.1 s add up to 1.0 there, but to 0.9999999999999999 here and in the
    kernel, on every Python version).
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class StepCost:
    """Calibrated per-step inputs of the abstract model.

    ``cpu_unit_s`` / ``gpu_unit_s`` are the estimated seconds per input tuple
    on each device — the ``#I / IPC`` computation term of Eq. 3 plus the
    calibrated memory term of Eq. 2 — for this particular step.
    """

    name: str
    n_tuples: int
    cpu_unit_s: float
    gpu_unit_s: float
    #: Bytes of intermediate result per tuple exchanged when the ratio changes
    #: between this step and the next (used for discrete-architecture what-ifs).
    intermediate_bytes_per_tuple: float = 8.0

    def __post_init__(self) -> None:
        if self.n_tuples < 0:
            raise CostModelError("n_tuples must be non-negative")
        # Written so that NaN fails the comparison too.
        if not (
            0.0 <= self.cpu_unit_s < math.inf and 0.0 <= self.gpu_unit_s < math.inf
        ):
            raise CostModelError("unit costs must be finite and non-negative")
        if not 0.0 <= self.intermediate_bytes_per_tuple < math.inf:
            raise CostModelError(
                "intermediate_bytes_per_tuple must be finite and non-negative"
            )

    def device_time(self, device: str, ratio: float) -> float:
        """Estimated time of this step's portion assigned to ``device``."""
        if not 0.0 <= ratio <= 1.0:
            raise CostModelError(f"ratio must be in [0, 1], got {ratio}")
        if device == CPU:
            return self.cpu_unit_s * self.n_tuples * ratio
        if device == GPU:
            return self.gpu_unit_s * self.n_tuples * (1.0 - ratio)
        raise CostModelError(f"unknown device {device!r}")


@dataclass
class SeriesEstimate:
    """Output of the abstract model for one step series and one ratio vector."""

    ratios: list[float]
    cpu_step_s: list[float]
    gpu_step_s: list[float]
    cpu_delay_s: list[float]
    gpu_delay_s: list[float]
    #: Intermediate-result volume (bytes) implied by consecutive ratio changes.
    intermediate_bytes: float = 0.0

    @property
    def cpu_total_s(self) -> float:
        return left_sum(self.cpu_step_s) + left_sum(self.cpu_delay_s)

    @property
    def gpu_total_s(self) -> float:
        return left_sum(self.gpu_step_s) + left_sum(self.gpu_delay_s)

    @property
    def total_s(self) -> float:
        """Eq. 1: the step series finishes when the slower processor does."""
        return max(self.cpu_total_s, self.gpu_total_s)

    def as_dict(self) -> dict[str, float]:
        return {
            "cpu_total_s": self.cpu_total_s,
            "gpu_total_s": self.gpu_total_s,
            "total_s": self.total_s,
            "intermediate_bytes": self.intermediate_bytes,
        }

    def copy(self) -> "SeriesEstimate":
        """Independent copy (the per-step vectors are mutable lists)."""
        return SeriesEstimate(
            ratios=list(self.ratios),
            cpu_step_s=list(self.cpu_step_s),
            gpu_step_s=list(self.gpu_step_s),
            cpu_delay_s=list(self.cpu_delay_s),
            gpu_delay_s=list(self.gpu_delay_s),
            intermediate_bytes=self.intermediate_bytes,
        )


def pipeline_delays(
    cpu_step_s: Sequence[float],
    gpu_step_s: Sequence[float],
    ratios: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Pipelined execution delays of Eqs. 4 and 5.

    For step ``i`` with a larger CPU ratio than step ``i-1`` the CPU may stall
    waiting for the GPU to produce its input (Eq. 4); symmetrically for a
    smaller ratio the GPU may stall on the CPU (Eq. 5).  Negative values mean
    no stall and are clamped to zero.
    """
    n = len(ratios)
    if len(cpu_step_s) != n or len(gpu_step_s) != n:
        raise CostModelError("step time vectors and ratios must have equal length")
    cpu_delay = [0.0] * n
    gpu_delay = [0.0] * n
    for i in range(1, n):
        r_prev, r_cur = ratios[i - 1], ratios[i]
        if r_cur > r_prev:
            # Eq. 4: the CPU waits for GPU output of step i-1.
            not_pipelined = gpu_step_s[i - 1] * (1.0 - r_cur) / (1.0 - r_prev)
            delay = (left_sum(gpu_step_s[:i]) - not_pipelined) - left_sum(cpu_step_s[: i + 1])
            cpu_delay[i] = max(delay, 0.0)
        elif r_cur < r_prev:
            # Eq. 5: the GPU waits for CPU output of step i-1.
            pipelined_tail = gpu_step_s[i] * (1.0 - r_prev) / (1.0 - r_cur)
            delay = left_sum(cpu_step_s[:i]) - (left_sum(gpu_step_s[: i + 1]) - pipelined_tail)
            gpu_delay[i] = max(delay, 0.0)
    return cpu_delay, gpu_delay


def intermediate_result_bytes(steps: Sequence[StepCost], ratios: Sequence[float]) -> float:
    """Bytes of intermediate results implied by ratio changes (Section 4.1).

    For step ``i`` the number of intermediate data items is
    ``|r_i - r_{i-1}| * x_i`` under the uniform-distribution assumption; this
    is the volume that would have to cross the PCI-e bus on a discrete
    architecture (the grey areas of Figures 5 and 6).
    """
    total = 0.0
    for i in range(1, len(steps)):
        moved_tuples = abs(ratios[i] - ratios[i - 1]) * steps[i].n_tuples
        total += moved_tuples * steps[i].intermediate_bytes_per_tuple
    return total


def estimate_series(steps: Sequence[StepCost], ratios: Sequence[float]) -> SeriesEstimate:
    """Evaluate the abstract model (Eqs. 1-5) for one ratio assignment."""
    if len(steps) != len(ratios):
        raise CostModelError(
            f"got {len(ratios)} ratios for {len(steps)} steps"
        )
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise CostModelError(f"ratio {r} outside [0, 1]")

    cpu_step_s = [s.device_time(CPU, r) for s, r in zip(steps, ratios)]
    gpu_step_s = [s.device_time(GPU, r) for s, r in zip(steps, ratios)]
    cpu_delay, gpu_delay = pipeline_delays(cpu_step_s, gpu_step_s, ratios)
    return SeriesEstimate(
        ratios=list(ratios),
        cpu_step_s=cpu_step_s,
        gpu_step_s=gpu_step_s,
        cpu_delay_s=cpu_delay,
        gpu_delay_s=gpu_delay,
        intermediate_bytes=intermediate_result_bytes(steps, ratios),
    )


def estimate_phases(
    phase_steps: dict[str, Sequence[StepCost]],
    phase_ratios: dict[str, Sequence[float]],
) -> dict[str, SeriesEstimate]:
    """Estimate several phases (step series separated by barriers) at once."""
    missing = set(phase_steps) - set(phase_ratios)
    if missing:
        raise CostModelError(f"missing ratios for phases: {sorted(missing)}")
    return {
        phase: estimate_series(steps, phase_ratios[phase])
        for phase, steps in phase_steps.items()
    }


def total_elapsed(estimates: dict[str, SeriesEstimate]) -> float:
    """Elapsed time of consecutive phases (barriers between them)."""
    return left_sum(e.total_s for e in estimates.values())
