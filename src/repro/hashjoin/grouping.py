"""Workload-divergence grouping (Section 3.3, "Workload divergence").

Data skew makes the per-tuple work of steps ``b3``/``p3`` (key-list length)
and ``p4`` (number of matches) vary widely inside one wavefront, and a
wavefront only retires when its slowest work item does.  The paper reduces the
penalty by grouping the input by expected workload before forming wavefronts
(borrowed from [18]), reporting a 5-10% end-to-end gain.

This module exposes the grouping decision as a standalone, testable unit: it
estimates the divergence of a step with and without grouping and tells the
caller whether paying the grouping pass is worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..opencl.wavefront import (
    AMD_WAVEFRONT_WIDTH,
    grouped_divergence,
    wavefront_divergence,
)
from .steps import PerTupleWork, StepExecution


@dataclass(frozen=True)
class GroupingDecision:
    """Outcome of evaluating the grouping optimisation for one step."""

    divergence_ungrouped: float
    divergence_grouped: float
    #: Per-tuple overhead of the grouping pass relative to the step's work.
    relative_overhead: float
    n_groups: int

    @property
    def divergence_reduction(self) -> float:
        return max(0.0, self.divergence_ungrouped - self.divergence_grouped)

    @property
    def worthwhile(self) -> bool:
        """Group when the saved divergence exceeds the grouping overhead."""
        return self.divergence_reduction > self.relative_overhead


def evaluate_grouping(
    work: PerTupleWork,
    n_groups: int = 32,
    wavefront_width: int = AMD_WAVEFRONT_WIDTH,
    grouping_cost_per_tuple: float = 6.0,
) -> GroupingDecision:
    """Estimate divergence with/without grouping for a step's per-tuple work."""
    if n_groups <= 0:
        raise ValueError("n_groups must be positive")
    proxy = work.workload_proxy()
    if proxy.shape[0] == 0:
        return GroupingDecision(0.0, 0.0, 0.0, n_groups)
    ungrouped = wavefront_divergence(proxy, width=wavefront_width).divergence
    grouped_report, _ = grouped_divergence(proxy, width=wavefront_width, n_groups=n_groups)
    mean_work = float(proxy.mean()) if proxy.shape[0] else 1.0
    relative_overhead = grouping_cost_per_tuple / max(mean_work, 1e-9)
    return GroupingDecision(
        divergence_ungrouped=ungrouped,
        divergence_grouped=grouped_report.divergence,
        relative_overhead=relative_overhead,
        n_groups=n_groups,
    )


def evaluate_step_grouping(
    execution: StepExecution,
    n_groups: int = 32,
    wavefront_width: int = AMD_WAVEFRONT_WIDTH,
) -> GroupingDecision:
    """Convenience wrapper taking an executed step."""
    return evaluate_grouping(
        execution.work, n_groups=n_groups, wavefront_width=wavefront_width
    )


def tune_group_count(
    work: PerTupleWork,
    candidates: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    wavefront_width: int = AMD_WAVEFRONT_WIDTH,
) -> int:
    """Pick the group count trading grouping overhead against divergence.

    The paper notes the number of groups is "tuned for the tradeoff between
    the grouping overhead and the gain of reduced workload divergence"; the
    overhead grows (mildly) with the group count while the residual divergence
    shrinks, so we minimise their sum.
    """
    proxy = work.workload_proxy()
    if proxy.shape[0] == 0:
        return candidates[0]
    best_count = candidates[0]
    best_score = float("inf")
    mean_work = max(float(proxy.mean()), 1e-9)
    for count in candidates:
        report, _ = grouped_divergence(proxy, width=wavefront_width, n_groups=count)
        overhead = (6.0 + 0.05 * count) / mean_work
        score = report.divergence + overhead
        if score < best_score:
            best_score = score
            best_count = count
    return best_count
