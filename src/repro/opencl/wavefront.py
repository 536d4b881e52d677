"""Wavefront lock-step execution and workload-divergence accounting.

All work items of a wavefront run in SIMD lock-step, so the wavefront's
execution time equals the *worst* execution time among its work items
(Section 3.3).  Divergent per-tuple workloads — e.g. skewed key-list lengths
in steps ``b3``/``p3`` — therefore waste GPU cycles.  This module quantifies
that waste and implements the grouping optimisation the paper borrows from
[18]: sorting the input by expected workload before forming wavefronts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: AMD executes 64 work items per wavefront (the terminology used in the paper).
AMD_WAVEFRONT_WIDTH = 64


@dataclass(frozen=True)
class DivergenceReport:
    """Divergence of one launch's per-item workloads."""

    #: Sum of per-item workloads (useful work).
    useful_work: float
    #: Work actually paid for: each wavefront pays width x its maximum item.
    lockstep_work: float
    #: Number of wavefronts formed.
    n_wavefronts: int

    @property
    def divergence(self) -> float:
        """Wasted fraction of the lock-step work, in [0, 1]."""
        if self.lockstep_work <= 0:
            return 0.0
        return max(0.0, 1.0 - self.useful_work / self.lockstep_work)

    @property
    def slowdown(self) -> float:
        """Lock-step work divided by useful work (>= 1)."""
        if self.useful_work <= 0:
            return 1.0
        return self.lockstep_work / self.useful_work


def wavefront_divergence(
    workloads: np.ndarray,
    width: int = AMD_WAVEFRONT_WIDTH,
) -> DivergenceReport:
    """Compute divergence for per-item workloads assigned in input order."""
    workloads = np.asarray(workloads, dtype=np.float64)
    if workloads.ndim != 1:
        raise ValueError("workloads must be a one-dimensional array")
    if width <= 0:
        raise ValueError("width must be positive")
    n = workloads.shape[0]
    if n == 0:
        return DivergenceReport(useful_work=0.0, lockstep_work=0.0, n_wavefronts=0)

    n_wavefronts = (n + width - 1) // width
    padded = np.zeros(n_wavefronts * width, dtype=np.float64)
    padded[:n] = workloads
    per_wavefront_max = padded.reshape(n_wavefronts, width).max(axis=1)
    # Each wavefront retires with its slowest work item; only lanes that carry
    # real work items are counted, so uniform work has zero divergence even
    # when the last wavefront is partially filled.
    lane_counts = np.full(n_wavefronts, width, dtype=np.float64)
    if n % width:
        lane_counts[-1] = n % width
    lockstep = float(np.sum(per_wavefront_max * lane_counts))
    useful = float(np.sum(workloads))
    return DivergenceReport(useful_work=useful, lockstep_work=lockstep, n_wavefronts=n_wavefronts)


def grouped_divergence(
    workloads: np.ndarray,
    width: int = AMD_WAVEFRONT_WIDTH,
    n_groups: int = 32,
) -> tuple[DivergenceReport, np.ndarray]:
    """Divergence after the grouping optimisation of Section 3.3.

    Items are bucketed into ``n_groups`` groups of similar workload (the paper
    groups hash-bucket headers by key-list length) and wavefronts are formed
    within groups, so each wavefront sees similar work.  Returns the report
    and the permutation applied to the input.

    ``n_groups`` trades grouping overhead against divergence reduction; the
    cost of grouping itself is charged by the caller (one sequential pass).
    """
    workloads = np.asarray(workloads, dtype=np.float64)
    if n_groups <= 0:
        raise ValueError("n_groups must be positive")
    if workloads.shape[0] == 0:
        return wavefront_divergence(workloads, width), np.empty(0, dtype=np.int64)

    # Stable sort by quantised workload keeps the permutation cheap to apply
    # and mirrors "group the input data according to the amount of workload".
    lo, hi = float(workloads.min()), float(workloads.max())
    if hi <= lo:
        order = np.arange(workloads.shape[0], dtype=np.int64)
    else:
        bins = np.minimum(
            ((workloads - lo) / (hi - lo) * n_groups).astype(np.int64), n_groups - 1
        )
        order = np.argsort(bins, kind="stable").astype(np.int64)
    report = wavefront_divergence(workloads[order], width)
    return report, order

