"""Wavefront lock-step execution and workload-divergence accounting.

All work items of a wavefront run in SIMD lock-step, so the wavefront's
execution time equals the *worst* execution time among its work items
(Section 3.3).  Divergent per-tuple workloads — e.g. skewed key-list lengths
in steps ``b3``/``p3`` — therefore waste GPU cycles.  This module quantifies
that waste.  The grouping optimisation the paper borrows from [18], sorting
the input by expected workload before forming wavefronts, is applied where
the range statistics are taken:
:meth:`~repro.hashjoin.steps.PerTupleWork.stats_for_range` with
``grouped=True`` sorts the range before measuring its divergence here.
"""

from __future__ import annotations

import math
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

    n_full, tail = divmod(n, width)
    n_wavefronts = n_full + (1 if tail else 0)
    # Each wavefront retires with its slowest work item; only lanes that carry
    # real work items are counted, so uniform work has zero divergence even
    # when the last wavefront is partially filled.  The full wavefronts'
    # maxima come from a view of the input; the tail's maximum never falls
    # below 0.0, the value an idle lane of a zero-padded last wavefront holds.
    lockstep_terms = np.empty(n_wavefronts, dtype=np.float64)
    full = workloads[: n_full * width].reshape(n_full, width)
    np.multiply(full.max(axis=1), width, out=lockstep_terms[:n_full])
    if tail:
        lockstep_terms[-1] = max(float(workloads[n_full * width:].max()), 0.0) * tail
    lockstep = float(np.sum(lockstep_terms))
    useful = float(np.sum(workloads))
    return DivergenceReport(useful_work=useful, lockstep_work=lockstep, n_wavefronts=n_wavefronts)


def uniform_divergence(value: float, n: int, width: int = AMD_WAVEFRONT_WIDTH) -> float:
    """``wavefront_divergence(np.full(n, value), width).divergence``, bit for bit.

    Write ``value = p / 2**k`` in lowest terms (``value.as_integer_ratio()``).
    When ``value >= 0`` and ``n * p <= 2**53``, every product and partial
    sum in both of :func:`wavefront_divergence`'s reductions is
    ``m * value`` for some ``m <= n``, and ``m * p`` fits in a double's
    53-bit significand, so each is exact.  The useful and the lock-step work
    then both equal ``n * value`` and the divergence is exactly 0.0, with no
    array built.  Otherwise rounding can leave a nonzero divergence
    (``value = 0.1`` does at some lengths), so the array is built.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if 0.0 <= value < math.inf and n * value.as_integer_ratio()[0] <= 2**53:
        return 0.0
    return wavefront_divergence(np.full(n, value), width).divergence
