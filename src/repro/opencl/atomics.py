"""Latch contention estimation.

OpenCL 1.2 has no dynamic memory allocation and no mutexes inside kernels;
the paper therefore builds latches from ``atomic_add`` (Section 3.3, "Memory
allocator") both in global and in local memory.  This module provides:

* :class:`LatchTable`, the per-bucket latch acquisition counts of a hash
  table build, whose concentration gives the observed contention, and
* an analytical contention estimator that turns "how many threads hammer how
  many distinct latch words" into the conflict ratio consumed by
  :meth:`repro.hardware.device.DeviceModel.atomic_time`.

The software allocators (:mod:`repro.opencl.allocator`) count their own
global and local atomics.
"""

from __future__ import annotations

import numpy as np


class LatchTable:
    """A family of latches, one per protected object (e.g. one per hash bucket)."""

    def __init__(self, n_latches: int) -> None:
        if n_latches <= 0:
            raise ValueError("n_latches must be positive")
        self.n_latches = n_latches
        self.acquisitions = np.zeros(n_latches, dtype=np.int64)

    @property
    def total_acquisitions(self) -> int:
        return int(self.acquisitions.sum())

    def conflict_ratio(self, concurrent_threads: int) -> float:
        """Observed-skew-aware contention across the latch family.

        The probability that an acquisition collides with another thread is
        driven by how concentrated the acquisitions are: with a uniform spread
        over many latches contention is negligible, with a single hot latch
        (data skew) it approaches the single-target estimate.
        """
        total = self.total_acquisitions
        if total == 0 or concurrent_threads <= 1:
            return 0.0
        # Herfindahl-style concentration of acquisitions across latches.
        shares = self.acquisitions[self.acquisitions > 0] / total
        concentration = float(np.sum(shares * shares))  # 1/n_eff
        effective_targets = max(1.0, 1.0 / concentration)
        return contention_ratio(concurrent_threads, effective_targets)


def contention_ratio(
    concurrent_threads: float,
    distinct_targets: float,
    access_probability: float = 1.0,
) -> float:
    """Probability that an atomic operation hits a currently-contended target.

    ``concurrent_threads`` hardware threads each issue atomics against
    ``distinct_targets`` objects, spending ``access_probability`` of their time
    inside the atomic section.  The returned ratio is
    ``E / (1 + E)`` with ``E`` the expected number of competitors per target,
    which saturates at 1.0 for heavy contention (the basic allocator on the
    GPU) and goes to 0 for many targets or rare atomics.
    """
    if concurrent_threads <= 1 or distinct_targets <= 0:
        return 0.0
    if not 0.0 <= access_probability <= 1.0:
        raise ValueError("access_probability must be in [0, 1]")
    expected_competitors = (concurrent_threads - 1) * access_probability / distinct_targets
    return expected_competitors / (1.0 + expected_competitors)


def concurrent_hardware_threads(device_kind: str) -> int:
    """Number of concurrently executing work items used for contention estimates.

    The paper's latch micro-benchmark (Appendix, Figure 20) uses 8192 work
    items on the GPU and 256 on the CPU; we adopt the same degree of
    concurrency as the default occupancy of each device.
    """
    if device_kind == "gpu":
        return 8192
    if device_kind == "cpu":
        return 256
    raise ValueError(f"unknown device kind {device_kind!r}")
