"""Machine models: the coupled APU and the emulated discrete architecture.

A :class:`Machine` bundles the two device timing models with the shared cache
model, the memory system (zero copy buffer) and, for the discrete
architecture, the PCI-e bus.  The join executors only talk to a ``Machine``:
they ask it how long a given amount of work takes on a given device and how
long data movement takes, so the *same* join code runs on both architectures
— exactly the property the paper gets from OpenCL.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheModel, WorkingSet
from .device import DeviceModel, MemoryEnvironment
from .memoryspace import MemorySpace, MemorySystem, ZeroCopyBuffer
from .pcie import PCIeBus
from .specs import COUPLED_A8_3870K, EMULATED_DISCRETE, GB, MachineSpec
from .workstats import TimeBreakdown, WorkStats

CPU = "cpu"
GPU = "gpu"
DEVICE_KINDS = (CPU, GPU)


class Machine:
    """A simulated CPU-GPU machine (coupled or discrete)."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self._models = {
            CPU: DeviceModel(spec.cpu),
            GPU: DeviceModel(spec.gpu),
        }
        self.cache = CacheModel(spec.cache, shared=spec.shared_cache)
        self.bus = PCIeBus(spec.pcie) if spec.pcie is not None else None
        self.memory = MemorySystem(
            zero_copy=ZeroCopyBuffer(spec.zero_copy_buffer_bytes),
            system_memory=MemorySpace("system-memory", capacity_bytes=16 * GB),
        )

    # ------------------------------------------------------------------
    # Device access
    # ------------------------------------------------------------------
    @property
    def is_coupled(self) -> bool:
        return self.bus is None

    def device_model(self, kind: str) -> DeviceModel:
        if kind not in self._models:
            raise ValueError(f"unknown device kind {kind!r}; expected one of {DEVICE_KINDS}")
        return self._models[kind]

    @property
    def cpu(self) -> DeviceModel:
        return self._models[CPU]

    @property
    def gpu(self) -> DeviceModel:
        return self._models[GPU]

    # ------------------------------------------------------------------
    # Memory environment
    # ------------------------------------------------------------------
    def memory_environment(self, working_set: WorkingSet | None) -> MemoryEnvironment:
        """Translate a step's working set into a cache miss ratio."""
        if working_set is None:
            return MemoryEnvironment(miss_ratio=1.0)
        fraction = working_set.partition_fraction(self.spec.shared_cache)
        miss = self.cache.miss_ratio(working_set.bytes, partition_fraction=fraction)
        return MemoryEnvironment(miss_ratio=miss)

    # ------------------------------------------------------------------
    # Timing entry points
    # ------------------------------------------------------------------
    def step_time(
        self,
        device: str,
        stats: WorkStats,
        working_set: WorkingSet | None = None,
    ) -> TimeBreakdown:
        """Simulated time of executing ``stats`` on ``device``.

        Cache accesses are recorded against the machine-wide cache counters so
        experiments can report miss counts (Table 3).
        """
        env = self.memory_environment(working_set)
        if stats.random_accesses:
            self.cache.record_accesses(stats.random_accesses, env.miss_ratio)
        return self.device_model(device).elapsed(stats, env)

    def step_seconds(
        self,
        device: str,
        stats: WorkStats,
        working_set: WorkingSet | None = None,
    ) -> float:
        return self.step_time(device, stats, working_set).total_s

    def transfer_seconds(self, n_bytes: int, direction: str, label: str = "") -> float:
        """Data-movement cost between host and device memory.

        Zero on the coupled architecture (the point of the paper); the PCI-e
        delay formula on the discrete architecture.
        """
        if self.bus is None:
            return 0.0
        return self.bus.transfer(n_bytes, direction, label=label)

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        self.cache.reset()
        if self.bus is not None:
            self.bus.reset()
        self.memory.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine({self.spec.name!r}, coupled={self.is_coupled})"


def coupled_machine() -> Machine:
    """The default coupled AMD A8-3870K machine used in the paper."""
    return Machine(COUPLED_A8_3870K)


def discrete_machine() -> Machine:
    """The emulated discrete CPU-GPU machine (PCI-e 3 GB/s, 0.015 ms latency)."""
    return Machine(EMULATED_DISCRETE)
