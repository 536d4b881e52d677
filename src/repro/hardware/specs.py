"""Hardware specifications (paper Table 1) and timing-model parameters.

The reproduction replaces the physical AMD A8-3870K APU with a calibrated
analytical device model.  The *structural* parameters (core counts, clock
frequencies, cache and buffer sizes) come straight from Table 1 of the paper;
the *timing* parameters (memory latencies, bandwidths, atomic costs,
divergence penalties) are calibration constants chosen so that the per-step
unit costs of the simulator match the shape of Figure 4 (GPU ≈ 15x faster on
hash computation, roughly equal on pointer-chasing steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


class SpecError(ValueError):
    """Raised when a hardware specification is inconsistent."""


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one compute device (CPU or GPU).

    Structural fields mirror Table 1; the remaining fields parameterise the
    analytical timing model in :mod:`repro.hardware.device`.
    """

    name: str
    kind: str  # "cpu" or "gpu"
    cores: int
    clock_ghz: float
    #: Effective instructions per cycle per core (used by Eq. 3 of the paper).
    ipc: float
    #: SIMD execution width: AMD wavefront = 64 work items, CPUs execute
    #: work items independently (width 1 for divergence purposes).
    wavefront_width: int
    #: OpenCL local memory per compute unit (bytes) — 32 KB on both devices.
    local_memory_bytes: int
    #: Cost of one cache-missing random memory access, already folded with the
    #: device's memory-level parallelism (seconds per access).
    dram_random_access_s: float
    #: Cost of one cache-hitting access (seconds per access).
    cache_hit_access_s: float
    #: Sequential (streaming) bandwidth available to the device (bytes/s).
    sequential_bandwidth: float
    #: Cost of an uncontended global-memory atomic operation (seconds).
    atomic_global_s: float
    #: Cost of an uncontended local-memory atomic operation (seconds).
    atomic_local_s: float
    #: Additional penalty factor applied per unit of workload divergence.
    #: The GPU executes a wavefront in lock-step, so divergence is expensive;
    #: the CPU has branch prediction and independent lanes.
    divergence_penalty: float
    #: Multiplier for contended atomics (models serialisation of a latch).
    atomic_contention_factor: float

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu"):
            raise SpecError(f"kind must be 'cpu' or 'gpu', got {self.kind!r}")
        if self.cores <= 0 or self.clock_ghz <= 0 or self.ipc <= 0:
            raise SpecError("cores, clock_ghz and ipc must be positive")
        if self.wavefront_width <= 0:
            raise SpecError("wavefront_width must be positive")

    @property
    def instruction_throughput(self) -> float:
        """Peak instructions per second across the whole device."""
        return self.cores * self.ipc * self.clock_ghz * 1e9

    def scaled(self, **overrides: float) -> "DeviceSpec":
        """Return a copy with some fields overridden (for what-if studies)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class CacheSpec:
    """Description of the (shared) last-level data cache."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 16
    #: Miss ratio floor even for resident working sets (cold/conflict misses).
    cold_miss_ratio: float = 0.02

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise SpecError("cache size, line size and associativity must be positive")
        if self.size_bytes % self.line_bytes:
            raise SpecError("cache size must be a multiple of the line size")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return max(self.n_lines // self.associativity, 1)


@dataclass(frozen=True)
class PCIeSpec:
    """PCI-e bus parameters used for the emulated discrete architecture.

    The paper emulates a bus with latency 0.015 ms and bandwidth 3 GB/s
    (Section 5.1); the transfer delay of one message is
    ``latency + size / bandwidth``.
    """

    latency_s: float = 0.015e-3
    bandwidth_bytes_per_s: float = 3.0 * GB

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.bandwidth_bytes_per_s <= 0:
            raise SpecError("PCI-e latency must be >= 0 and bandwidth > 0")


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine: two devices plus the memory system."""

    name: str
    cpu: DeviceSpec
    gpu: DeviceSpec
    cache: CacheSpec
    zero_copy_buffer_bytes: int
    #: None on the coupled architecture (no bus); a PCIeSpec on the discrete one.
    pcie: PCIeSpec | None = None
    #: Whether the CPU and GPU share the last-level cache.
    shared_cache: bool = True

    @property
    def is_coupled(self) -> bool:
        return self.pcie is None

    def device(self, kind: str) -> DeviceSpec:
        if kind == "cpu":
            return self.cpu
        if kind == "gpu":
            return self.gpu
        raise SpecError(f"unknown device kind {kind!r}")


# ---------------------------------------------------------------------------
# Calibrated specifications (Table 1 + Figure 4 calibration)
# ---------------------------------------------------------------------------

#: The CPU of the AMD A8-3870K APU: 4 cores at 3.0 GHz.
APU_CPU = DeviceSpec(
    name="A8-3870K CPU",
    kind="cpu",
    cores=4,
    clock_ghz=3.0,
    ipc=1.0,
    wavefront_width=1,
    local_memory_bytes=32 * KB,
    dram_random_access_s=12.0e-9,
    cache_hit_access_s=1.0e-9,
    sequential_bandwidth=20.0 * GB,
    atomic_global_s=2.0e-9,
    atomic_local_s=1.0e-9,
    divergence_penalty=0.15,
    atomic_contention_factor=4.0,
)

#: The integrated GPU of the AMD A8-3870K APU: 400 cores at 0.6 GHz.
APU_GPU = DeviceSpec(
    name="A8-3870K GPU",
    kind="gpu",
    cores=400,
    clock_ghz=0.6,
    ipc=1.0,
    wavefront_width=64,
    local_memory_bytes=32 * KB,
    dram_random_access_s=13.0e-9,
    cache_hit_access_s=1.8e-9,
    sequential_bandwidth=22.0 * GB,
    atomic_global_s=1.8e-9,
    atomic_local_s=0.8e-9,
    divergence_penalty=0.5,
    atomic_contention_factor=8.0,
)

#: The discrete AMD Radeon HD 7970, shown for reference in Table 1.
DISCRETE_HD7970 = DeviceSpec(
    name="Radeon HD 7970",
    kind="gpu",
    cores=2048,
    clock_ghz=0.925,
    ipc=1.0,
    wavefront_width=64,
    local_memory_bytes=32 * KB,
    dram_random_access_s=1.2e-9,
    cache_hit_access_s=0.6e-9,
    sequential_bandwidth=264.0 * GB,
    atomic_global_s=1.5e-9,
    atomic_local_s=0.5e-9,
    divergence_penalty=0.9,
    atomic_contention_factor=10.0,
)

#: Shared 4 MB L2 data cache of the APU (Table 1).
APU_CACHE = CacheSpec(size_bytes=4 * MB)

#: Zero-copy buffer size of the APU (Table 1): 512 MB shared.
APU_ZERO_COPY_BYTES = 512 * MB

#: The coupled machine used throughout the paper's evaluation.
COUPLED_A8_3870K = MachineSpec(
    name="AMD A8-3870K (coupled)",
    cpu=APU_CPU,
    gpu=APU_GPU,
    cache=APU_CACHE,
    zero_copy_buffer_bytes=APU_ZERO_COPY_BYTES,
    pcie=None,
    shared_cache=True,
)

#: The emulated discrete machine: same devices, PCI-e transfers, no cache sharing
#: benefits between devices (the paper notes its emulation still physically
#: shares the cache; we model the bus and merge overheads it adds).
EMULATED_DISCRETE = MachineSpec(
    name="Emulated discrete CPU-GPU",
    cpu=APU_CPU,
    gpu=APU_GPU,
    cache=APU_CACHE,
    zero_copy_buffer_bytes=APU_ZERO_COPY_BYTES,
    pcie=PCIeSpec(),
    shared_cache=False,
)


def table1_rows() -> list[dict[str, object]]:
    """Rows of Table 1 of the paper, regenerated from the spec constants."""
    return [
        {
            "metric": "# Cores",
            "CPU (APU)": APU_CPU.cores,
            "GPU (APU)": APU_GPU.cores,
            "GPU (Discrete)": DISCRETE_HD7970.cores,
        },
        {
            "metric": "Core frequency (GHz)",
            "CPU (APU)": APU_CPU.clock_ghz,
            "GPU (APU)": APU_GPU.clock_ghz,
            "GPU (Discrete)": DISCRETE_HD7970.clock_ghz,
        },
        {
            "metric": "Zero copy buffer (MB)",
            "CPU (APU)": APU_ZERO_COPY_BYTES // MB,
            "GPU (APU)": "shared",
            "GPU (Discrete)": "-",
        },
        {
            "metric": "Local memory size (KB)",
            "CPU (APU)": APU_CPU.local_memory_bytes // KB,
            "GPU (APU)": APU_GPU.local_memory_bytes // KB,
            "GPU (Discrete)": DISCRETE_HD7970.local_memory_bytes // KB,
        },
        {
            "metric": "Cache size (MB)",
            "CPU (APU)": APU_CACHE.size_bytes // MB,
            "GPU (APU)": "shared",
            "GPU (Discrete)": "-",
        },
    ]
