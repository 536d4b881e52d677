"""OpenCL-style execution abstraction (paper Section 2.2 and 3.3)."""

from .allocator import (
    AllocatorStats,
    Arena,
    ArenaExhaustedError,
    BasicAllocator,
    BlockAllocator,
    MemoryAllocator,
    make_allocator,
)
from .atomics import LatchTable, concurrent_hardware_threads, contention_ratio
from .wavefront import (
    AMD_WAVEFRONT_WIDTH,
    DivergenceReport,
    wavefront_divergence,
)

__all__ = [
    "AMD_WAVEFRONT_WIDTH",
    "AllocatorStats",
    "Arena",
    "ArenaExhaustedError",
    "BasicAllocator",
    "BlockAllocator",
    "DivergenceReport",
    "LatchTable",
    "MemoryAllocator",
    "concurrent_hardware_threads",
    "contention_ratio",
    "make_allocator",
    "wavefront_divergence",
]
