"""Software dynamic-memory allocators (Section 3.3, "Memory allocator").

OpenCL 1.2 cannot allocate memory inside a kernel, so the paper pre-allocates
an array and serves requests from it:

* the **basic allocator** keeps one global free pointer and advances it with a
  global ``atomic_add`` for *every* request — simple, but the single hot word
  serialises the GPU's thousands of work items;
* the **optimised (block) allocator** lets work item 0 of a work group grab a
  whole block with one global atomic, after which the group's work items
  carve the block using a cheap local-memory pointer.  The block size is a
  tuning knob (Figure 11, best ≈ 2 KB).

Both allocators here really hand out offsets into a pre-allocated arena (the
hash table and partition buffers are built inside it) and count the atomics
they issue so the device model can charge latch time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomics import concurrent_hardware_threads, contention_ratio


class ArenaExhaustedError(RuntimeError):
    """Raised when the pre-allocated arena cannot serve a request."""


@dataclass
class AllocatorStats:
    """Operation counters of one allocator instance."""

    requests: int = 0
    allocated_bytes: int = 0
    wasted_bytes: int = 0
    global_atomics: int = 0
    local_atomics: int = 0
    blocks_grabbed: int = 0

    def merge(self, other: "AllocatorStats") -> "AllocatorStats":
        return AllocatorStats(
            requests=self.requests + other.requests,
            allocated_bytes=self.allocated_bytes + other.allocated_bytes,
            wasted_bytes=self.wasted_bytes + other.wasted_bytes,
            global_atomics=self.global_atomics + other.global_atomics,
            local_atomics=self.local_atomics + other.local_atomics,
            blocks_grabbed=self.blocks_grabbed + other.blocks_grabbed,
        )


class Arena:
    """A pre-allocated byte arena shared by all work groups.

    Its free pointer lives in global memory and every advance is one global
    ``atomic_add``, so the arena keeps two counters: the pointer itself
    (``used_bytes``) and the number of global atomics issued on it.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.global_atomics = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def bump(self, nbytes: int) -> int:
        """Advance the global pointer; returns the previous offset."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise ArenaExhaustedError(
                f"arena exhausted: requested {nbytes} bytes, "
                f"{self.free_bytes} of {self.capacity_bytes} free"
            )
        previous = self.used_bytes
        self.used_bytes += int(nbytes)
        self.global_atomics += 1
        return previous

    def absorb(self, nbytes: int, n_bumps: int) -> None:
        """Replay ``n_bumps`` pointer advances totalling ``nbytes`` at once.

        Used when partition pairs were joined by workers with private arenas:
        the driver arena absorbs each worker's usage with one capacity-checked
        advance whose atomic-op count equals the individual bumps it stands
        for, so the merged counters match the serial shared-arena run exactly.
        """
        if n_bumps < 0:
            raise ValueError("n_bumps must be non-negative")
        if n_bumps == 0:
            if nbytes:
                raise ValueError("cannot absorb bytes without any bumps")
            return
        self.bump(nbytes)
        self.global_atomics += n_bumps - 1

    def reset(self) -> None:
        self.used_bytes = 0
        self.global_atomics = 0


class MemoryAllocator:
    """Common interface of the basic and block allocators."""

    name = "abstract"

    def __init__(self, arena: Arena) -> None:
        self.arena = arena
        self.stats = AllocatorStats()

    # -- allocation ----------------------------------------------------
    def allocate(self, nbytes: int, group_id: int = 0) -> int:
        """Allocate ``nbytes`` on behalf of a work item of ``group_id``.

        Returns the byte offset of the allocation inside the arena.
        """
        raise NotImplementedError

    def bulk_allocate(self, n_requests: int, request_bytes: int) -> int:
        """Serve ``n_requests`` equal-sized requests at once.

        This is the vectorised equivalent of calling :meth:`allocate` once per
        request: the arena pointer advances by the total size, and the atomic
        counters are updated with the same totals the per-request path would
        produce.  Returns the starting byte offset of the contiguous region.
        """
        if n_requests < 0 or request_bytes < 0:
            raise ValueError("n_requests and request_bytes must be non-negative")
        if n_requests == 0:
            return self.arena.used_bytes
        global_per_request, local_per_request = self.atomics_per_request(max(request_bytes, 1))
        offset = self.arena.bump(n_requests * request_bytes)
        self.stats.requests += n_requests
        self.stats.allocated_bytes += n_requests * request_bytes
        self.stats.global_atomics += int(round(global_per_request * n_requests))
        self.stats.local_atomics += int(round(local_per_request * n_requests))
        return offset

    # -- cost accounting -----------------------------------------------
    def atomics_per_request(self, request_bytes: int) -> tuple[float, float]:
        """Average (global, local) atomics issued per allocation request."""
        raise NotImplementedError

    def conflict_ratio(self, device_kind: str, request_bytes: int,
                       work_fraction_in_atomic: float = 0.3) -> float:
        """Contention ratio of the allocator's *global* atomics on a device.

        ``work_fraction_in_atomic`` is the fraction of a work item's time spent
        inside the global atomic section when it does issue one; the effective
        access probability scales down with how rarely global atomics happen.
        """
        global_per_request, _ = self.atomics_per_request(request_bytes)
        threads = concurrent_hardware_threads(device_kind)
        access_probability = min(1.0, work_fraction_in_atomic * global_per_request)
        return contention_ratio(threads, 1.0, access_probability)

    def absorb(self, stats: AllocatorStats, arena_bytes: int, arena_bumps: int) -> None:
        """Fold a worker allocator's effects into this one.

        ``stats`` are the worker's counters (all additive), ``arena_bytes`` /
        ``arena_bumps`` its arena usage.  The bulk allocation paths depend
        only on the allocator *configuration*, never on its history, so pairs
        joined against private worker allocators produce the same step series
        as against the shared one — absorbing the deltas in pair order makes
        the driver's counters bit-identical to the serial run too.
        """
        self.stats = self.stats.merge(stats)
        self.arena.absorb(arena_bytes, arena_bumps)

    def reset(self) -> None:
        self.stats = AllocatorStats()


class BasicAllocator(MemoryAllocator):
    """One global pointer, one global atomic per request."""

    name = "basic"

    def allocate(self, nbytes: int, group_id: int = 0) -> int:
        offset = self.arena.bump(nbytes)
        self.stats.requests += 1
        self.stats.allocated_bytes += nbytes
        self.stats.global_atomics += 1
        return offset

    def atomics_per_request(self, request_bytes: int) -> tuple[float, float]:
        return 1.0, 0.0


class BlockAllocator(MemoryAllocator):
    """The optimised allocator: per-work-group blocks, local-pointer carving.

    ``block_bytes`` is the tuning knob studied in Figure 11; the paper settles
    on 2 KB.
    """

    DEFAULT_BLOCK_BYTES = 2048

    def __init__(self, arena: Arena, block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        super().__init__(arena)
        # A power-of-two block holds a whole number of every power-of-two
        # request, so each request's share of a block's global atomic is
        # dyadic and a uniform step's workload proxy stays exact.
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ValueError(f"block_bytes must be a positive power of two, got {block_bytes}")
        self.block_bytes = block_bytes
        # group_id -> (next offset within block, remaining bytes)
        self._group_blocks: dict[int, tuple[int, int]] = {}

    def allocate(self, nbytes: int, group_id: int = 0) -> int:
        if nbytes > self.block_bytes:
            # Oversized requests bypass the block and hit the global pointer,
            # like work item 0 grabbing a dedicated block.
            offset = self.arena.bump(nbytes)
            self.stats.requests += 1
            self.stats.allocated_bytes += nbytes
            self.stats.global_atomics += 1
            self.stats.blocks_grabbed += 1
            return offset

        offset, remaining = self._group_blocks.get(group_id, (0, 0))
        if remaining < nbytes:
            # Work item 0 of the group grabs a fresh block (one global atomic);
            # whatever was left of the old block is wasted.
            self.stats.wasted_bytes += remaining
            offset = self.arena.bump(self.block_bytes)
            remaining = self.block_bytes
            self.stats.global_atomics += 1
            self.stats.blocks_grabbed += 1

        # The request itself is served with a local-memory atomic on the
        # group's local pointer.
        self.stats.requests += 1
        self.stats.allocated_bytes += nbytes
        self.stats.local_atomics += 1
        self._group_blocks[group_id] = (offset + nbytes, remaining - nbytes)
        return offset

    def atomics_per_request(self, request_bytes: int) -> tuple[float, float]:
        if request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        requests_per_block = max(1.0, self.block_bytes / request_bytes)
        return 1.0 / requests_per_block, 1.0

    def reset(self) -> None:
        super().reset()
        self._group_blocks.clear()


def make_allocator(
    kind: str,
    arena: Arena | None = None,
    capacity_bytes: int = 1 << 30,
    block_bytes: int = BlockAllocator.DEFAULT_BLOCK_BYTES,
) -> MemoryAllocator:
    """Factory for the two allocator variants compared in Figure 12."""
    arena = arena or Arena(capacity_bytes)
    if kind == "basic":
        return BasicAllocator(arena)
    if kind == "block":
        return BlockAllocator(arena, block_bytes=block_bytes)
    raise ValueError(f"unknown allocator kind {kind!r}; expected 'basic' or 'block'")
