"""Tests for the OpenCL-style abstraction: wavefronts, latch contention and
allocators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware import WorkStats
from repro.opencl import (
    AMD_WAVEFRONT_WIDTH,
    Arena,
    ArenaExhaustedError,
    BasicAllocator,
    BlockAllocator,
    LatchTable,
    concurrent_hardware_threads,
    contention_ratio,
    grouped_divergence,
    make_allocator,
    wavefront_divergence,
)


class TestWavefrontDivergence:
    def test_uniform_work_has_no_divergence(self):
        report = wavefront_divergence(np.ones(256))
        assert report.divergence == pytest.approx(0.0)

    def test_single_hot_item_creates_divergence(self):
        workloads = np.ones(64)
        workloads[0] = 64.0
        report = wavefront_divergence(workloads)
        assert report.divergence > 0.9

    def test_grouping_reduces_divergence(self):
        rng = np.random.default_rng(1)
        workloads = rng.choice([1.0, 50.0], size=4096, p=[0.9, 0.1])
        ungrouped = wavefront_divergence(workloads).divergence
        grouped, order = grouped_divergence(workloads, n_groups=32)
        assert grouped.divergence < ungrouped
        assert sorted(order.tolist()) == list(range(4096))

    def test_empty_input(self):
        assert wavefront_divergence(np.array([])).divergence == 0.0

    def test_slowdown_at_least_one(self):
        report = wavefront_divergence(np.arange(1, 200, dtype=float))
        assert report.slowdown >= 1.0


class TestAtomics:
    def test_latch_table_uniform_low_conflict(self):
        table = LatchTable(n_latches=1024)
        for i in range(1024):
            table.acquire_release(i)
        assert table.conflict_ratio(256) < 0.3

    def test_latch_table_hot_latch_high_conflict(self):
        table = LatchTable(n_latches=1024)
        for _ in range(1024):
            table.acquire_release(7)
        assert table.conflict_ratio(8192) > 0.9

    def test_contention_ratio_monotone_in_threads(self):
        low = contention_ratio(2, 1)
        high = contention_ratio(8192, 1)
        assert high > low
        assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0

    def test_contention_ratio_monotone_in_targets(self):
        few = contention_ratio(1000, 1)
        many = contention_ratio(1000, 100_000)
        assert few > many

    def test_single_thread_no_contention(self):
        assert contention_ratio(1, 1) == 0.0

    def test_concurrent_hardware_threads(self):
        assert concurrent_hardware_threads("gpu") > concurrent_hardware_threads("cpu")
        with pytest.raises(ValueError):
            concurrent_hardware_threads("dsp")


class TestAllocators:
    def test_basic_allocator_one_global_atomic_per_request(self):
        allocator = BasicAllocator(Arena(1 << 20))
        for _ in range(10):
            allocator.allocate(16)
        assert allocator.stats.requests == 10
        assert allocator.stats.global_atomics == 10
        assert allocator.stats.local_atomics == 0

    def test_block_allocator_amortises_global_atomics(self):
        allocator = BlockAllocator(Arena(1 << 20), block_bytes=256)
        for i in range(64):
            allocator.allocate(16, group_id=0)
        # 64 requests of 16 bytes = 1024 bytes = 4 blocks of 256.
        assert allocator.stats.global_atomics == 4
        assert allocator.stats.local_atomics == 64

    def test_block_allocator_separate_groups_use_separate_blocks(self):
        allocator = BlockAllocator(Arena(1 << 20), block_bytes=256)
        allocator.allocate(16, group_id=0)
        allocator.allocate(16, group_id=1)
        assert allocator.stats.blocks_grabbed == 2

    def test_oversized_request_bypasses_block(self):
        allocator = BlockAllocator(Arena(1 << 20), block_bytes=64)
        offset = allocator.allocate(1024, group_id=0)
        assert offset == 0
        assert allocator.stats.global_atomics == 1

    def test_allocations_do_not_overlap(self):
        allocator = BlockAllocator(Arena(1 << 16), block_bytes=128)
        seen = set()
        for i in range(100):
            offset = allocator.allocate(8, group_id=i % 4)
            assert offset not in seen
            seen.add(offset)

    def test_arena_exhaustion(self):
        allocator = BasicAllocator(Arena(64))
        allocator.allocate(48)
        with pytest.raises(ArenaExhaustedError):
            allocator.allocate(32)

    def test_arena_bump_returns_previous_offset(self):
        # The free pointer is a global atomic_add: it returns the previous
        # value and counts one global atomic per advance.
        arena = Arena(64)
        assert arena.bump(5) == 0
        assert arena.global_atomics == 1
        assert arena.bump(3) == 5
        assert arena.used_bytes == 8
        assert arena.global_atomics == 2

    def test_bulk_allocate_matches_per_request_accounting(self):
        per_request = BlockAllocator(Arena(1 << 20), block_bytes=2048)
        for _ in range(256):
            per_request.allocate(8, group_id=0)
        bulk = BlockAllocator(Arena(1 << 20), block_bytes=2048)
        bulk.bulk_allocate(256, 8, n_groups=1)
        assert bulk.stats.requests == per_request.stats.requests
        assert bulk.stats.local_atomics == per_request.stats.local_atomics
        assert abs(bulk.stats.global_atomics - per_request.stats.global_atomics) <= 1

    def test_conflict_ratio_falls_with_block_size(self):
        small = make_allocator("block", block_bytes=8)
        large = make_allocator("block", block_bytes=32768)
        assert large.conflict_ratio("gpu", 8) < small.conflict_ratio("gpu", 8)

    def test_basic_has_higher_conflict_than_block(self):
        basic = make_allocator("basic")
        block = make_allocator("block", block_bytes=2048)
        assert basic.conflict_ratio("gpu", 8) > block.conflict_ratio("gpu", 8)

    def test_make_allocator_unknown_kind(self):
        with pytest.raises(ValueError):
            make_allocator("slab")
