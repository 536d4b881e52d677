"""Tests for the OpenCL-style abstraction: wavefronts, latch contention and
allocators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.hardware import WorkStats
from repro.hashjoin import HashJoinConfig
from repro.opencl import (
    AMD_WAVEFRONT_WIDTH,
    Arena,
    ArenaExhaustedError,
    BasicAllocator,
    BlockAllocator,
    DivergenceReport,
    LatchTable,
    concurrent_hardware_threads,
    contention_ratio,
    make_allocator,
    wavefront_divergence,
)


def padded_wavefront_divergence(workloads: np.ndarray, width: int) -> DivergenceReport:
    """Reference: the last wavefront zero-padded to full width, and the
    lock-step work summed over per-wavefront lane counts."""
    workloads = np.asarray(workloads, dtype=np.float64)
    n = workloads.shape[0]
    if n == 0:
        return DivergenceReport(useful_work=0.0, lockstep_work=0.0, n_wavefronts=0)
    n_wavefronts = (n + width - 1) // width
    padded = np.zeros(n_wavefronts * width, dtype=np.float64)
    padded[:n] = workloads
    per_wavefront_max = padded.reshape(n_wavefronts, width).max(axis=1)
    lane_counts = np.full(n_wavefronts, width, dtype=np.float64)
    if n % width:
        lane_counts[-1] = n % width
    lockstep = float(np.sum(per_wavefront_max * lane_counts))
    useful = float(np.sum(workloads))
    return DivergenceReport(useful_work=useful, lockstep_work=lockstep, n_wavefronts=n_wavefronts)


@st.composite
def wavefront_inputs(draw) -> tuple[np.ndarray, int]:
    """Workloads of length 0-300 (often a multiple of the width or one off
    it) holding zeros and negatives, with one of the widths 1, 63, 64, 65."""
    width = draw(st.sampled_from([1, 63, 64, 65]))
    near_multiple = st.builds(
        lambda k, off: min(max(k * width + off, 0), 300),
        st.integers(min_value=0, max_value=300 // width),
        st.sampled_from([-1, 0, 1]),
    )
    n = draw(st.one_of(st.integers(min_value=0, max_value=300), near_multiple))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.1]),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    # Items are drawn from a small pool (repeats and ties) or spread
    # uniformly; building them with NumPy keeps 300-item examples cheap.
    pool = draw(st.lists(value, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(np.asarray(pool, dtype=np.float64), size=n)
    else:
        values = rng.uniform(-1e3, 1e3, size=n)
    if draw(st.booleans()):
        # All non-positive: the tail's maximum falls below the padding's 0.0.
        values = -np.abs(values)
    return values, width


class TestWavefrontDivergence:
    def test_uniform_work_has_no_divergence(self):
        report = wavefront_divergence(np.ones(256))
        assert report.divergence == pytest.approx(0.0)

    def test_single_hot_item_creates_divergence(self):
        workloads = np.ones(64)
        workloads[0] = 64.0
        report = wavefront_divergence(workloads)
        assert report.divergence > 0.9

    def test_empty_input(self):
        assert wavefront_divergence(np.array([])).divergence == 0.0

    def test_slowdown_at_least_one(self):
        report = wavefront_divergence(np.arange(1, 200, dtype=float))
        assert report.slowdown >= 1.0

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(wavefront_inputs())
    @example((np.array([-2.0, -1.0, -3.0]), 64))
    @example((np.full(129, 0.1), 64))
    def test_copy_free_equals_the_padded_reference(self, inputs):
        # The full wavefronts are read through a view and the tail as
        # max(tail.max(), 0.0) * len(tail); both sums see the reference's
        # values in its order, so the reports are equal, not just close.
        workloads, width = inputs
        report = wavefront_divergence(workloads, width)
        reference = padded_wavefront_divergence(workloads, width)
        assert report.useful_work == reference.useful_work
        assert report.lockstep_work == reference.lockstep_work
        assert report.n_wavefronts == reference.n_wavefronts


class TestAtomics:
    def test_latch_table_uniform_low_conflict(self):
        table = LatchTable(n_latches=1024)
        table.acquisitions += 1  # one acquisition on every latch
        assert table.conflict_ratio(256) < 0.3

    def test_latch_table_hot_latch_high_conflict(self):
        table = LatchTable(n_latches=1024)
        table.acquisitions[7] += 1024  # every acquisition on one latch
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
        bulk.bulk_allocate(256, 8)
        assert bulk.stats.requests == per_request.stats.requests
        assert bulk.stats.local_atomics == per_request.stats.local_atomics
        assert abs(bulk.stats.global_atomics - per_request.stats.global_atomics) <= 1

    def test_block_size_must_be_a_power_of_two(self):
        # Other sizes can make a uniform step's workload proxy non-dyadic.
        for block_bytes in (0, -8, 3, 2049, 3000):
            with pytest.raises(ValueError, match="power of two"):
                BlockAllocator(Arena(1 << 20), block_bytes=block_bytes)
        with pytest.raises(ValueError, match="power of two"):
            HashJoinConfig(allocator_block_bytes=3000).make_allocator(1 << 20)
        for block_bytes in (1, 8, 2048, 32768):
            assert BlockAllocator(Arena(1 << 20), block_bytes).block_bytes == block_bytes

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
