"""Property-based tests (hypothesis) on the core data structures and models."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel import StepCost, estimate_series, pipeline_delays
from repro.data import Relation, expected_match_count
from repro.experiments.fig19_external import small_buffer_machine
from repro.hashjoin import (
    CoarseGrainedPHJ,
    ExternalHashJoin,
    HashTable,
    PartitionedHashJoin,
    SimpleHashJoin,
    bucket_of,
    murmur2,
    murmur2_scalar,
    reference_join,
    vectorized_reference_join,
)
from repro.hashjoin.steps import PerTupleWork
from repro.opencl import (
    Arena,
    BlockAllocator,
    contention_ratio,
    grouped_divergence,
    make_allocator,
    wavefront_divergence,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

keys_strategy = st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=0, max_size=300)
small_keys_strategy = st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=300)


def relation_from(keys: list[int], name: str) -> Relation:
    return Relation(
        keys=np.asarray(keys, dtype=np.int64),
        rids=np.arange(len(keys), dtype=np.int64),
        name=name,
    )


class TestMurmurProperties:
    @SETTINGS
    @given(keys_strategy)
    def test_vectorised_matches_scalar(self, keys):
        array = np.asarray(keys, dtype=np.int64)
        hashed = murmur2(array)
        for key, value in zip(keys, hashed.tolist()):
            assert value == murmur2_scalar(key)

    @SETTINGS
    @given(keys_strategy, st.integers(min_value=1, max_value=1024))
    def test_buckets_in_range(self, keys, n_buckets):
        array = np.asarray(keys, dtype=np.int64)
        buckets = bucket_of(array, n_buckets)
        if len(keys):
            assert buckets.min() >= 0
            assert buckets.max() < n_buckets


class TestJoinProperties:
    @SETTINGS
    @given(small_keys_strategy, small_keys_strategy)
    def test_hash_table_join_matches_reference(self, build_keys, probe_keys):
        build = relation_from(build_keys, "R")
        probe = relation_from(probe_keys, "S")
        n_buckets = 16
        table = HashTable(n_buckets=n_buckets, allocator=make_allocator("block"))
        if len(build):
            table.bulk_insert(build.keys, build.rids, bucket_of(build.keys, n_buckets))
            table.validate()
        result, _ = table.bulk_probe(
            probe.keys, probe.rids, bucket_of(probe.keys, n_buckets)
        ) if len(probe) else (reference_join(build, probe), None)
        expected = reference_join(build, probe)
        assert result.match_count == expected.match_count
        assert result.equals(expected)

    @SETTINGS
    @given(small_keys_strategy, small_keys_strategy)
    def test_vectorized_reference_matches_dict_reference(self, build_keys, probe_keys):
        build = relation_from(build_keys, "R")
        probe = relation_from(probe_keys, "S")
        assert vectorized_reference_join(build, probe).equals(reference_join(build, probe))

    @SETTINGS
    @given(small_keys_strategy, small_keys_strategy)
    def test_expected_match_count_agrees_with_reference(self, build_keys, probe_keys):
        build = relation_from(build_keys, "R")
        probe = relation_from(probe_keys, "S")
        assert expected_match_count(build, probe) == reference_join(build, probe).match_count


@st.composite
def degenerate_key_pairs(draw) -> tuple[list[int], list[int]]:
    """(build keys, probe keys) in one of the shapes that break joins:
    all keys equal, one heavy hitter over a uniform tail, one side empty,
    both sides empty, or a small uniform set."""
    shape = draw(st.sampled_from(
        ("all-equal", "heavy-hitter", "empty-build", "empty-probe", "empty", "uniform")
    ))
    sizes = st.integers(1, 150)
    if shape == "all-equal":
        key = draw(st.integers(0, 2**31 - 1))
        return [key] * draw(sizes), [key] * draw(sizes)
    if shape == "heavy-hitter":
        heavy, space = draw(st.integers(0, 50)), draw(st.integers(1, 200))
        tail = st.lists(st.integers(0, space), max_size=120)
        build = [heavy] * draw(st.integers(1, 60)) + draw(tail)
        probe = [heavy] * draw(st.integers(1, 60)) + draw(tail)
        return draw(st.permutations(build)), draw(st.permutations(probe))
    uniform = st.lists(st.integers(0, draw(st.integers(1, 100))), min_size=1, max_size=150)
    if shape == "empty-build":
        return [], draw(uniform)
    if shape == "empty-probe":
        return draw(uniform), []
    if shape == "empty":
        return [], []
    return draw(uniform), draw(uniform)


def _simple_pair_joiner(build: Relation, probe: Relation):
    return (len(build) + len(probe)) * 1e-9, SimpleHashJoin().run(build, probe).result


#: Several partition pairs even for the small drawn relations.
ORACLE_PARTITION_TUPLES = 16

#: Every join operator, serial and on two pool workers where it has a pool.
JOIN_OPERATORS = {
    "SHJ": lambda: SimpleHashJoin(),
    "PHJ": lambda: PartitionedHashJoin(target_partition_tuples=ORACLE_PARTITION_TUPLES),
    "PHJ-parallel": lambda: PartitionedHashJoin(
        target_partition_tuples=ORACLE_PARTITION_TUPLES, parallel=True, n_workers=2
    ),
    "coarse": lambda: CoarseGrainedPHJ(target_partition_tuples=ORACLE_PARTITION_TUPLES),
    "coarse-parallel": lambda: CoarseGrainedPHJ(
        target_partition_tuples=ORACLE_PARTITION_TUPLES, parallel=True, n_workers=2
    ),
    # A 2 KB buffer makes the larger drawn pairs spill, recurse and swap roles.
    "external": lambda: ExternalHashJoin(
        _simple_pair_joiner, machine=small_buffer_machine(2 * 1024), chunk_tuples=64
    ),
}


class TestJoinOracle:
    """Every operator against the independent oracles on degenerate keys."""

    # Six operators per example: about 6 s on 2 vCPUs.
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(degenerate_key_pairs())
    def test_every_operator_matches_the_oracle(self, key_pair):
        build = relation_from(key_pair[0], "R")
        probe = relation_from(key_pair[1], "S")
        expected = vectorized_reference_join(build, probe)
        expected_count = expected_match_count(build, probe)
        for name, make_operator in JOIN_OPERATORS.items():
            result = make_operator().run(build, probe).result
            assert result.equals(expected), name
            assert result.match_count == expected_count, name


class TestDivergenceProperties:
    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=0, max_size=500),
           st.sampled_from([16, 32, 64]))
    def test_divergence_bounded(self, workloads, width):
        report = wavefront_divergence(np.asarray(workloads), width=width)
        assert 0.0 <= report.divergence <= 1.0
        assert report.lockstep_work >= report.useful_work - 1e-9

    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=500))
    def test_grouping_never_increases_divergence(self, workloads):
        array = np.asarray(workloads)
        ungrouped = wavefront_divergence(array).divergence
        grouped, order = grouped_divergence(array, n_groups=16)
        assert grouped.divergence <= ungrouped + 1e-9
        assert sorted(order.tolist()) == list(range(len(workloads)))


class TestContentionProperties:
    @SETTINGS
    @given(st.integers(min_value=1, max_value=100_000),
           st.integers(min_value=1, max_value=100_000),
           st.floats(min_value=0.0, max_value=1.0))
    def test_contention_ratio_bounded(self, threads, targets, probability):
        ratio = contention_ratio(threads, targets, probability)
        assert 0.0 <= ratio < 1.0

    @SETTINGS
    @given(st.integers(min_value=2, max_value=10_000))
    def test_more_targets_never_increase_contention(self, threads):
        few = contention_ratio(threads, 1)
        many = contention_ratio(threads, 1_000)
        assert many <= few


class TestAllocatorProperties:
    @SETTINGS
    @given(st.lists(st.integers(min_value=1, max_value=128), min_size=1, max_size=200),
           st.sampled_from([64, 256, 2048]))
    def test_block_allocations_never_overlap(self, sizes, block_bytes):
        allocator = BlockAllocator(Arena(1 << 22), block_bytes=block_bytes)
        intervals = []
        for i, size in enumerate(sizes):
            offset = allocator.allocate(size, group_id=i % 8)
            intervals.append((offset, offset + size))
        intervals.sort()
        for (a_start, a_end), (b_start, b_end) in zip(intervals, intervals[1:]):
            assert a_end <= b_start
        assert allocator.stats.requests == len(sizes)

    @SETTINGS
    @given(st.integers(min_value=1, max_value=500), st.sampled_from([8, 16, 64]))
    def test_bulk_allocate_accounting(self, n_requests, request_bytes):
        allocator = BlockAllocator(Arena(1 << 22), block_bytes=2048)
        allocator.bulk_allocate(n_requests, request_bytes, n_groups=4)
        assert allocator.stats.requests == n_requests
        assert allocator.stats.allocated_bytes == n_requests * request_bytes
        assert allocator.stats.local_atomics == n_requests
        assert allocator.stats.global_atomics <= n_requests


ratio_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
)


def steps_for(n: int) -> list[StepCost]:
    return [
        StepCost(f"s{i}", 1_000, cpu_unit_s=(i + 1) * 1e-9, gpu_unit_s=(6 - i) * 1e-9)
        for i in range(n)
    ]


class TestCostModelProperties:
    @SETTINGS
    @given(ratio_lists)
    def test_estimate_total_is_max_of_devices(self, ratios):
        steps = steps_for(len(ratios))
        estimate = estimate_series(steps, ratios)
        assert estimate.total_s == pytest.approx(
            max(estimate.cpu_total_s, estimate.gpu_total_s)
        )
        assert estimate.cpu_total_s >= 0.0 and estimate.gpu_total_s >= 0.0

    @SETTINGS
    @given(ratio_lists)
    def test_delays_nonnegative(self, ratios):
        steps = steps_for(len(ratios))
        cpu = [s.device_time("cpu", r) for s, r in zip(steps, ratios)]
        gpu = [s.device_time("gpu", r) for s, r in zip(steps, ratios)]
        cpu_delay, gpu_delay = pipeline_delays(cpu, gpu, ratios)
        assert all(d >= 0.0 for d in cpu_delay + gpu_delay)

    @SETTINGS
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_uniform_ratio_estimate_monotone_between_devices(self, ratio):
        steps = steps_for(4)
        estimate = estimate_series(steps, [ratio] * 4)
        cpu_only = estimate_series(steps, [1.0] * 4).total_s
        gpu_only = estimate_series(steps, [0.0] * 4).total_s
        assert estimate.total_s <= max(cpu_only, gpu_only) + 1e-12


class TestPerTupleWorkProperties:
    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200),
           st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=200))
    def test_range_stats_additive(self, per_tuple, a, b):
        n = len(per_tuple)
        work = PerTupleWork(n_tuples=n, instructions=np.asarray(per_tuple),
                            random_accesses=1.0)
        lo, hi = sorted((min(a, n), min(b, n)))
        mid = (lo + hi) // 2
        left = work.stats_for_range(lo, mid)
        right = work.stats_for_range(mid, hi)
        whole = work.stats_for_range(lo, hi)
        assert left.instructions + right.instructions == pytest.approx(whole.instructions)
        assert left.tuples + right.tuples == whole.tuples
        assert 0.0 <= whole.divergence <= 1.0

    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=300),
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=24),
        st.lists(
            st.tuples(st.integers(min_value=-20, max_value=320),
                      st.integers(min_value=-20, max_value=320)),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    )
    def test_memoised_stats_equal_a_fresh_copy(self, n, pattern, ranges, conflicts):
        """Warm memo answers equal a fresh copy's, clamped and empty ranges
        included, for every key variant of a range and on every repeat.
        Each range is also split in two, as the executor splits a step, so
        spans sharing a start or a stop meet in one memo.  The per-tuple
        work repeats a short pattern, so spans wider than a wavefront are
        common and grouping changes their divergence."""
        per_tuple = np.resize(np.asarray(pattern, dtype=np.float64), n)
        work = PerTupleWork(
            n_tuples=n,
            instructions=per_tuple,
            random_accesses=1.0,
            sequential_bytes=per_tuple[::-1].copy(),
            global_atomics=0.5,
        )
        spans = [
            span
            for start, stop in ranges
            for mid in [(start + stop) // 2]
            for span in ((start, stop), (start, mid), (mid, stop))
        ]
        keys = itertools.product(spans + spans, conflicts, (1, 64), (False, True))
        for (start, stop), conflict, width, grouped in keys:
            warm = work.stats_for_range(start, stop, conflict, width, grouped)
            fresh = dataclasses.replace(work).stats_for_range(
                start, stop, conflict, width, grouped
            )
            assert warm.as_dict() == fresh.as_dict()
