"""Property-based tests (hypothesis) on the core data structures and models."""

from __future__ import annotations

import collections
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
    default_bucket_count,
    murmur2,
    murmur2_scalar,
    reference_join,
    vectorized_reference_join,
)
from repro.hashjoin.hashtable import (
    BUCKET_HEADER_BYTES,
    KEY_NODE_BYTES,
    RID_NODE_BYTES,
    radix_digits,
)
from repro.hashjoin.steps import PerTupleWork
from repro.opencl import (
    Arena,
    BlockAllocator,
    contention_ratio,
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
    all keys equal, one heavy hitter over a uniform tail, wide keys, one
    side empty, both sides empty, or a small uniform set."""
    shape = draw(st.sampled_from(
        ("all-equal", "heavy-hitter", "wide", "empty-build", "empty-probe", "empty", "uniform")
    ))
    sizes = st.integers(1, 150)
    if shape == "all-equal":
        key = draw(st.integers(0, 2**31 - 1))
        return [key] * draw(sizes), [key] * draw(sizes)
    if shape == "wide":
        # Negative keys and keys >= 2**32 from a few low and high 32-bit
        # halves: keys that share their low half share a murmur hash, so
        # distinct keys land in one bucket.
        low_pool = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
        high_pool = draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=4))
        lows, highs = st.sampled_from(low_pool), st.sampled_from(high_pool)
        wide = st.lists(st.builds(lambda low, high: (high << 32) | low, lows, highs),
                        min_size=1, max_size=120)
        return draw(wide), draw(wide)
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

#: Every join operator.
JOIN_OPERATORS = {
    "SHJ": lambda: SimpleHashJoin(),
    "PHJ": lambda: PartitionedHashJoin(target_partition_tuples=ORACLE_PARTITION_TUPLES),
    "coarse": lambda: CoarseGrainedPHJ(target_partition_tuples=ORACLE_PARTITION_TUPLES),
    # A 2 KB buffer makes the larger drawn pairs spill, recurse and swap roles.
    "external": lambda: ExternalHashJoin(
        _simple_pair_joiner, machine=small_buffer_machine(2 * 1024), chunk_tuples=64
    ),
}


class TestJoinOracle:
    """Every operator against the independent oracles on degenerate keys."""

    # Four operators per example: about 2 s on 2 vCPUs.
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


def algorithm1_table(
    build: Relation, build_buckets, probe: Relation, probe_buckets, n_buckets: int
) -> dict:
    """Algorithm 1 over dicts: what a chained table reports per tuple.

    Each bucket's key list holds its distinct build keys in ascending order.
    A build tuple visits the list up to its key and creates the key's node
    when its (bucket, key) comes up first.  A probe hit visits as far and
    returns the key's rids in build order; a miss visits the whole list.
    """
    rid_lists: dict[tuple[int, int], list[int]] = {}
    for key, rid, bucket in zip(build.keys.tolist(), build.rids.tolist(), build_buckets.tolist()):
        rid_lists.setdefault((bucket, key), []).append(rid)
    key_lists: dict[int, list[int]] = {}
    for bucket, key in sorted(rid_lists):
        key_lists.setdefault(bucket, []).append(key)

    build_visits, created, seen = [], [], set()
    for key, bucket in zip(build.keys.tolist(), build_buckets.tolist()):
        build_visits.append(key_lists[bucket].index(key) + 1)
        created.append(int((bucket, key) not in seen))
        seen.add((bucket, key))

    probe_visits, matches, build_out, probe_out = [], [], [], []
    for key, rid, bucket in zip(probe.keys.tolist(), probe.rids.tolist(), probe_buckets.tolist()):
        key_list = key_lists.get(bucket, [])
        if key in key_list:
            probe_visits.append(key_list.index(key) + 1)
            hits = rid_lists[(bucket, key)]
        else:
            probe_visits.append(len(key_list))
            hits = []
        matches.append(len(hits))
        build_out += hits
        probe_out += [rid] * len(hits)

    tuple_counts = collections.Counter(build_buckets.tolist())
    return {
        "build_visits": build_visits,
        "created": created,
        "probe_visits": probe_visits,
        "matches": matches,
        "build_out": build_out,
        "probe_out": probe_out,
        "bucket_tuple_count": [tuple_counts[b] for b in range(n_buckets)],
        "bucket_key_count": [len(key_lists.get(b, [])) for b in range(n_buckets)],
        "allocated_bytes": len(rid_lists) * KEY_NODE_BYTES + len(build) * RID_NODE_BYTES,
    }


class TestTableOracle:
    """The hash table's per-tuple work and output against Algorithm 1."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        degenerate_key_pairs(),
        st.sampled_from((1, 4, 16, None)),
        st.none() | st.integers(0, 2**32 - 1),
    )
    def test_table_matches_algorithm_1(self, key_pair, n_buckets, moved_probe_seed):
        build_keys, probe_keys = key_pair
        # Reversed build rids, so build order is not rid order.
        build = Relation(
            keys=np.asarray(build_keys, dtype=np.int64),
            rids=np.arange(len(build_keys), dtype=np.int64)[::-1].copy(),
            name="R",
        )
        probe = relation_from(probe_keys, "S")
        n_buckets = n_buckets or default_bucket_count(len(build))
        build_buckets = bucket_of(build.keys, n_buckets)
        probe_buckets = bucket_of(probe.keys, n_buckets)
        if moved_probe_seed is not None:
            # Move about half the probes to random buckets: a moved probe's
            # key may live in another bucket, where Algorithm 1 never looks.
            rng = np.random.default_rng(moved_probe_seed)
            moved = rng.random(len(probe)) < 0.5
            probe_buckets[moved] = rng.integers(0, n_buckets, int(moved.sum()))
        expected = algorithm1_table(build, build_buckets, probe, probe_buckets, n_buckets)

        table = HashTable(n_buckets=n_buckets, allocator=make_allocator("block"))
        build_work = table.bulk_insert(build.keys, build.rids, build_buckets)
        result, probe_work = table.bulk_probe(probe.keys, probe.rids, probe_buckets)
        table.validate()

        assert build_work.key_nodes_visited.tolist() == expected["build_visits"]
        assert build_work.new_key_created.tolist() == expected["created"]
        assert probe_work.key_nodes_visited.tolist() == expected["probe_visits"]
        assert probe_work.matches.tolist() == expected["matches"]
        assert result.build_rids.tolist() == expected["build_out"]
        assert result.probe_rids.tolist() == expected["probe_out"]
        assert table.bucket_tuple_count.tolist() == expected["bucket_tuple_count"]
        assert table.latches.acquisitions.tolist() == expected["bucket_tuple_count"]
        assert table.bucket_key_count.tolist() == expected["bucket_key_count"]
        assert table.allocator.stats.allocated_bytes == expected["allocated_bytes"]
        assert table.nbytes == n_buckets * BUCKET_HEADER_BYTES + expected["allocated_bytes"]


#: int64 values that break an order-preserving digit split: the extremes,
#: both sides of zero and of the 32-bit boundaries.
INT64_EDGES = (-(2**63), 2**63 - 1, -(2**32), -1, 0, 1, 2**32 - 1, 2**32, 2**63 - 2**32)

int64_values = st.one_of(
    st.sampled_from(INT64_EDGES),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-3, 3),
)


@st.composite
def int64_sort_columns(draw) -> list[np.ndarray]:
    """One to three equal-length int64 columns, each drawn freely or constant,
    of length 0, 1 or up to 80."""
    n = draw(st.sampled_from((0, 1)) | st.integers(2, 80))
    column = st.lists(int64_values, min_size=n, max_size=n) | int64_values.map(
        lambda value: [value] * n
    )
    return [np.asarray(draw(column), dtype=np.int64) for _ in range(draw(st.integers(1, 3)))]


class TestExactOrder:
    """The kernels' sorts and searches pin rid-list and result order."""

    @settings(max_examples=300, deadline=None)
    @given(int64_sort_columns())
    def test_digit_lexsort_is_the_int64_sort(self, columns):
        assert np.array_equal(np.lexsort(radix_digits(*columns)), np.lexsort(columns))
        primary = columns[-1]
        assert np.array_equal(
            np.lexsort(radix_digits(primary)), np.argsort(primary, kind="stable")
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(int64_values, min_size=1, max_size=60),
        st.lists(int64_values, max_size=60),
        st.integers(1, 8),
    )
    def test_sorted_query_lookup_is_searchsorted(self, table_keys, extra_queries, n_buckets):
        keys = np.asarray(table_keys, dtype=np.int64)
        table = HashTable(n_buckets=n_buckets)
        table.bulk_insert(keys, np.arange(len(keys)), bucket_of(keys, n_buckets))
        queries = np.asarray(table_keys + extra_queries, dtype=np.int64)[::-1]
        node_keys = table.key_node_key[: table.n_key_nodes]
        key_order = np.argsort(node_keys, kind="stable")
        sorted_keys = node_keys[key_order]
        positions = np.searchsorted(sorted_keys, queries)
        clipped = np.minimum(positions, len(sorted_keys) - 1)
        found = (positions < len(sorted_keys)) & (sorted_keys[clipped] == queries)
        expected = np.where(found, key_order[clipped], -1)
        assert np.array_equal(table._lookup_nodes(queries), expected)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(degenerate_key_pairs())
    def test_simple_join_emits_the_reference_order(self, key_pair):
        # Each key's rid list keeps build order and the probe emits in probe
        # order, so SHJ's output equals the oracle array for array.
        build = relation_from(key_pair[0], "R")
        probe = relation_from(key_pair[1], "S")
        result = SimpleHashJoin().run(build, probe).result
        expected = vectorized_reference_join(build, probe)
        assert np.array_equal(result.build_rids, expected.build_rids)
        assert np.array_equal(result.probe_rids, expected.probe_rids)


class TestDivergenceProperties:
    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=0, max_size=500),
           st.sampled_from([16, 32, 64]))
    def test_divergence_bounded(self, workloads, width):
        report = wavefront_divergence(np.asarray(workloads), width=width)
        assert 0.0 <= report.divergence <= 1.0
        assert report.lockstep_work >= report.useful_work - 1e-9


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
        allocator.bulk_allocate(n_requests, request_bytes)
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
        """Stats read through a warm proxy cache equal a fresh copy's, whose
        proxy cache starts empty, clamped and empty ranges included, for
        every argument variant of a range and on every repeat.  Each range
        is also split in two, as the executor splits a step, so spans sharing
        a start or a stop read one cached proxy.  The per-tuple work repeats
        a short pattern, so spans wider than a wavefront are common and
        grouping changes their divergence."""
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
