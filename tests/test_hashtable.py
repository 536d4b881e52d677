"""Unit tests for the chained hash table (per-tuple and bulk paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashjoin import (
    HashTable,
    HashTableError,
    bucket_of,
    default_bucket_count,
)
from repro.opencl import make_allocator


def build_table(keys, rids=None, n_buckets=16, allocator_kind="block") -> HashTable:
    keys = np.asarray(keys, dtype=np.int64)
    rids = np.arange(len(keys), dtype=np.int64) if rids is None else np.asarray(rids)
    table = HashTable(n_buckets=n_buckets, allocator=make_allocator(allocator_kind))
    buckets = bucket_of(keys, n_buckets)
    table.bulk_insert(keys, rids, buckets)
    return table


class TestDefaultBucketCount:
    def test_power_of_two(self):
        for n in (1, 5, 100, 4096, 5000):
            count = default_bucket_count(n)
            assert count & (count - 1) == 0
            assert count >= min(n, 16)


class TestPerTupleInsertProbe:
    def test_insert_then_probe_finds_rid(self):
        table = HashTable(n_buckets=8, allocator=make_allocator("block"))
        visited, created = table.insert(key=5, rid=42, bucket=3)
        assert created
        assert visited >= 1
        rids, _ = table.probe_one(key=5, bucket=3)
        assert rids == [42]

    def test_duplicate_key_extends_rid_list(self):
        table = HashTable(n_buckets=8, allocator=make_allocator("block"))
        table.insert(5, 1, 3)
        _, created = table.insert(5, 2, 3)
        assert not created
        rids, _ = table.probe_one(5, 3)
        assert sorted(rids) == [1, 2]

    def test_colliding_keys_share_bucket_chain(self):
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        table.insert(1, 10, 2)
        table.insert(5, 11, 2)
        table.insert(9, 12, 2)
        assert table.chain_length(2) == 3
        rids, visited = table.probe_one(9, 2)
        assert rids == [12]
        assert visited == 3

    def test_probe_missing_key_returns_empty(self):
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        table.insert(1, 10, 2)
        rids, visited = table.probe_one(7, 2)
        assert rids == []
        assert visited == 1

    def test_out_of_range_bucket_rejected(self):
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        with pytest.raises(HashTableError):
            table.insert(1, 1, 9)
        with pytest.raises(HashTableError):
            table.probe_one(1, -1)

    def test_validate_after_inserts(self):
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        for i in range(50):
            table.insert(i, i, i % 4)
        table.validate()
        assert table.n_key_nodes == 50
        assert table.n_rid_nodes == 50


class TestBulkInsert:
    def test_structure_counts(self):
        keys = np.array([1, 2, 3, 1, 2, 1])
        table = build_table(keys)
        assert table.n_rid_nodes == 6
        assert table.n_key_nodes == 3
        table.validate()

    def test_matches_per_tuple_reference(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 200, size=500)
        rids = np.arange(500)
        buckets = bucket_of(keys, 32)

        bulk = HashTable(n_buckets=32, allocator=make_allocator("block"))
        bulk.bulk_insert(keys, rids, buckets)

        reference = HashTable(n_buckets=32, allocator=make_allocator("block"))
        for k, r, b in zip(keys.tolist(), rids.tolist(), buckets.tolist()):
            reference.insert(k, r, b)

        assert bulk.n_key_nodes == reference.n_key_nodes
        assert bulk.n_rid_nodes == reference.n_rid_nodes
        assert np.array_equal(bulk.bucket_tuple_count, reference.bucket_tuple_count)
        assert np.array_equal(bulk.bucket_key_count, reference.bucket_key_count)
        bulk.validate()
        reference.validate()

    def test_incremental_bulk_inserts(self):
        keys = np.arange(100)
        buckets = bucket_of(keys, 16)
        table = HashTable(n_buckets=16, allocator=make_allocator("block"))
        table.bulk_insert(keys[:50], keys[:50], buckets[:50])
        table.bulk_insert(keys[50:], keys[50:], buckets[50:])
        table.validate()
        assert table.n_rid_nodes == 100
        assert table.n_key_nodes == 100

    def test_work_arrays_have_input_order(self):
        keys = np.array([7, 7, 9])
        rids = np.array([0, 1, 2])
        buckets = np.array([1, 1, 1])
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        work = table.bulk_insert(keys, rids, buckets)
        assert work.n_tuples == 3
        assert work.key_nodes_visited.shape == (3,)
        # Exactly two distinct keys -> exactly two "new key" events.
        assert work.new_key_created.sum() == 2

    def test_empty_insert(self):
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        work = table.bulk_insert(np.array([]), np.array([]), np.array([]))
        assert work.n_tuples == 0

    def test_mismatched_lengths_rejected(self):
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        with pytest.raises(HashTableError):
            table.bulk_insert(np.array([1, 2]), np.array([1]), np.array([0, 1]))


class TestBulkProbe:
    def test_probe_finds_all_matches(self):
        keys = np.array([1, 2, 3, 2])
        table = build_table(keys)
        probe_keys = np.array([2, 3, 9])
        probe_rids = np.array([100, 101, 102])
        buckets = bucket_of(probe_keys, table.n_buckets)
        result, work = table.bulk_probe(probe_keys, probe_rids, buckets)
        assert result.match_count == 3  # key 2 matches twice, key 3 once
        assert work.matches.tolist() == [2.0, 1.0, 0.0]

    def test_probe_empty_table(self):
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        result, work = table.bulk_probe(np.array([1]), np.array([0]), np.array([0]))
        assert result.match_count == 0
        assert work.matches.tolist() == [0.0]

    def test_miss_visits_the_whole_chain_on_both_paths(self):
        # A miss walks its bucket's chain to the end: 0 nodes in an empty
        # bucket, the chain length in an occupied one.
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        table.insert(1, 10, 2)
        assert table.probe_one(7, 0) == ([], 0)
        assert table.probe_one(7, 2) == ([], 1)
        _, work = table.bulk_probe(np.array([7, 7]), np.array([0, 1]), np.array([0, 2]))
        assert work.key_nodes_visited.tolist() == [0.0, 1.0]

    def test_probe_work_visited_at_least_for_hits(self):
        keys = np.arange(64)
        table = build_table(keys, n_buckets=8)
        buckets = bucket_of(keys, 8)
        _, work = table.bulk_probe(keys, keys, buckets)
        assert np.all(work.key_nodes_visited >= 1.0)


class TestMergeAndWorkingSet:
    def test_nbytes_grows_with_content(self):
        empty = HashTable(n_buckets=16, allocator=make_allocator("block"))
        filled = build_table(np.arange(100), n_buckets=16)
        assert filled.nbytes > empty.nbytes

    def test_working_set_shared_flag(self):
        table = HashTable(n_buckets=16, allocator=make_allocator("block"),
                          shared_between_devices=False)
        assert table.working_set().shared_between_devices is False

    def test_latch_conflict_higher_on_gpu(self):
        keys = np.zeros(200, dtype=np.int64)  # all tuples hit one bucket
        table = build_table(keys, n_buckets=16)
        assert table.latch_conflict_ratio("gpu") >= table.latch_conflict_ratio("cpu")
