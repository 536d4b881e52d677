"""Unit tests for the chained hash table, built once and probed in bulk."""

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


def build_table(keys, rids=None, n_buckets=16, allocator_kind="block", buckets=None) -> HashTable:
    keys = np.asarray(keys, dtype=np.int64)
    rids = np.arange(len(keys), dtype=np.int64) if rids is None else np.asarray(rids)
    table = HashTable(n_buckets=n_buckets, allocator=make_allocator(allocator_kind))
    buckets = bucket_of(keys, n_buckets) if buckets is None else np.asarray(buckets)
    table.bulk_insert(keys, rids, buckets)
    return table


class TestDefaultBucketCount:
    def test_power_of_two(self):
        for n in (1, 5, 100, 4096, 5000):
            count = default_bucket_count(n)
            assert count & (count - 1) == 0
            assert count >= min(n, 16)


def probe_one(table: HashTable, key: int, bucket: int) -> tuple[list[int], float]:
    """(matching build rids in order, key nodes visited) of one probe tuple."""
    result, work = table.bulk_probe(np.array([key]), np.array([0]), np.array([bucket]))
    return result.build_rids.tolist(), float(work.key_nodes_visited[0])


class TestPerTupleInsertProbe:
    """What Algorithm 1 reports for single tuples, through the bulk paths."""

    def test_insert_then_probe_finds_rid(self):
        table = HashTable(n_buckets=8, allocator=make_allocator("block"))
        work = table.bulk_insert(np.array([5]), np.array([42]), np.array([3]))
        assert work.new_key_created.tolist() == [1.0]
        assert work.key_nodes_visited.tolist() == [1.0]
        rids, _ = probe_one(table, key=5, bucket=3)
        assert rids == [42]

    def test_duplicate_key_extends_rid_list(self):
        table = HashTable(n_buckets=8, allocator=make_allocator("block"))
        work = table.bulk_insert(np.array([5, 5]), np.array([1, 2]), np.array([3, 3]))
        assert work.new_key_created.tolist() == [1.0, 0.0]
        rids, _ = probe_one(table, 5, 3)
        assert rids == [1, 2]

    def test_colliding_keys_share_bucket_chain(self):
        table = build_table([9, 1, 5], rids=[12, 10, 11], n_buckets=4, buckets=[2, 2, 2])
        assert table.bucket_key_count[2] == 3
        # The key list is in key order: 1, 5, 9.
        rids, visited = probe_one(table, 9, 2)
        assert rids == [12]
        assert visited == 3

    def test_probe_missing_key_returns_empty(self):
        table = build_table([1], rids=[10], n_buckets=4, buckets=[2])
        rids, visited = probe_one(table, 7, 2)
        assert rids == []
        assert visited == 1

    def test_out_of_range_bucket_rejected(self):
        for bucket in (-1, 4, 9):
            table = HashTable(n_buckets=4, allocator=make_allocator("block"))
            with pytest.raises(HashTableError):
                table.bulk_insert(np.array([1]), np.array([1]), np.array([bucket]))

    def test_validate_after_inserts(self):
        keys = np.arange(50)
        table = build_table(keys, n_buckets=4, buckets=keys % 4)
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

    def test_second_bulk_insert_is_rejected(self):
        # Every join builds a table from one batch, so a table is built once.
        keys = np.arange(100)
        buckets = bucket_of(keys, 16)
        table = HashTable(n_buckets=16, allocator=make_allocator("block"))
        table.bulk_insert(keys[:50], keys[:50], buckets[:50])
        with pytest.raises(HashTableError):
            table.bulk_insert(keys[50:], keys[50:], buckets[50:])
        table.validate()
        assert table.n_rid_nodes == 50

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

    def test_key_with_two_buckets_is_rejected(self):
        # b1 gives each key one bucket.  Built as rid 10 in bucket 1 and rid
        # 11 in bucket 3, key 5 would answer a probe of bucket 3 with rid 10.
        table = HashTable(n_buckets=4, allocator=make_allocator("block"))
        with pytest.raises(HashTableError, match="two bucket numbers"):
            table.bulk_insert(np.array([5, 5]), np.array([10, 11]), np.array([1, 3]))
        # The rejected batch left nothing behind: the table still builds.
        assert table.allocator.stats.allocated_bytes == 0
        table.bulk_insert(np.array([5, 5]), np.array([10, 11]), np.array([3, 3]))
        assert probe_one(table, 5, 3) == ([10, 11], 1.0)

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
        table = build_table([1, 3, 8], rids=[10, 11, 12], n_buckets=4, buckets=[2, 2, 2])
        result, work = table.bulk_probe(np.array([7, 7]), np.array([0, 1]), np.array([0, 2]))
        assert result.match_count == 0
        assert work.key_nodes_visited.tolist() == [0.0, 3.0]

    def test_key_of_another_bucket_is_a_miss(self):
        # Algorithm 1 walks only the probe's own bucket: key 5 lives in
        # bucket 3, so a probe of the empty bucket 0 visits no node.
        table = build_table([1, 5], rids=[10, 11], n_buckets=4, buckets=[3, 3])
        assert probe_one(table, 5, 0) == ([], 0.0)
        # A miss in an occupied bucket walks its whole chain.
        table = build_table([1, 5, 2], rids=[10, 11, 12], n_buckets=4, buckets=[3, 3, 1])
        assert probe_one(table, 5, 1) == ([], 1.0)
        assert probe_one(table, 5, 3) == ([11], 2.0)

    @pytest.mark.parametrize("bucket", [-1, 4])
    def test_out_of_range_probe_bucket_rejected(self, bucket):
        # Unchecked, -1 would read the last bucket's header and 4 would
        # raise a bare IndexError.
        table = build_table([1], rids=[10], n_buckets=4, buckets=[3])
        with pytest.raises(HashTableError):
            table.bulk_probe(np.array([1, 1]), np.array([0, 1]), np.array([3, bucket]))

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
