"""The chained hash table used by all hash-join variants (Section 3.1).

The structure follows the implementation adopted from previous studies
[4, 17, 22]:

* an array of **bucket headers**, each holding the number of tuples in the
  bucket and a pointer to its key list;
* a **key list** of nodes, one per distinct key hashing into the bucket, each
  pointing at a **rid list** of all record ids carrying that key.

All nodes live inside a pre-allocated arena served by one of the software
memory allocators of :mod:`repro.opencl.allocator`, so the allocator's atomic
behaviour (basic vs. block) directly shows up in the build cost.

The table offers both a per-tuple reference path (:meth:`HashTable.insert`
and :meth:`HashTable.probe_one`) used by unit tests and small runs, and bulk
vectorised paths (:meth:`HashTable.bulk_insert`, :meth:`HashTable.bulk_probe`)
used at experiment scale.  Both paths maintain the identical node-array
structure and report the identical per-tuple work quantities.
"""

from __future__ import annotations

# repro: kernel
from dataclasses import dataclass, field

import numpy as np

from ..hardware.cache import WorkingSet
from ..opencl.allocator import MemoryAllocator, make_allocator
from ..opencl.atomics import LatchTable, concurrent_hardware_threads
from .result import JoinResult

#: Bytes of one bucket header (tuple count + key-list pointer).
BUCKET_HEADER_BYTES = 8
#: Bytes of one key-list node (key, next pointer, rid head, rid count).
KEY_NODE_BYTES = 16
#: Bytes of one rid-list node (rid, next pointer).
RID_NODE_BYTES = 8

# Instruction-count constants per step, calibrated to the profile granularity
# the paper obtains from AMD CodeXL (Section 4.2).  Hash computation costs are
# in murmur.MURMUR_INSTRUCTIONS_PER_KEY.
HEADER_VISIT_INSTRUCTIONS = 15.0
KEY_SEARCH_BASE_INSTRUCTIONS = 12.0
KEY_SEARCH_PER_NODE_INSTRUCTIONS = 22.0
RID_INSERT_INSTRUCTIONS = 20.0
MATCH_VISIT_BASE_INSTRUCTIONS = 10.0
MATCH_VISIT_PER_MATCH_INSTRUCTIONS = 18.0


class HashTableError(RuntimeError):
    """Raised on inconsistent hash-table usage."""


@dataclass
class BuildWork:
    """Per-tuple work of the build steps ``b2``–``b4`` (original tuple order)."""

    n_tuples: int
    #: b3: number of key-list nodes visited by each tuple.
    key_nodes_visited: np.ndarray
    #: b3: 1.0 where the tuple created a new key node, else 0.0.
    new_key_created: np.ndarray
    #: Contention ratio of the bucket latches per device kind.
    latch_conflict: dict[str, float] = field(default_factory=dict)


@dataclass
class ProbeWork:
    """Per-tuple work of the probe steps ``p2``–``p4`` (original tuple order)."""

    n_tuples: int
    #: p3: number of key-list nodes visited by each probe tuple.
    key_nodes_visited: np.ndarray
    #: p4: number of matching build tuples for each probe tuple.
    matches: np.ndarray


def default_bucket_count(expected_keys: int) -> int:
    """Power-of-two bucket count giving about one distinct key per bucket."""
    n = max(int(expected_keys), 16)
    return 1 << int(np.ceil(np.log2(n)))


class HashTable:
    """Bucket headers -> key lists -> rid lists, backed by a software allocator."""

    def __init__(
        self,
        n_buckets: int,
        allocator: MemoryAllocator | None = None,
        shared_between_devices: bool = True,
        initial_capacity: int = 1024,
    ) -> None:
        if n_buckets <= 0:
            raise HashTableError("n_buckets must be positive")
        self.n_buckets = int(n_buckets)
        self.allocator = allocator or make_allocator("block")
        self.shared_between_devices = shared_between_devices

        # Bucket headers.
        self.bucket_tuple_count = np.zeros(self.n_buckets, dtype=np.int64)
        self.bucket_key_count = np.zeros(self.n_buckets, dtype=np.int64)
        self.bucket_head = np.full(self.n_buckets, -1, dtype=np.int64)
        self.bucket_tail = np.full(self.n_buckets, -1, dtype=np.int64)
        self.latches = LatchTable(self.n_buckets)

        # Key-list nodes.
        capacity = max(int(initial_capacity), 16)
        self.key_node_key = np.empty(capacity, dtype=np.int64)
        self.key_node_next = np.empty(capacity, dtype=np.int64)
        self.key_node_rid_head = np.empty(capacity, dtype=np.int64)
        self.key_node_rid_count = np.empty(capacity, dtype=np.int64)
        self.key_node_chain_pos = np.empty(capacity, dtype=np.int64)
        self.key_node_bucket = np.empty(capacity, dtype=np.int64)
        self.n_key_nodes = 0

        # Rid-list nodes.
        self.rid_node_rid = np.empty(capacity, dtype=np.int64)
        self.rid_node_next = np.empty(capacity, dtype=np.int64)
        self.rid_node_owner = np.empty(capacity, dtype=np.int64)
        self.n_rid_nodes = 0

        # Lazily built CSR view of the rid lists for vectorised probing.
        self._csr_dirty = True
        self._csr_offsets: np.ndarray | None = None
        self._csr_rids: np.ndarray | None = None

        # Lazily sorted key-node keys shared by lookups and probes.
        self._key_order_dirty = True
        self._key_order: np.ndarray | None = None
        self._sorted_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def _ensure_key_capacity(self, extra: int) -> None:
        needed = self.n_key_nodes + extra
        capacity = self.key_node_key.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        for name in (
            "key_node_key",
            "key_node_next",
            "key_node_rid_head",
            "key_node_rid_count",
            "key_node_chain_pos",
            "key_node_bucket",
        ):
            old = getattr(self, name)
            # Amortised doubling: this loop runs once per capacity level,
            # not per tuple, and the new buffer *is* the workspace.
            grown = np.empty(new_capacity, dtype=np.int64)  # repro: ignore[numpy-hygiene]
            grown[: self.n_key_nodes] = old[: self.n_key_nodes]
            setattr(self, name, grown)

    def _ensure_rid_capacity(self, extra: int) -> None:
        needed = self.n_rid_nodes + extra
        capacity = self.rid_node_rid.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        for name in ("rid_node_rid", "rid_node_next", "rid_node_owner"):
            old = getattr(self, name)
            # Amortised doubling, as in _ensure_key_capacity above.
            grown = np.empty(new_capacity, dtype=np.int64)  # repro: ignore[numpy-hygiene]
            grown[: self.n_rid_nodes] = old[: self.n_rid_nodes]
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return self.n_rid_nodes

    @property
    def nbytes(self) -> int:
        """Size of the logical structure (what occupies cache and buffer)."""
        return (
            self.n_buckets * BUCKET_HEADER_BYTES
            + self.n_key_nodes * KEY_NODE_BYTES
            + self.n_rid_nodes * RID_NODE_BYTES
        )

    def working_set(self) -> WorkingSet:
        return WorkingSet(
            bytes=float(self.nbytes),
            shared_between_devices=self.shared_between_devices,
        )

    def chain_length(self, bucket: int) -> int:
        """Number of key nodes in one bucket's key list."""
        return int(self.bucket_key_count[bucket])

    def latch_conflict_ratio(self, device_kind: str) -> float:
        """Bucket-latch contention observed so far on one device kind."""
        threads = concurrent_hardware_threads(device_kind)
        return self.latches.conflict_ratio(threads)

    # ------------------------------------------------------------------
    # Per-tuple reference path
    # ------------------------------------------------------------------
    def insert(self, key: int, rid: int, bucket: int) -> tuple[int, bool]:
        """Insert one tuple; returns (key nodes visited, created new key node).

        This is the literal Algorithm 1 build loop (steps b2-b4 for one tuple)
        and is used by tests and the reference executor.
        """
        if not 0 <= bucket < self.n_buckets:
            raise HashTableError(f"bucket {bucket} out of range")
        key = int(key)
        rid = int(rid)

        # b2: visit the bucket header.
        self.latches.acquire_release(bucket)
        self.bucket_tuple_count[bucket] += 1

        # b3: walk the key list looking for the key.
        visited = 0
        node = self.bucket_head[bucket]
        found = -1
        last = -1
        while node != -1:
            visited += 1
            if self.key_node_key[node] == key:
                found = node
                break
            last = node
            node = self.key_node_next[node]

        created = False
        if found == -1:
            created = True
            visited += 1 if self.bucket_key_count[bucket] > 0 else 1
            self._ensure_key_capacity(1)
            self.allocator.allocate(KEY_NODE_BYTES, group_id=bucket % 64)
            found = self.n_key_nodes
            self.key_node_key[found] = key
            self.key_node_next[found] = -1
            self.key_node_rid_head[found] = -1
            self.key_node_rid_count[found] = 0
            self.key_node_chain_pos[found] = self.bucket_key_count[bucket]
            self.key_node_bucket[found] = bucket
            self.n_key_nodes += 1
            self._key_order_dirty = True
            if last == -1 and self.bucket_head[bucket] == -1:
                self.bucket_head[bucket] = found
            else:
                tail = self.bucket_tail[bucket]
                self.key_node_next[tail] = found
            self.bucket_tail[bucket] = found
            self.bucket_key_count[bucket] += 1

        # b4: insert the record id into the rid list (prepend).
        self._ensure_rid_capacity(1)
        self.allocator.allocate(RID_NODE_BYTES, group_id=bucket % 64)
        rid_node = self.n_rid_nodes
        self.rid_node_rid[rid_node] = rid
        self.rid_node_next[rid_node] = self.key_node_rid_head[found]
        self.rid_node_owner[rid_node] = found
        self.key_node_rid_head[found] = rid_node
        self.key_node_rid_count[found] += 1
        self.n_rid_nodes += 1
        self._csr_dirty = True
        return visited, created

    def probe_one(self, key: int, bucket: int) -> tuple[list[int], int]:
        """Probe one key; returns (matching build rids, key nodes visited)."""
        if not 0 <= bucket < self.n_buckets:
            raise HashTableError(f"bucket {bucket} out of range")
        visited = 0
        node = self.bucket_head[bucket]
        while node != -1:
            visited += 1
            if self.key_node_key[node] == int(key):
                rids: list[int] = []
                rid_node = self.key_node_rid_head[node]
                while rid_node != -1:
                    rids.append(int(self.rid_node_rid[rid_node]))
                    rid_node = self.rid_node_next[rid_node]
                return rids, visited
            node = self.key_node_next[node]
        return [], visited

    # ------------------------------------------------------------------
    # Bulk (vectorised) path
    # ------------------------------------------------------------------
    def _sorted_key_view(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted live key-node keys, argsort order), cached until inserts."""
        if self._key_order_dirty or self._key_order is None:
            table_keys = self.key_node_key[: self.n_key_nodes]
            self._key_order = np.argsort(table_keys, kind="stable")
            self._sorted_keys = table_keys[self._key_order]
            self._key_order_dirty = False
        return self._sorted_keys, self._key_order

    def _lookup_nodes(self, keys: np.ndarray) -> np.ndarray:
        """Key-node index per key (-1 when absent), fully vectorised.

        Binary-searches the queries against the cached sorted key view, the
        same technique :meth:`bulk_probe` uses; the common build path (bulk
        inserts into a fresh table) skips it entirely via the empty check.
        """
        if self.n_key_nodes == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        sorted_table_keys, key_order = self._sorted_key_view()
        positions = np.searchsorted(sorted_table_keys, keys)
        positions_clipped = np.minimum(positions, self.n_key_nodes - 1)
        found = (positions < self.n_key_nodes) & (
            sorted_table_keys[positions_clipped] == keys
        )
        return np.where(found, key_order[positions_clipped], -1)

    def bulk_insert(
        self,
        keys: np.ndarray,
        rids: np.ndarray,
        buckets: np.ndarray,
    ) -> BuildWork:
        """Insert a batch of tuples; returns per-tuple work in input order.

        The resulting node structure is identical (up to chain ordering) to
        issuing :meth:`insert` per tuple.
        """
        keys = np.asarray(keys, dtype=np.int64)
        rids = np.asarray(rids, dtype=np.int64)
        buckets = np.asarray(buckets, dtype=np.int64)
        n = keys.shape[0]
        if rids.shape[0] != n or buckets.shape[0] != n:
            raise HashTableError("keys, rids and buckets must have the same length")
        if n == 0:
            return BuildWork(
                n_tuples=0,
                key_nodes_visited=np.empty(0, dtype=np.float64),
                new_key_created=np.empty(0, dtype=np.float64),
            )
        if buckets.min() < 0 or buckets.max() >= self.n_buckets:
            raise HashTableError("bucket numbers out of range")

        # Group tuples by (bucket, key).
        order = np.lexsort((keys, buckets))
        s_keys = keys[order]
        s_rids = rids[order]
        s_buckets = buckets[order]
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = (s_keys[1:] != s_keys[:-1]) | (s_buckets[1:] != s_buckets[:-1])
        group_of_tuple = np.cumsum(boundary) - 1
        group_starts = np.flatnonzero(boundary)
        group_keys = s_keys[group_starts]
        group_buckets = s_buckets[group_starts]
        n_groups = group_keys.shape[0]

        # Which groups hit an already-existing key node?
        existing_nodes = self._lookup_nodes(group_keys)
        is_new = existing_nodes < 0
        n_new = int(is_new.sum())

        # b2: one bucket-header visit (and latch) per tuple.
        np.add.at(self.bucket_tuple_count, s_buckets, 1)
        np.add.at(self.latches.acquisitions, s_buckets, 1)

        # b3 new key nodes: append them to their buckets' chains.
        group_node = existing_nodes.copy()
        if n_new:
            group_node[is_new] = self._append_key_nodes(
                group_keys[is_new], group_buckets[is_new]
            )

        # b4: one rid node per tuple, prepended group-wise to the key's list.
        self._ensure_rid_capacity(n)
        self.allocator.bulk_allocate(n, RID_NODE_BYTES, n_groups=max(1, n // 256))
        rid_ids = self.n_rid_nodes + np.arange(n, dtype=np.int64)
        owner = group_node[group_of_tuple]
        self.rid_node_rid[rid_ids] = s_rids
        self.rid_node_owner[rid_ids] = owner
        # Chain tuples of the same group consecutively; the last tuple of each
        # group points at the key node's previous head.
        next_rid = np.full(n, -1, dtype=np.int64)
        same_group_as_next = np.zeros(n, dtype=bool)
        same_group_as_next[:-1] = group_of_tuple[1:] == group_of_tuple[:-1]
        next_rid[same_group_as_next] = rid_ids[1:][same_group_as_next[:-1]]
        group_last_index = np.append(group_starts[1:], n) - 1
        next_rid[group_last_index] = self.key_node_rid_head[group_node]
        self.rid_node_next[rid_ids] = next_rid
        self.key_node_rid_head[group_node] = rid_ids[group_starts]
        np.add.at(self.key_node_rid_count, owner, 1)
        self.n_rid_nodes += n
        self._csr_dirty = True

        # Per-tuple b3 traversal lengths, mapped back to the input order.
        visited_sorted = self.key_node_chain_pos[owner].astype(np.float64) + 1.0
        created_sorted = np.zeros(n, dtype=np.float64)
        created_sorted[group_starts[is_new]] = 1.0
        visited = np.empty(n, dtype=np.float64)
        created = np.empty(n, dtype=np.float64)
        visited[order] = visited_sorted
        created[order] = created_sorted

        conflict = {
            "cpu": self.latch_conflict_ratio("cpu"),
            "gpu": self.latch_conflict_ratio("gpu"),
        }
        return BuildWork(
            n_tuples=n,
            key_nodes_visited=visited,
            new_key_created=created,
            latch_conflict=conflict,
        )

    def _append_key_nodes(self, new_keys: np.ndarray, new_buckets: np.ndarray) -> np.ndarray:
        """Append new key nodes to their buckets' chains; returns their ids.

        ``new_buckets`` must arrive grouped (all nodes of one bucket
        consecutive) in the order the nodes should chain up — the
        ``(bucket, key)``-sorted group order :meth:`bulk_insert` produces.
        """
        n_new = new_keys.shape[0]
        self._ensure_key_capacity(n_new)
        self.allocator.bulk_allocate(
            n_new, KEY_NODE_BYTES, n_groups=max(1, n_new // 256)
        )
        new_node_ids = self.n_key_nodes + np.arange(n_new, dtype=np.int64)

        # Rank of each new key inside its bucket's run of new keys.
        run_start = np.ones(n_new, dtype=bool)
        run_start[1:] = new_buckets[1:] != new_buckets[:-1]
        run_first_index = np.flatnonzero(run_start)
        run_id = np.cumsum(run_start) - 1
        rank_in_run = np.arange(n_new) - run_first_index[run_id]
        chain_pos = self.bucket_key_count[new_buckets] + rank_in_run

        self.key_node_key[new_node_ids] = new_keys
        self.key_node_rid_head[new_node_ids] = -1
        self.key_node_rid_count[new_node_ids] = 0
        self.key_node_chain_pos[new_node_ids] = chain_pos
        self.key_node_bucket[new_node_ids] = new_buckets

        # next pointers: consecutive new nodes of the same bucket chain up;
        # the last node of each run terminates the chain.
        next_ids = np.full(n_new, -1, dtype=np.int64)
        same_bucket_as_next = np.zeros(n_new, dtype=bool)
        same_bucket_as_next[:-1] = new_buckets[1:] == new_buckets[:-1]
        next_ids[same_bucket_as_next] = new_node_ids[1:][same_bucket_as_next[:-1]]
        self.key_node_next[new_node_ids] = next_ids

        # Attach each run to the existing chain (tail append) or make it
        # the bucket head.
        run_first_nodes = new_node_ids[run_first_index]
        run_buckets = new_buckets[run_first_index]
        run_last_index = np.append(run_first_index[1:], n_new) - 1
        run_last_nodes = new_node_ids[run_last_index]
        had_tail = self.bucket_tail[run_buckets] >= 0
        tails = self.bucket_tail[run_buckets][had_tail]
        self.key_node_next[tails] = run_first_nodes[had_tail]
        self.bucket_head[run_buckets[~had_tail]] = run_first_nodes[~had_tail]
        self.bucket_tail[run_buckets] = run_last_nodes

        run_sizes = np.diff(np.append(run_first_index, n_new))
        np.add.at(self.bucket_key_count, run_buckets, run_sizes)

        self.n_key_nodes += n_new
        self._key_order_dirty = True
        return new_node_ids

    def _rebuild_csr(self) -> None:
        """Materialise rid lists as a CSR layout keyed by key-node index."""
        n = self.n_rid_nodes
        owners = self.rid_node_owner[:n]
        rids = self.rid_node_rid[:n]
        order = np.argsort(owners, kind="stable")
        sorted_owners = owners[order]
        counts = np.zeros(self.n_key_nodes + 1, dtype=np.int64)
        np.add.at(counts, sorted_owners + 1, 1)
        self._csr_offsets = np.cumsum(counts)
        self._csr_rids = rids[order]
        self._csr_dirty = False

    def bulk_probe(
        self,
        keys: np.ndarray,
        rids: np.ndarray,
        buckets: np.ndarray,
    ) -> tuple[JoinResult, ProbeWork]:
        """Probe a batch of tuples; returns matches and per-tuple work."""
        keys = np.asarray(keys, dtype=np.int64)
        rids = np.asarray(rids, dtype=np.int64)
        buckets = np.asarray(buckets, dtype=np.int64)
        n = keys.shape[0]
        if rids.shape[0] != n or buckets.shape[0] != n:
            raise HashTableError("keys, rids and buckets must have the same length")
        if n == 0:
            return JoinResult.empty(), ProbeWork(
                n_tuples=0,
                key_nodes_visited=np.empty(0, dtype=np.float64),
                matches=np.empty(0, dtype=np.float64),
            )

        if self._csr_dirty:
            self._rebuild_csr()

        # p3: locate the probe key among the table's key nodes.
        if self.n_key_nodes == 0:
            found_mask = np.zeros(n, dtype=bool)
            node_of_probe = np.full(n, -1, dtype=np.int64)
        else:
            sorted_table_keys, key_order = self._sorted_key_view()
            positions = np.searchsorted(sorted_table_keys, keys)
            positions_clipped = np.minimum(positions, self.n_key_nodes - 1)
            found_mask = (positions < self.n_key_nodes) & (
                sorted_table_keys[positions_clipped] == keys
            )
            node_of_probe = np.where(found_mask, key_order[positions_clipped], -1)

        chain_lengths = self.bucket_key_count[buckets].astype(np.float64)
        visited = np.where(
            found_mask,
            self.key_node_chain_pos[np.maximum(node_of_probe, 0)].astype(np.float64) + 1.0,
            chain_lengths,
        )
        # Probing an empty bucket still reads its header only; count at least
        # the header inspection as one visited node when the chain is empty.
        visited = np.maximum(visited, 0.0)

        # p4: fetch the matching rid lists.
        match_counts = np.where(
            found_mask,
            self.key_node_rid_count[np.maximum(node_of_probe, 0)],
            0,
        ).astype(np.int64)
        total = int(match_counts.sum())
        if total:
            offsets = self._csr_offsets
            csr_rids = self._csr_rids
            starts = offsets[np.maximum(node_of_probe, 0)]
            out_offsets = np.concatenate(([0], np.cumsum(match_counts)[:-1]))
            flat = (
                np.arange(total)
                - np.repeat(out_offsets, match_counts)
                + np.repeat(starts, match_counts)
            )
            build_out = csr_rids[flat]
            probe_out = np.repeat(rids, match_counts)
            result = JoinResult(build_rids=build_out, probe_rids=probe_out)
        else:
            result = JoinResult.empty()

        work = ProbeWork(
            n_tuples=n,
            key_nodes_visited=visited,
            matches=match_counts.astype(np.float64),
        )
        return result, work

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Internal consistency checks used by tests and property-based tests.

        Raises on wrong counts, broken or cyclic chains and nodes that are
        unreachable from their bucket heads, with vectorised comparisons
        over the node arrays.
        """
        if int(self.bucket_key_count.sum()) != self.n_key_nodes:
            raise HashTableError("bucket key counts do not sum to the key node count")
        if int(self.bucket_tuple_count.sum()) != self.n_rid_nodes:
            raise HashTableError("bucket tuple counts do not sum to the rid node count")
        if int(self.key_node_rid_count[: self.n_key_nodes].sum()) != self.n_rid_nodes:
            raise HashTableError("key node rid counts do not sum to the rid node count")

        # Every chain must be reachable and contain exactly bucket_key_count
        # nodes.  A chain is healthy iff, per bucket, the live nodes' chain
        # positions are exactly 0..count-1, the head points at position 0,
        # the tail at the last position, and every next pointer links
        # position k to position k+1 — all checkable with one lexsort.
        nk = self.n_key_nodes
        buckets = self.key_node_bucket[:nk]
        if nk and (buckets.min() < 0 or buckets.max() >= self.n_buckets):
            raise HashTableError("key node bucket out of range")
        counts = np.bincount(buckets, minlength=self.n_buckets)
        if not np.array_equal(counts, self.bucket_key_count):
            raise HashTableError("chain lengths do not match recorded bucket key counts")
        if np.any(self.bucket_head[self.bucket_key_count == 0] != -1):
            raise HashTableError("empty bucket with a non-empty chain head")
        if nk == 0:
            return
        pos = self.key_node_chain_pos[:nk]
        order = np.lexsort((pos, buckets))
        sorted_buckets = buckets[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_buckets[1:] != sorted_buckets[:-1]))
        )
        sizes = np.diff(np.append(starts, nk))
        expected_pos = np.arange(nk) - np.repeat(starts, sizes)
        if not np.array_equal(pos[order], expected_pos):
            raise HashTableError("chain positions are not consecutive within buckets")
        nodes_sorted = order.astype(np.int64)
        expected_next = np.full(nk, -1, dtype=np.int64)
        same_bucket = sorted_buckets[1:] == sorted_buckets[:-1]
        expected_next[:-1][same_bucket] = nodes_sorted[1:][same_bucket]
        if not np.array_equal(self.key_node_next[nodes_sorted], expected_next):
            raise HashTableError("key chain next pointers are inconsistent")
        if not np.array_equal(self.bucket_head[sorted_buckets[starts]], nodes_sorted[starts]):
            raise HashTableError("bucket heads do not point at chain position 0")
        last = np.append(starts[1:], nk) - 1
        if not np.array_equal(self.bucket_tail[sorted_buckets[last]], nodes_sorted[last]):
            raise HashTableError("bucket tails do not point at the last chain node")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HashTable(buckets={self.n_buckets}, keys={self.n_key_nodes}, "
            f"tuples={self.n_rid_nodes}, shared={self.shared_between_devices})"
        )
