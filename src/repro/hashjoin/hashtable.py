"""The chained hash table used by all hash-join variants (Section 3.1).

The structure follows the implementation adopted from previous studies
[4, 17, 22]:

* an array of **bucket headers**, each holding the number of tuples in the
  bucket and a pointer to its key list;
* a **key list** of nodes, one per distinct key hashing into the bucket, each
  pointing at a **rid list** of all record ids carrying that key.

Every caller builds a table from one batch and probes it once, so
:meth:`HashTable.bulk_insert` builds the whole table from one stable
(bucket, key) radix sort of its batch and a second build is refused.  Each
(bucket, key) group becomes one key node; the nodes lie in (bucket, key)
order, so each bucket's key list is a run of consecutive nodes in ascending
key order, and the group's sorted rids, delimited by the group starts, are
its rid list in build order.

The simulated work comes from that layout, as Algorithm 1 walks it.  In b3
a build tuple visits its key list up to its key: the key node's rank in its
bucket plus one; the first tuple of a group creates the node.  Each key has
one bucket, so a build that gives one key two buckets is refused.  In p3 a
probe that finds its key in its own bucket visits as many nodes; a miss
visits the whole key list of its bucket, which is none in an empty bucket.
p4 reads the key's rid list.

Key and rid nodes are charged to one of the software memory allocators of
:mod:`repro.opencl.allocator`, so the allocator's atomic behaviour (basic vs.
block) directly shows up in the build cost.  The node sizes below are those
of the paper's linked nodes: they are what the simulated caches and buffers
hold, whatever arrays this module keeps.
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


#: Flipping an int64's sign bit maps int64 order onto uint64 order.
_INT64_SIGN_BIT = np.uint64(1 << 63)
#: Bits per radix digit: numpy sorts 16-bit integers with a stable radix sort.
_RADIX_DIGIT_BITS = 16


def radix_digits(*columns: np.ndarray) -> list[np.ndarray]:
    """uint16 digits of int64 sort columns, least significant first.

    The columns follow :func:`numpy.lexsort`'s convention (the last one is
    the primary key), so ``np.lexsort(radix_digits(a, b))`` is the
    permutation ``np.lexsort((a, b))`` returns and
    ``np.lexsort(radix_digits(a))`` the one ``np.argsort(a, kind="stable")``
    returns.  numpy sorts each 16-bit digit with an O(n) stable radix sort,
    where an int64 column takes an O(n log n) merge or tim sort.

    Each column is mapped to uint64 in order (its sign bit flipped),
    shifted down by its minimum, and split into only as many digits as the
    remaining range needs; a constant column adds none.  The list is never
    empty, so it can always go to :func:`numpy.lexsort`.
    """
    n = len(columns[-1])
    digits: list[np.ndarray] = []
    if n:
        for column in columns:
            signed = np.asarray(column, dtype=np.int64)
            unsigned = signed.view(np.uint64) ^ _INT64_SIGN_BIT
            unsigned -= unsigned.min()
            span_bits = int(unsigned.max()).bit_length()
            for shift in range(0, span_bits, _RADIX_DIGIT_BITS):
                digits.append((unsigned >> np.uint64(shift)).astype(np.uint16))
    return digits or [np.zeros(n, dtype=np.uint16)]


class HashTable:
    """Bucket headers -> key lists -> rid lists, backed by a software allocator.

    The key nodes are the arrays ``key_node_*`` in (bucket, key) order.  Key
    node ``i``'s rid list is ``rid_lists[rid_offsets[i]:rid_offsets[i + 1]]``.
    """

    def __init__(
        self,
        n_buckets: int,
        allocator: MemoryAllocator | None = None,
        shared_between_devices: bool = True,
    ) -> None:
        if n_buckets <= 0:
            raise HashTableError("n_buckets must be positive")
        self.n_buckets = int(n_buckets)
        self.allocator = allocator or make_allocator("block")
        self.shared_between_devices = shared_between_devices

        # Bucket headers.
        self.bucket_tuple_count = np.zeros(self.n_buckets, dtype=np.int64)
        self.bucket_key_count = np.zeros(self.n_buckets, dtype=np.int64)
        self.latches = LatchTable(self.n_buckets)

        # Key nodes, and each node's rank in its bucket's key list.
        self.key_node_key = np.empty(0, dtype=np.int64)
        self.key_node_bucket = np.empty(0, dtype=np.int64)
        self.key_node_chain_pos = np.empty(0, dtype=np.int64)

        # Rid lists, back to back in key-node order.
        self.rid_offsets = np.zeros(1, dtype=np.int64)
        self.rid_lists = np.empty(0, dtype=np.int64)

        # The key nodes in key order, for probes: their keys and node ids.
        self._sorted_keys = np.empty(0, dtype=np.int64)
        self._key_order = np.empty(0, dtype=np.int64)
        self._built = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_key_nodes(self) -> int:
        return self.key_node_key.shape[0]

    @property
    def n_rid_nodes(self) -> int:
        return self.rid_lists.shape[0]

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

    def latch_conflict_ratio(self, device_kind: str) -> float:
        """Bucket-latch contention observed so far on one device kind."""
        threads = concurrent_hardware_threads(device_kind)
        return self.latches.conflict_ratio(threads)

    # ------------------------------------------------------------------
    # Build and probe
    # ------------------------------------------------------------------
    def bulk_insert(
        self,
        keys: np.ndarray,
        rids: np.ndarray,
        buckets: np.ndarray,
    ) -> BuildWork:
        """Build the table from one batch; returns per-tuple work in input order.

        Raises :class:`HashTableError` when the table is already built, or
        when one key arrives with two bucket numbers: Algorithm 1's b1 gives
        each key one bucket.
        """
        keys = np.asarray(keys, dtype=np.int64)
        rids = np.asarray(rids, dtype=np.int64)
        buckets = np.asarray(buckets, dtype=np.int64)
        n = keys.shape[0]
        if rids.shape[0] != n or buckets.shape[0] != n:
            raise HashTableError("keys, rids and buckets must have the same length")
        if self._built:
            raise HashTableError("the table is already built; build a new one")
        if n and (buckets.min() < 0 or buckets.max() >= self.n_buckets):
            raise HashTableError("bucket numbers out of range")
        if n == 0:
            self._built = True
            return BuildWork(
                n_tuples=0,
                key_nodes_visited=np.empty(0, dtype=np.float64),
                new_key_created=np.empty(0, dtype=np.float64),
            )

        # Group tuples by (bucket, key).  The sort must be stable: it fixes
        # the order of each key's rid list, and with it the result order.
        order = np.lexsort(radix_digits(keys, buckets))
        s_keys = keys[order]
        s_buckets = buckets[order]
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = (s_keys[1:] != s_keys[:-1]) | (s_buckets[1:] != s_buckets[:-1])
        group_starts = np.flatnonzero(boundary)
        node_keys = s_keys[group_starts]
        key_order = np.lexsort(radix_digits(node_keys))
        sorted_keys = node_keys[key_order]
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise HashTableError("a key arrived with two bucket numbers")
        self._built = True
        self._key_order = key_order
        self._sorted_keys = sorted_keys

        # b2: one bucket-header visit (and latch) per tuple.
        self.bucket_tuple_count = np.bincount(buckets, minlength=self.n_buckets)
        self.latches.acquisitions += self.bucket_tuple_count

        # b3: one key node per group, ranked inside its bucket.
        self.key_node_key = node_keys
        self.key_node_bucket = s_buckets[group_starts]
        self.bucket_key_count = np.bincount(self.key_node_bucket, minlength=self.n_buckets)
        first_node = np.cumsum(self.bucket_key_count) - self.bucket_key_count
        n_nodes = group_starts.shape[0]
        self.key_node_chain_pos = np.arange(n_nodes) - first_node[self.key_node_bucket]
        self.allocator.bulk_allocate(n_nodes, KEY_NODE_BYTES)

        # b4: one rid node per tuple; each group's sorted rids are its list.
        self.rid_lists = rids[order]
        self.rid_offsets = np.append(group_starts, n)
        self.allocator.bulk_allocate(n, RID_NODE_BYTES)

        # Per-tuple b3 work, mapped back to the input order.
        visited = np.empty(n, dtype=np.float64)
        visited[order] = np.repeat(self.key_node_chain_pos + 1.0, np.diff(self.rid_offsets))
        created = np.zeros(n, dtype=np.float64)
        created[order[group_starts]] = 1.0

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

    def _lookup_nodes(self, keys: np.ndarray) -> np.ndarray:
        """Key-node index per key (-1 when absent), fully vectorised.

        Binary-searches the queries against the sorted key view in key
        order: each search then starts where the previous one ended, and
        the view and its node ids are read in one ascending sweep instead
        of at random.  Only the node ids are scattered back to the query
        order.
        """
        if self.n_key_nodes == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        query_order = np.lexsort(radix_digits(keys))
        sorted_queries = keys[query_order]
        # A query above every key clips to the last one, which differs.
        positions = np.minimum(
            np.searchsorted(self._sorted_keys, sorted_queries), self.n_key_nodes - 1
        )
        found = self._sorted_keys[positions] == sorted_queries
        nodes = np.empty(keys.shape[0], dtype=np.int64)
        nodes[query_order] = np.where(found, self._key_order[positions], -1)
        return nodes

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
        if buckets.min() < 0 or buckets.max() >= self.n_buckets:
            raise HashTableError("bucket numbers out of range")

        # p3: locate the probe key among the table's key nodes.  Only a key
        # in the probe's own bucket is a hit, and it visits the key list up
        # to its node; a miss, also of a key another bucket holds, walks the
        # whole list.
        node = self._lookup_nodes(keys)
        found = node >= 0
        hit_nodes = node[found]
        in_bucket = self.key_node_bucket[hit_nodes] == buckets[found]
        found[found] = in_bucket
        hit_nodes = hit_nodes[in_bucket]
        visited = self.bucket_key_count[buckets].astype(np.float64)
        visited[found] = self.key_node_chain_pos[hit_nodes] + 1.0

        # p4: fetch the matching rid lists.
        starts = self.rid_offsets[hit_nodes]
        hit_counts = self.rid_offsets[hit_nodes + 1] - starts
        match_counts = np.zeros(n, dtype=np.int64)
        match_counts[found] = hit_counts
        total = int(hit_counts.sum())
        if total:
            out_starts = np.cumsum(hit_counts) - hit_counts
            flat = np.arange(total) + np.repeat(starts - out_starts, hit_counts)
            result = JoinResult(
                build_rids=self.rid_lists[flat],
                probe_rids=np.repeat(rids, match_counts),
            )
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
        """Check the invariants of the table's arrays (used by tests).

        The key nodes must lie in strictly ascending (bucket, key) order
        with their ranks as chain positions, the bucket headers must count
        them and their rids, and the offsets must cut every rid into exactly
        one non-empty rid list.
        """
        nodes = self.key_node_bucket
        n_nodes = nodes.shape[0]
        if n_nodes and (nodes.min() < 0 or nodes.max() >= self.n_buckets):
            raise HashTableError("key node bucket out of range")
        same_bucket = nodes[1:] == nodes[:-1]
        if np.any(nodes[1:] < nodes[:-1]) or np.any(
            same_bucket & (self.key_node_key[1:] <= self.key_node_key[:-1])
        ):
            raise HashTableError("key nodes are not in ascending (bucket, key) order")
        if not np.array_equal(np.bincount(nodes, minlength=self.n_buckets), self.bucket_key_count):
            raise HashTableError("chain lengths do not match recorded bucket key counts")
        first_node = np.cumsum(self.bucket_key_count) - self.bucket_key_count
        if not np.array_equal(self.key_node_chain_pos, np.arange(n_nodes) - first_node[nodes]):
            raise HashTableError("chain positions are not ranks within buckets")
        offsets = self.rid_offsets
        list_sizes = np.diff(offsets)
        if (
            offsets.shape[0] != n_nodes + 1
            or offsets[0] != 0
            or offsets[-1] != self.n_rid_nodes
            or np.any(list_sizes <= 0)
        ):
            raise HashTableError("rid offsets do not cut the rids into non-empty lists")
        tuples = np.bincount(nodes, weights=list_sizes, minlength=self.n_buckets)
        if not np.array_equal(tuples, self.bucket_tuple_count):
            raise HashTableError("bucket tuple counts do not match the rid lists")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HashTable(buckets={self.n_buckets}, keys={self.n_key_nodes}, "
            f"tuples={self.n_rid_nodes}, shared={self.shared_between_devices})"
        )
