"""Last-level data cache models.

Two models are provided:

* :class:`CacheModel` — an analytical model used at workload scale.  It
  estimates the miss ratio of random accesses from the working-set size of the
  accessed structure relative to the cache capacity and from whether the CPU
  and the GPU share the cache (cache reuse on the coupled architecture is one
  of the paper's central points; see Table 3 and Figure 10).
* :class:`SetAssociativeCache` — an exact LRU set-associative simulator used
  in unit tests and micro-benchmarks to validate the analytical model's
  qualitative behaviour on small traces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .specs import CacheSpec


@dataclass
class CacheStats:
    """Access counters of a cache (model or simulator)."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            accesses=self.accesses + other.accesses,
            misses=self.misses + other.misses,
        )


class CacheModel:
    """Analytical shared cache model.

    The miss ratio of random accesses into a structure of ``working_set_bytes``
    is estimated as::

        miss = cold_miss                         if the working set fits
        miss = 1 - effective_capacity / ws       otherwise

    ``effective_capacity`` is the full cache when the structure is shared by
    both processors (coupled architecture, shared hash table) and a
    ``partition_fraction`` of it when each processor works on its own copy
    (separate hash tables, or the emulated discrete architecture where cross-
    device reuse is impossible).
    """

    def __init__(self, spec: CacheSpec, shared: bool = True) -> None:
        self.spec = spec
        self.shared = shared
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def miss_ratio(
        self,
        working_set_bytes: float,
        partition_fraction: float = 1.0,
    ) -> float:
        """Estimated miss ratio for random accesses into a working set.

        ``partition_fraction`` is the fraction of the cache effectively
        available to the accessing device (1.0 when the structure is shared
        and reused across devices, 0.5 when two devices compete with disjoint
        working sets).
        """
        if working_set_bytes < 0:
            raise ValueError("working_set_bytes must be non-negative")
        if not 0.0 < partition_fraction <= 1.0:
            raise ValueError("partition_fraction must be in (0, 1]")
        effective = self.spec.size_bytes * (partition_fraction if not self.shared else 1.0)
        # Even a shared cache is competed for when both devices stream
        # different structures; the caller expresses that via the fraction.
        effective = min(effective, self.spec.size_bytes * partition_fraction)
        if working_set_bytes <= 0:
            return self.spec.cold_miss_ratio
        if working_set_bytes <= effective:
            return self.spec.cold_miss_ratio
        capacity_miss = 1.0 - effective / working_set_bytes
        return min(1.0, max(self.spec.cold_miss_ratio, capacity_miss))

    def record_accesses(self, accesses: float, miss_ratio: float, repeats: int = 1) -> None:
        """Accumulate access/miss counters (used for Table 3 style reporting).

        The counts are rounded to whole numbers before they are added, so
        ``repeats`` identical calls add exactly ``repeats`` times as much as
        one; passing ``repeats`` adds that in one call.
        """
        if accesses < 0 or not 0.0 <= miss_ratio <= 1.0:
            raise ValueError("invalid access count or miss ratio")
        self.stats.accesses += repeats * int(round(accesses))
        self.stats.misses += repeats * int(round(accesses * miss_ratio))

    def reset(self) -> None:
        self.stats = CacheStats()


class SetAssociativeCache:
    """Exact LRU set-associative cache simulator for byte-address traces."""

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.stats = CacheStats()
        # One LRU-ordered dict of tags per set.
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(spec.n_sets)
        ]

    def access(self, address: int) -> bool:
        """Access one byte address; returns ``True`` on a hit."""
        if address < 0:
            raise ValueError("address must be non-negative")
        line = address // self.spec.line_bytes
        set_index = line % self.spec.n_sets
        tag = line // self.spec.n_sets
        cache_set = self._sets[set_index]
        self.stats.accesses += 1
        if tag in cache_set:
            cache_set.move_to_end(tag)
            return True
        self.stats.misses += 1
        cache_set[tag] = None
        if len(cache_set) > self.spec.associativity:
            cache_set.popitem(last=False)
        return False

    def access_range(self, start: int, n_bytes: int) -> int:
        """Access a contiguous byte range; returns the number of misses."""
        if n_bytes <= 0:
            return 0
        misses_before = self.stats.misses
        first_line = start // self.spec.line_bytes
        last_line = (start + n_bytes - 1) // self.spec.line_bytes
        for line in range(first_line, last_line + 1):
            self.access(line * self.spec.line_bytes)
        return self.stats.misses - misses_before

    def reset(self) -> None:
        self.stats = CacheStats()
        for cache_set in self._sets:
            cache_set.clear()


@dataclass
class WorkingSet:
    """Helper describing the structure a step's random accesses touch.

    The hash-join steps report their working set (hash table, partition
    headers...) so that the machine model can pick a miss ratio: shared
    structures get the whole cache, per-device copies get half of it.
    """

    bytes: float
    #: True when both devices access the *same* copy of the structure.
    shared_between_devices: bool = True

    def partition_fraction(self, machine_shares_cache: bool) -> float:
        if self.shared_between_devices and machine_shares_cache:
            return 1.0
        # Separate copies (or a discrete machine): each device effectively
        # owns half of the last-level cache capacity for this structure.
        return 0.5
