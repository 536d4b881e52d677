"""Vectorized batch evaluation engine for the abstract cost model.

:func:`~repro.costmodel.abstract.estimate_series` evaluates Eqs. 1-5 for one
ratio vector in pure Python, which is fine for a single what-if question but
dominates the runtime of the ratio optimisers: ``optimize_pl`` coordinate
descent and the Figure 9 Monte Carlo study issue tens of thousands of
evaluations per join.  This module evaluates an ``(m, n)`` matrix of ratio
vectors — ``m`` candidate assignments for an ``n``-step series — in one pass
of NumPy array operations:

* per-step device times are two broadcasted multiplies (Eq. 2/3 with the
  calibrated unit costs),
* the Eq. 4/5 pipelined delays come from row-wise cumulative sums and
  sign masks on the consecutive ratio changes,
* intermediate-result volumes are the masked ``|r_i - r_{i-1}| * x_i``
  byte sums of Section 4.1.

One vector kernel, :func:`pipelined_totals`, evaluates Eqs. 4/5 and the
per-device sums for every caller: :func:`estimate_series_batch`,
:func:`batch_totals_mixed` (and through it :func:`batch_totals`, the
optimisers and :class:`EstimateCache`) and the executor's ratio grid.  The
scalar :func:`estimate_series` remains the reference implementation; the
kernel reproduces its floating-point operation order (sequential
cumulative sums, identical expression shapes), so every row's totals,
per-step times, delays and intermediate bytes equal the scalar path's bit
for bit and the optimisers built on top return identical ratio choices.

:class:`EstimateCache` memoises per-row totals and full scalar estimates,
keyed on a fingerprint of the calibrated steps plus the exact bytes of the
ratio vector, so the planner and the ``experiments/`` figures reuse identical
evaluations across schemes and figures instead of re-running the engine.
"""

from __future__ import annotations

# repro: kernel
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Sequence

from numpy.typing import ArrayLike

import numpy as np

from ..locking import make_lock
from .abstract import CostModelError, SeriesEstimate, StepCost, estimate_series

__all__ = [
    "BatchEstimate",
    "EstimateCache",
    "SharedEstimateCache",
    "batch_totals",
    "batch_totals_mixed",
    "estimate_series_batch",
    "mixed_matrices",
    "pipelined_totals",
    "reset_shared_estimate_cache",
    "shared_estimate_cache",
    "steps_fingerprint",
]


def as_ratio_matrix(ratio_matrix: ArrayLike, n_steps: int) -> np.ndarray:
    """Validate and normalise candidate ratios to an ``(m, n_steps)`` matrix.

    A single ratio vector is promoted to a one-row matrix.  Raises
    :class:`CostModelError` on shape mismatches or ratios outside [0, 1]
    (NaN included), mirroring the scalar path's validation.  Every engine
    entry runs it, so a bad matrix fails the same way on every path.
    """
    matrix = np.asarray(ratio_matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise CostModelError(
            f"ratio matrix must be 1- or 2-dimensional, got shape {matrix.shape}"
        )
    if matrix.shape[1] != n_steps:
        raise CostModelError(
            f"got {matrix.shape[1]} ratios per row for {n_steps} steps"
        )
    # Written so that NaN fails both comparisons, like the scalar check.
    if matrix.size and not (matrix.min() >= 0.0 and matrix.max() <= 1.0):
        raise CostModelError("ratios outside [0, 1] in ratio matrix")
    return matrix


@dataclass
class BatchEstimate:
    """Per-row outputs of the abstract model for a batch of ratio vectors.

    The ``*_step_s`` / ``*_delay_s`` members are ``(m, n)`` matrices; the
    totals are length-``m`` vectors.  :meth:`row` materialises one row as a
    scalar :class:`~repro.costmodel.abstract.SeriesEstimate`.
    """

    ratio_matrix: np.ndarray
    cpu_step_s: np.ndarray
    gpu_step_s: np.ndarray
    cpu_delay_s: np.ndarray
    gpu_delay_s: np.ndarray
    cpu_total_s: np.ndarray
    gpu_total_s: np.ndarray
    total_s: np.ndarray
    intermediate_bytes: np.ndarray

    def __len__(self) -> int:
        return int(self.ratio_matrix.shape[0])

    def argmin(self) -> int:
        """Index of the fastest row (first one on ties, like the scalar scans)."""
        if len(self) == 0:
            raise CostModelError("cannot take argmin of an empty batch")
        return int(np.argmin(self.total_s))

    def row(self, i: int) -> SeriesEstimate:
        """Materialise row ``i`` as a scalar :class:`SeriesEstimate`."""
        return SeriesEstimate(
            ratios=self.ratio_matrix[i].tolist(),
            cpu_step_s=self.cpu_step_s[i].tolist(),
            gpu_step_s=self.gpu_step_s[i].tolist(),
            cpu_delay_s=self.cpu_delay_s[i].tolist(),
            gpu_delay_s=self.gpu_delay_s[i].tolist(),
            intermediate_bytes=float(self.intermediate_bytes[i]),
        )


def _step_coefficients(
    steps: Sequence[StepCost],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cpu_unit*n_tuples, gpu_unit*n_tuples, n_tuples, intermediate_bpt)."""
    n_tuples = np.array([s.n_tuples for s in steps], dtype=np.float64)
    cpu_coeff = np.array([s.cpu_unit_s for s in steps], dtype=np.float64) * n_tuples
    gpu_coeff = np.array([s.gpu_unit_s for s in steps], dtype=np.float64) * n_tuples
    inter_bpt = np.array(
        [s.intermediate_bytes_per_tuple for s in steps], dtype=np.float64
    )
    return cpu_coeff, gpu_coeff, n_tuples, inter_bpt


#: One ``(steps, ratio_matrix)`` pair of a mixed batch: the matrix's rows are
#: candidate ratio vectors for that step series.
Segment = tuple[Sequence[StepCost], ArrayLike]


def batch_totals(steps: Sequence[StepCost], ratio_matrix: ArrayLike) -> np.ndarray:
    """Per-row ``total_s`` (Eq. 1) for one step series.

    The one-segment case of :func:`batch_totals_mixed`: the same arithmetic
    as :func:`estimate_series_batch`, minus the per-step output matrices.
    """
    return batch_totals_mixed([(steps, ratio_matrix)])


def mixed_matrices(
    segments: Sequence[Segment],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segmented coefficient matrices for a mixture of step series.

    ``segments`` is a sequence of ``(steps, ratio_matrix)`` pairs, each pair
    contributing its matrix's rows (in order) to one stacked batch.  Series
    of different lengths are right-padded to the widest series: the padded
    ratio columns repeat each row's last real ratio (so the Eq. 4/5 delay
    masks stay off — consecutive equal ratios never stall) and the padded
    coefficient columns are zero (so the padded lanes contribute exactly
    ``+0.0`` to every cumulative sum, which leaves the per-row floating-point
    accumulation bit-identical to the unpadded per-series evaluation).

    Returns ``(R, cpu_coeff, gpu_coeff)`` — the stacked ``(m, n_max)`` ratio
    matrix and the per-row coefficient matrices that
    :func:`batch_totals_mixed` turns into step times for
    :func:`pipelined_totals`.
    """
    prepared: list[tuple[Sequence[StepCost], np.ndarray]] = []
    m = 0
    n_max = 0
    for steps, ratio_matrix in segments:
        matrix = as_ratio_matrix(ratio_matrix, len(steps))
        prepared.append((steps, matrix))
        m += matrix.shape[0]
        n_max = max(n_max, len(steps))
    R = np.zeros((m, n_max), dtype=np.float64)
    cpu_coeff = np.zeros((m, n_max), dtype=np.float64)
    gpu_coeff = np.zeros((m, n_max), dtype=np.float64)
    offset = 0
    for steps, matrix in prepared:
        n = len(steps)
        rows = matrix.shape[0]
        if rows and n:
            block = slice(offset, offset + rows)
            R[block, :n] = matrix
            if n < n_max:
                R[block, n:] = matrix[:, n - 1 : n]
            series_cpu, series_gpu, _, _ = _step_coefficients(steps)
            cpu_coeff[block, :n] = series_cpu
            gpu_coeff[block, :n] = series_gpu
        offset += rows
    return R, cpu_coeff, gpu_coeff


def batch_totals_mixed(segments: Sequence[Segment]) -> np.ndarray:
    """Per-row ``total_s`` for rows drawn from *different* step series.

    One vectorized pass serves an arbitrary mixture of series fingerprints:
    each ``(steps, ratio_matrix)`` segment is expanded to per-row coefficient
    vectors by :func:`mixed_matrices`, and the whole stack goes through the
    Eq. 2/3 products and :func:`pipelined_totals`, exactly as in
    :func:`estimate_series_batch`.  Row ``j`` of the returned vector is
    bit-identical to ``estimate_series(steps_j, row_j).total_s`` for the
    segment it came from — padding adds only exact ``+0.0`` terms and
    masked-off delay lanes.

    One call serves every row a call site holds (the plan service's request
    batches, lockstep coordinate descents), so the engine-call count is one
    per call site, not one per fingerprint.
    """
    R, cpu_coeff, gpu_coeff = mixed_matrices(segments)
    if R.shape[1] == 0:
        return np.zeros(R.shape[0], dtype=np.float64)
    _, _, cpu_total, gpu_total = pipelined_totals(
        R, cpu_coeff * R, gpu_coeff * (1.0 - R)
    )
    return np.maximum(cpu_total, gpu_total)


def pipelined_totals(
    R: np.ndarray,
    cpu_step: np.ndarray,
    gpu_step: np.ndarray,
    pipelined: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 4/5 delays and per-device totals for ``(m, n)`` step times.

    Row ``i`` of ``cpu_step``/``gpu_step`` holds the per-step device seconds
    under ratio vector ``R[i]`` (``n >= 1``).  Returns ``(cpu_delay,
    gpu_delay, cpu_total, gpu_total)``: the ``(m, n)`` delay matrices of
    :func:`~repro.costmodel.abstract.pipeline_delays` (all zero when
    ``pipelined`` is off) and each device's step-time sum plus delay sum.
    Every expression keeps the scalar code's operation order, and the
    sequential cumulative sums reproduce its left-to-right sums, so each row
    is bit-identical to the scalar evaluation.  Every batched total of the
    abstract model and of the executor's ratio grid finishes here.
    """
    cpu_cum = np.cumsum(cpu_step, axis=1)
    gpu_cum = np.cumsum(gpu_step, axis=1)
    cpu_delay = np.zeros_like(R)
    gpu_delay = np.zeros_like(R)
    if pipelined and R.shape[1] > 1:
        r_prev = R[:, :-1]
        r_cur = R[:, 1:]
        # The divisions are only meaningful inside their masks (where the
        # denominators are strictly positive); the masked-out lanes may
        # produce inf/nan and are discarded by np.where below.
        with np.errstate(divide="ignore", invalid="ignore"):
            # Eq. 4: the CPU waits for GPU output of step i-1.
            not_pipelined = gpu_step[:, :-1] * (1.0 - r_cur) / (1.0 - r_prev)
            cpu_wait = (gpu_cum[:, :-1] - not_pipelined) - cpu_cum[:, 1:]
            # Eq. 5: the GPU waits for CPU output of step i-1.
            pipelined_tail = gpu_step[:, 1:] * (1.0 - r_prev) / (1.0 - r_cur)
            gpu_wait = cpu_cum[:, :-1] - (gpu_cum[:, 1:] - pipelined_tail)
        cpu_delay[:, 1:] = np.where(
            r_cur > r_prev, np.maximum(cpu_wait, 0.0), 0.0
        )
        gpu_delay[:, 1:] = np.where(
            r_cur < r_prev, np.maximum(gpu_wait, 0.0), 0.0
        )
    cpu_total = cpu_cum[:, -1] + np.cumsum(cpu_delay, axis=1)[:, -1]
    gpu_total = gpu_cum[:, -1] + np.cumsum(gpu_delay, axis=1)[:, -1]
    return cpu_delay, gpu_delay, cpu_total, gpu_total


def estimate_series_batch(
    steps: Sequence[StepCost], ratio_matrix: ArrayLike
) -> BatchEstimate:
    """Evaluate the abstract model (Eqs. 1-5) for a batch of ratio vectors.

    ``ratio_matrix`` is an ``(m, n)`` array-like of candidate ratio vectors
    (one row per candidate) for the ``n`` calibrated ``steps``; a single
    vector is accepted as a one-row batch.  Row ``i`` of the result equals
    ``estimate_series(steps, ratio_matrix[i])``.
    """
    n = len(steps)
    R = as_ratio_matrix(ratio_matrix, n)
    m = R.shape[0]

    if n == 0:
        zeros_mat = np.zeros((m, 0), dtype=np.float64)
        zeros_vec = np.zeros(m, dtype=np.float64)
        return BatchEstimate(
            ratio_matrix=R,
            cpu_step_s=zeros_mat,
            gpu_step_s=zeros_mat,
            cpu_delay_s=zeros_mat,
            gpu_delay_s=zeros_mat,
            cpu_total_s=zeros_vec,
            gpu_total_s=zeros_vec.copy(),
            total_s=zeros_vec.copy(),
            intermediate_bytes=zeros_vec.copy(),
        )

    cpu_coeff, gpu_coeff, n_tuples, inter_bpt = _step_coefficients(steps)

    # Eq. 2/3 per-step times; (unit * n_tuples) * ratio matches the scalar
    # device_time() operation order exactly.
    cpu_step = cpu_coeff * R
    gpu_step = gpu_coeff * (1.0 - R)
    cpu_delay, gpu_delay, cpu_total, gpu_total = pipelined_totals(R, cpu_step, gpu_step)

    intermediate = np.zeros(m, dtype=np.float64)
    if n > 1:
        moved_tuples = np.abs(R[:, 1:] - R[:, :-1]) * n_tuples[1:]
        intermediate = np.cumsum(moved_tuples * inter_bpt[1:], axis=1)[:, -1]

    return BatchEstimate(
        ratio_matrix=R,
        cpu_step_s=cpu_step,
        gpu_step_s=gpu_step,
        cpu_delay_s=cpu_delay,
        gpu_delay_s=gpu_delay,
        cpu_total_s=cpu_total,
        gpu_total_s=gpu_total,
        total_s=np.maximum(cpu_total, gpu_total),
        intermediate_bytes=intermediate,
    )


#: Hashable identity of a calibrated step series, as produced by
#: :func:`steps_fingerprint`: one (name, n_tuples, cpu_unit_s, gpu_unit_s,
#: intermediate_bytes_per_tuple) entry per step.
Fingerprint = tuple[tuple[str, int, float, float, float], ...]


def steps_fingerprint(steps: Sequence[StepCost]) -> Fingerprint:
    """Hashable identity of a calibrated step series for cache keying."""
    return tuple(
        (s.name, s.n_tuples, s.cpu_unit_s, s.gpu_unit_s, s.intermediate_bytes_per_tuple)
        for s in steps
    )


class EstimateCache:
    """Memoises cost-model evaluations across schemes, figures and queries.

    Keys combine :func:`steps_fingerprint` with the exact float64 bytes of
    the ratio vector, so only a bit-identical request is served from the
    cache.  Two views are cached independently:

    * :meth:`totals_mixed` — per-row ``total_s`` for a mixture of step
      series; every row is keyed under its *own* series fingerprint and all
      missing rows (across every fingerprint) are evaluated in one
      :func:`batch_totals_mixed` call.  :meth:`totals` is its one-series
      case.
    * :meth:`estimate` — a full scalar :class:`SeriesEstimate` for one
      vector, evaluated with the reference :func:`estimate_series`.

    Entries are grouped into per-fingerprint buckets and the buckets form a
    true LRU: every lookup refreshes its step series' recency, and inserting
    past ``max_entries`` rows (a hard bound on the two views combined)
    evicts the least recently used series of the inserting view first.
    Evicting at fingerprint granularity keeps the hot per-row path
    to one plain dict probe (the optimisers issue thousands of them per
    planning call, so per-row recency bookkeeping would cost more than the
    vectorized engine it saves), while a long-lived process-wide cache still
    retires cold workloads instead of periodically dropping everything.
    """

    def __init__(self, max_entries: int = 500_000) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: fingerprint -> {row bytes -> total seconds}, LRU-ordered by
        #: fingerprint access.
        self._totals: OrderedDict[Fingerprint, dict[bytes, float]] = OrderedDict()
        self._estimates: OrderedDict[
            Fingerprint, dict[bytes, SeriesEstimate]
        ] = OrderedDict()
        self._total_rows = 0
        self._estimate_rows = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _touch(
        store: "OrderedDict[Fingerprint, dict[bytes, Any]]",
        fingerprint: Fingerprint,
    ) -> dict[bytes, Any]:
        """The fingerprint's bucket, created on demand and marked recent."""
        bucket = store.get(fingerprint)
        if bucket is None:
            bucket = store[fingerprint] = {}
        store.move_to_end(fingerprint)
        return bucket

    def _evict(
        self,
        store: "OrderedDict[Fingerprint, dict[bytes, Any]]",
        rows: int,
        other_rows: int,
    ) -> int:
        """Drop buckets of ``store`` until both views fit the bound.

        ``max_entries`` bounds the *combined* size of the totals and
        estimates views; each insert evicts from its own view, counting the
        sibling view's ``other_rows`` against the budget.

        A runaway series — one whose bucket alone exceeds the budget left by
        the sibling view — is dropped directly.  It is necessarily the
        most-recently-used bucket (only an insert can push a bucket over,
        and inserts touch their bucket first), and evicting LRU-first would
        flush every *fitting* series' perfectly good rows before reaching
        it, leaving the cache cold for everyone because of one oversized
        workload.
        """
        budget = self.max_entries - other_rows
        if rows > budget and store:
            recent = next(reversed(store))
            if len(store[recent]) > budget:
                dropped = store.pop(recent)
                rows -= len(dropped)
        while rows > budget and len(store) > 1:
            _, dropped = store.popitem(last=False)
            rows -= len(dropped)
        if rows > budget and store:
            # The sibling view alone exceeds the whole bound: this view
            # cannot fit any bucket until the sibling shrinks on its own
            # next insert.
            _, dropped = store.popitem(last=False)
            rows -= len(dropped)
        return rows

    def _probe_totals(
        self,
        bucket: dict[bytes, float],
        keys: list[bytes],
        out: np.ndarray,
        offset: int,
    ) -> list[int]:
        """Fill ``out[offset:]`` from the bucket; return the missing rows."""
        missing: list[int] = []
        for i, key in enumerate(keys):
            total = bucket.get(key)
            if total is None:
                missing.append(i)
            else:
                out[offset + i] = total
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return missing

    def totals(
        self, steps: Sequence[StepCost], ratio_matrix: ArrayLike
    ) -> np.ndarray:
        """Per-row ``total_s`` of the batch, reusing previously seen rows."""
        return self.totals_mixed([(steps, ratio_matrix)])

    def totals_mixed(self, segments: Sequence[Segment]) -> np.ndarray:
        """Per-row totals for rows of *different* step series, in one call.

        Each ``(steps, ratio_matrix)`` segment's rows are keyed under that
        segment's own fingerprint (per-row identity, exactly as if
        :meth:`totals` had been called per segment — hits, misses and LRU
        recency account identically), but all missing rows across every
        fingerprint are evaluated by a single :func:`batch_totals_mixed`
        engine invocation.  Returns the concatenated totals in segment
        order.
        """
        prepared: list[
            tuple[Sequence[StepCost], np.ndarray, dict[bytes, float], list[bytes]]
        ] = []
        total_rows = 0
        for steps, ratio_matrix in segments:
            matrix = as_ratio_matrix(ratio_matrix, len(steps))
            bucket = self._touch(self._totals, steps_fingerprint(steps))
            keys = [row.tobytes() for row in matrix]
            prepared.append((steps, matrix, bucket, keys))
            total_rows += matrix.shape[0]

        out = np.empty(total_rows, dtype=np.float64)
        missing_segments: list[Segment] = []
        backfill: list[tuple[dict[bytes, float], list[bytes], list[int], int]] = []
        added = 0
        offset = 0
        for steps, matrix, bucket, keys in prepared:
            missing = self._probe_totals(bucket, keys, out, offset)
            if missing:
                missing_segments.append((steps, matrix[missing]))
                backfill.append((bucket, keys, missing, offset))
            offset += matrix.shape[0]

        if missing_segments:
            fresh = batch_totals_mixed(missing_segments)
            pos = 0
            for bucket, keys, missing, offset in backfill:
                slice_totals = fresh[pos : pos + len(missing)].tolist()
                pos += len(missing)
                before = len(bucket)
                for i, total in zip(missing, slice_totals):
                    out[offset + i] = total
                    bucket[keys[i]] = total
                added += len(bucket) - before
        if added:
            self._total_rows = self._evict(
                self._totals, self._total_rows + added, self._estimate_rows
            )
        return out

    def estimate(self, steps: Sequence[StepCost], ratios: Sequence[float]) -> SeriesEstimate:
        """Full scalar estimate for one ratio vector, cached.

        Returns a fresh copy per call: :class:`SeriesEstimate` carries mutable
        lists, and handing out the stored instance would let one caller's
        in-place edits corrupt every later hit for the same key.
        """
        key = as_ratio_matrix(list(ratios), len(steps)).tobytes()
        bucket = self._touch(self._estimates, steps_fingerprint(steps))
        cached = bucket.get(key)
        if cached is not None:
            self.hits += 1
            return cached.copy()
        self.misses += 1
        estimate = estimate_series(steps, list(ratios))
        bucket[key] = estimate
        self._estimate_rows = self._evict(
            self._estimates, self._estimate_rows + 1, self._total_rows
        )
        return estimate.copy()

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        return self._total_rows + self._estimate_rows

    def fingerprints(self) -> list[Fingerprint]:
        """Cached step-series fingerprints, least recently used first."""
        order = list(self._totals)
        order.extend(fp for fp in self._estimates if fp not in self._totals)
        return order

    def clear(self) -> None:
        self._totals.clear()
        self._estimates.clear()
        self._total_rows = 0
        self._estimate_rows = 0
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, hit_rate={self.hit_rate:.1%})"
        )


class SharedEstimateCache(EstimateCache):
    """A thread-safe :class:`EstimateCache` for concurrent planning traffic.

    Every public operation (lookups, insertions, hit/miss accounting, clears)
    runs under one re-entrant lock, so the plan service and any number of
    planner threads can hammer a single instance without losing counter
    updates or corrupting the LRU order.  The lock is coarse on purpose: the
    guarded work is a dict scan plus one vectorized engine call, and a coarse
    section keeps ``hits + misses`` exactly equal to the number of rows ever
    requested — the property the concurrency tests pin down.
    """

    def __init__(self, max_entries: int = 500_000) -> None:
        super().__init__(max_entries=max_entries)
        self._lock = make_lock("estimate-cache", reentrant=True)

    def totals_mixed(self, segments: Sequence[Segment]) -> np.ndarray:
        with self._lock:
            return super().totals_mixed(segments)

    def estimate(self, steps: Sequence[StepCost], ratios: Sequence[float]) -> SeriesEstimate:
        with self._lock:
            return super().estimate(steps, ratios)

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def __len__(self) -> int:
        with self._lock:
            return super().__len__()

    def stats(self) -> dict[str, float | int]:
        """Consistent snapshot of the cache counters."""
        with self._lock:
            return {
                "entries": super().__len__(),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
            }

    @property
    def hit_rate(self) -> float:
        # The base property reads two counters; unlocked, a concurrent
        # ``estimate`` between the two reads can yield a rate > 1.0.
        with self._lock:
            return super().hit_rate

    def fingerprints(self) -> list[Fingerprint]:
        with self._lock:
            return super().fingerprints()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return super().__repr__()


#: Lazily created process-wide cache shared by planners, optimisers and the
#: plan service, so repeated planning of similar workloads warms up across
#: call sites instead of each caller paying for a private throwaway cache.
_SHARED_CACHE: SharedEstimateCache | None = None
_SHARED_CACHE_LOCK = make_lock("shared-estimate-cache-init")

#: Default bound of the process-wide cache; smaller than a private cache's
#: default because it lives for the whole process.
SHARED_CACHE_MAX_ENTRIES = 262_144


def shared_estimate_cache() -> SharedEstimateCache:
    """The process-wide :class:`SharedEstimateCache` (created on first use)."""
    global _SHARED_CACHE
    with _SHARED_CACHE_LOCK:
        if _SHARED_CACHE is None:
            _SHARED_CACHE = SharedEstimateCache(max_entries=SHARED_CACHE_MAX_ENTRIES)
        return _SHARED_CACHE


def reset_shared_estimate_cache() -> SharedEstimateCache:
    """Replace the process-wide cache with a fresh one (mainly for tests)."""
    global _SHARED_CACHE
    with _SHARED_CACHE_LOCK:
        _SHARED_CACHE = SharedEstimateCache(max_entries=SHARED_CACHE_MAX_ENTRIES)
        return _SHARED_CACHE


def _reset_shared_cache_after_fork() -> None:
    # A forked child inherits the singleton and its init lock as raw memory:
    # the lock may be held by a parent thread that no longer exists, and the
    # cache's own lock likewise.  Dropping both makes first use in the child
    # rebuild a private cache instead of deadlocking on ghosts.
    global _SHARED_CACHE, _SHARED_CACHE_LOCK
    _SHARED_CACHE_LOCK = make_lock("shared-estimate-cache-init")
    _SHARED_CACHE = None


os.register_at_fork(after_in_child=_reset_shared_cache_after_fork)
