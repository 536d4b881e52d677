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

The scalar :func:`estimate_series` remains the reference implementation; the
batch engine reproduces its floating-point operation order (sequential
cumulative sums, identical expression shapes), so per-row totals agree with
the scalar path to well below 1e-12 and the optimisers built on top return
identical ratio choices.

:class:`EstimateCache` memoises per-row totals and full scalar estimates,
keyed on a fingerprint of the calibrated steps plus the quantised ratio
vector, so the planner and the ``experiments/`` figures reuse identical
evaluations across schemes and figures instead of re-running the engine.
"""

from __future__ import annotations

# repro: kernel
import os
import threading
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
    "reset_shared_estimate_cache",
    "shared_estimate_cache",
    "steps_fingerprint",
]


def as_ratio_matrix(
    ratio_matrix: ArrayLike, n_steps: int, validate: bool = True
) -> np.ndarray:
    """Validate and normalise candidate ratios to an ``(m, n_steps)`` matrix.

    A single ratio vector is promoted to a one-row matrix.  Raises
    :class:`CostModelError` on shape mismatches or ratios outside [0, 1],
    mirroring the scalar path's validation; ``validate=False`` skips the
    range scan for hot paths whose matrices come from known-valid grids.
    """
    matrix = np.asarray(ratio_matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if not validate:
        return matrix
    if matrix.ndim != 2:
        raise CostModelError(
            f"ratio matrix must be 1- or 2-dimensional, got shape {matrix.shape}"
        )
    if matrix.shape[1] != n_steps:
        raise CostModelError(
            f"got {matrix.shape[1]} ratios per row for {n_steps} steps"
        )
    if matrix.size and (matrix.min() < 0.0 or matrix.max() > 1.0):
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


#: Memoised per-step coefficient arrays, keyed on the steps fingerprint.  The
#: optimisers evaluate the same calibrated series thousands of times; rebuilding
#: four small arrays per batch call is measurable at ~50-row batch sizes.
_COEFFICIENT_CACHE: dict[
    tuple, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
] = {}
_COEFFICIENT_CACHE_MAX = 256


def _step_coefficients(
    steps: Sequence[StepCost],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cpu_unit*n_tuples, gpu_unit*n_tuples, n_tuples, intermediate_bpt)."""
    key = steps_fingerprint(steps)
    cached = _COEFFICIENT_CACHE.get(key)
    if cached is not None:
        return cached
    n_tuples = np.array([s.n_tuples for s in steps], dtype=np.float64)
    cpu_coeff = np.array([s.cpu_unit_s for s in steps], dtype=np.float64) * n_tuples
    gpu_coeff = np.array([s.gpu_unit_s for s in steps], dtype=np.float64) * n_tuples
    inter_bpt = np.array(
        [s.intermediate_bytes_per_tuple for s in steps], dtype=np.float64
    )
    if len(_COEFFICIENT_CACHE) >= _COEFFICIENT_CACHE_MAX:
        _COEFFICIENT_CACHE.clear()
    coefficients = (cpu_coeff, gpu_coeff, n_tuples, inter_bpt)
    _COEFFICIENT_CACHE[key] = coefficients
    return coefficients


class _TotalsWorkspace:
    """Grow-only scratch buffers behind :func:`_stacked_totals`.

    The inner kernel used to allocate ~15 temporaries per call; at 64-request
    bursts the allocator traffic of those temporaries, not the call overhead,
    dominates the bill.  Every intermediate now lands in a preallocated
    ``out=`` buffer sliced from this workspace.  Buffers only ever grow (to
    the largest ``(m, n)`` seen), so alternating batch shapes — the descent
    rounds shrink every round — stop allocating after the first pass.
    """

    def __init__(self) -> None:
        self.rows = 0
        self.cols = 0
        self.full: list[np.ndarray] = []
        self.bools: list[np.ndarray] = []
        self.vecs: list[np.ndarray] = []

    def reserve(self, rows: int, cols: int) -> None:
        if rows > self.rows or cols > self.cols:
            self.rows = max(rows, self.rows)
            self.cols = max(cols, self.cols)
            shape = (self.rows, self.cols)
            self.full = [np.empty(shape, dtype=np.float64) for _ in range(6)]
            self.bools = [np.empty(shape, dtype=np.bool_) for _ in range(2)]
            self.vecs = [np.empty(self.rows, dtype=np.float64) for _ in range(2)]


#: Workspaces are per-thread: the raw engine is reachable outside the shared
#: cache's lock (the service's descent rounds call it directly), so two
#: planner threads must never scribble into the same scratch buffers.
_WORKSPACE = threading.local()


def _stacked_totals(
    R: np.ndarray, cpu_coeff: np.ndarray, gpu_coeff: np.ndarray
) -> np.ndarray:
    """Eq. 1 totals for a ratio matrix against per-step coefficient arrays.

    ``cpu_coeff``/``gpu_coeff`` are either length-``n`` vectors (every row
    belongs to the same step series, the :func:`batch_totals` case) or full
    ``(m, n)`` matrices carrying one coefficient vector per row (the mixed
    case); the broadcasted arithmetic — and its floating-point operation
    order — is identical either way.

    All intermediates go through per-thread preallocated ``out=`` buffers;
    only the returned totals vector is freshly allocated.  Every rewritten
    expression keeps the reference operation order (the same elementwise ops
    on the same inputs), so totals stay bit-identical to the temporary-heavy
    formulation the Hypothesis parity suite was written against.
    """
    m, n = R.shape
    ws: _TotalsWorkspace | None = getattr(_WORKSPACE, "totals", None)
    if ws is None:
        ws = _WORKSPACE.totals = _TotalsWorkspace()
    ws.reserve(m, n)

    cpu_cum = ws.full[0][:m, :n]
    gpu_step = ws.full[1][:m, :n]
    gpu_cum = ws.full[2][:m, :n]
    one_minus = ws.full[3][:m, :n]

    np.multiply(cpu_coeff, R, out=cpu_cum)  # Eq. 2 per-step CPU times ...
    np.cumsum(cpu_cum, axis=1, out=cpu_cum)  # ... accumulated in place
    np.subtract(1.0, R, out=one_minus)
    np.multiply(gpu_coeff, one_minus, out=gpu_step)  # Eq. 3 per-step GPU times
    np.cumsum(gpu_step, axis=1, out=gpu_cum)

    if n > 1:
        k = n - 1
        r_prev, r_cur = R[:, :k], R[:, 1:]
        om_prev, om_cur = one_minus[:, :k], one_minus[:, 1:]
        wait = ws.full[4][:m, :k]
        work = ws.full[5][:m, :k]
        mask = ws.bools[0][:m, :k]
        off = ws.bools[1][:m, :k]
        # The divisions are only meaningful inside their masks (where the
        # denominators are strictly positive); the masked-out lanes may
        # produce inf/nan and are zeroed below.
        with np.errstate(divide="ignore", invalid="ignore"):
            # Eq. 4: the CPU waits for GPU output of step i-1.
            np.multiply(gpu_step[:, :k], om_cur, out=work)
            np.divide(work, om_prev, out=work)  # not_pipelined
            np.subtract(gpu_cum[:, :k], work, out=wait)
            np.subtract(wait, cpu_cum[:, 1:], out=wait)  # cpu_wait
            # Eq. 5: the GPU waits for CPU output of step i-1.
            np.multiply(gpu_step[:, 1:], om_prev, out=work)
            np.divide(work, om_cur, out=work)  # pipelined_tail
            np.subtract(gpu_cum[:, 1:], work, out=work)
            np.subtract(cpu_cum[:, :k], work, out=work)  # gpu_wait
        # cpu_delay = where(r_cur > r_prev, max(cpu_wait, 0), 0): clamp in
        # place, then zero the masked-out lanes (nan comparisons are False,
        # so nan lanes are zeroed exactly like np.where's else branch).  The
        # scalar path's delay vectors lead with a structural 0.0 for step 0;
        # adding 0 first leaves the sequential accumulation identical.
        np.maximum(wait, 0.0, out=wait)
        np.greater(r_cur, r_prev, out=mask)
        np.logical_not(mask, out=off)
        wait[off] = 0.0
        np.cumsum(wait, axis=1, out=wait)
        cpu_total = np.add(cpu_cum[:, -1], wait[:, -1], out=ws.vecs[0][:m])
        np.maximum(work, 0.0, out=work)
        np.less(r_cur, r_prev, out=mask)
        np.logical_not(mask, out=off)
        work[off] = 0.0
        np.cumsum(work, axis=1, out=work)
        gpu_total = np.add(gpu_cum[:, -1], work[:, -1], out=ws.vecs[1][:m])
        return np.maximum(cpu_total, gpu_total)
    return np.maximum(cpu_cum[:, -1], gpu_cum[:, -1])


def batch_totals(
    steps: Sequence[StepCost], ratio_matrix: ArrayLike, validate: bool = True
) -> np.ndarray:
    """Per-row ``total_s`` (Eq. 1) without materialising a full BatchEstimate.

    This is the optimiser hot path: identical arithmetic (and floating-point
    operation order) to :func:`estimate_series_batch`, minus the per-step
    output matrices.  ``validate=False`` skips the [0, 1] range scan for
    callers that generate their candidate matrices from known-valid grids.
    """
    n = len(steps)
    R = as_ratio_matrix(ratio_matrix, n, validate=validate)
    if n == 0:
        return np.zeros(R.shape[0], dtype=np.float64)
    cpu_coeff, gpu_coeff, _, _ = _step_coefficients(steps)
    return _stacked_totals(R, cpu_coeff, gpu_coeff)


def mixed_matrices(
    segments: Sequence[tuple[Sequence[StepCost], np.ndarray]],
    validate: bool = True,
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
    matrix and the per-row coefficient matrices for :func:`_stacked_totals`.
    """
    prepared: list[tuple[Sequence[StepCost], np.ndarray]] = []
    m = 0
    n_max = 0
    for steps, ratio_matrix in segments:
        matrix = as_ratio_matrix(ratio_matrix, len(steps), validate=validate)
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


def batch_totals_mixed(
    segments: Sequence[tuple[Sequence[StepCost], np.ndarray]],
    validate: bool = True,
) -> np.ndarray:
    """Per-row ``total_s`` for rows drawn from *different* step series.

    One vectorized pass serves an arbitrary mixture of series fingerprints:
    each ``(steps, ratio_matrix)`` segment is expanded to per-row coefficient
    vectors by :func:`mixed_matrices` and the whole stack is evaluated by the
    same Eq. 1-5 arithmetic as :func:`batch_totals`.  Row ``j`` of the
    returned vector is bit-identical to the corresponding row of
    ``batch_totals(steps_j, ...)`` for the segment it came from — padding
    adds only exact ``+0.0`` terms and masked-off delay lanes.

    Prefer this over per-series :func:`batch_totals` loops whenever one call
    site holds candidate rows for several series at once (the plan service's
    request batches, lockstep coordinate descents): the engine-call count
    drops from one per fingerprint to one total.
    """
    R, cpu_coeff, gpu_coeff = mixed_matrices(segments, validate=validate)
    if R.shape[1] == 0:
        return np.zeros(R.shape[0], dtype=np.float64)
    return _stacked_totals(R, cpu_coeff, gpu_coeff)


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

    # Sequential cumulative sums reproduce the scalar code's left-to-right
    # prefix sums bit for bit (np.cumsum accumulates in order).
    cpu_cum = np.cumsum(cpu_step, axis=1)
    gpu_cum = np.cumsum(gpu_step, axis=1)

    cpu_delay = np.zeros_like(R)
    gpu_delay = np.zeros_like(R)
    intermediate = np.zeros(m, dtype=np.float64)
    if n > 1:
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

        moved_tuples = np.abs(r_cur - r_prev) * n_tuples[1:]
        intermediate = np.cumsum(moved_tuples * inter_bpt[1:], axis=1)[:, -1]

    cpu_total = cpu_cum[:, -1] + np.cumsum(cpu_delay, axis=1)[:, -1]
    gpu_total = gpu_cum[:, -1] + np.cumsum(gpu_delay, axis=1)[:, -1]

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

    Keys combine :func:`steps_fingerprint` with the ratio vector quantised to
    ``decimals`` decimal places (the optimiser grids and Monte Carlo draws
    are already exact at far coarser quanta, so quantisation never merges
    distinct candidates in practice).  Two views are cached independently:

    * :meth:`totals` — per-row ``total_s`` for a whole ratio matrix; missing
      rows are evaluated in one :func:`estimate_series_batch` call.
    * :meth:`totals_mixed` — per-row ``total_s`` for a mixture of step
      series; every row is keyed under its *own* series fingerprint and all
      missing rows (across every fingerprint) are evaluated in one
      :func:`batch_totals_mixed` call.
    * :meth:`estimate` — a full scalar :class:`SeriesEstimate` for one
      vector, evaluated with the reference :func:`estimate_series`.

    Quantisation can merge two ratio vectors that differ beyond ``decimals``
    places into one rounded key, so every stored entry also carries the
    exact (unrounded) row bytes; a lookup whose exact bytes disagree with
    the stored ones is treated as a miss and recomputed rather than served
    a neighbour's total.

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

    def __init__(self, max_entries: int = 500_000, decimals: int = 12) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.decimals = decimals
        #: fingerprint -> {quantised row bytes -> (exact row bytes, total
        #: seconds)}, LRU-ordered by fingerprint access.
        self._totals: OrderedDict[
            Fingerprint, dict[bytes, tuple[bytes, float]]
        ] = OrderedDict()
        self._estimates: OrderedDict[
            Fingerprint, dict[bytes, tuple[bytes, SeriesEstimate]]
        ] = OrderedDict()
        self._total_rows = 0
        self._estimate_rows = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _row_keys(self, matrix: np.ndarray) -> list[tuple[bytes, bytes]]:
        """(quantised key, exact bytes) per row of the matrix.

        The quantised key addresses the bucket; the exact bytes are stored
        alongside each entry and re-verified on every hit, so two vectors
        that collide at ``decimals`` places can never alias each other's
        cached totals.
        """
        quantised = np.round(matrix, self.decimals)
        return [
            (rounded.tobytes(), exact.tobytes())
            for rounded, exact in zip(quantised, matrix)
        ]

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
        bucket: dict[bytes, tuple[bytes, float]],
        keys: list[tuple[bytes, bytes]],
        out: np.ndarray,
        offset: int,
    ) -> list[int]:
        """Fill ``out[offset:]`` from the bucket; return the missing rows."""
        missing: list[int] = []
        for i, (key, exact) in enumerate(keys):
            cached = bucket.get(key)
            if cached is None or cached[0] != exact:
                missing.append(i)
            else:
                out[offset + i] = cached[1]
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return missing

    def _store_totals(
        self,
        bucket: dict[bytes, tuple[bytes, float]],
        keys: list[tuple[bytes, bytes]],
        rows: list[int],
        totals: list[float],
    ) -> int:
        """Insert freshly computed rows; return how many keys are new."""
        added = 0
        for i, total in zip(rows, totals):
            key, exact = keys[i]
            if key not in bucket:
                added += 1
            bucket[key] = (exact, total)
        return added

    def totals(
        self, steps: Sequence[StepCost], ratio_matrix: ArrayLike
    ) -> np.ndarray:
        """Per-row ``total_s`` of the batch, reusing previously seen rows."""
        matrix = as_ratio_matrix(ratio_matrix, len(steps))
        fingerprint = steps_fingerprint(steps)
        bucket = self._touch(self._totals, fingerprint)
        keys = self._row_keys(matrix)
        out = np.empty(matrix.shape[0], dtype=np.float64)
        missing = self._probe_totals(bucket, keys, out, 0)
        added = 0
        if missing:
            fresh = batch_totals(steps, matrix[missing], validate=False)
            for i, total in zip(missing, fresh.tolist()):
                out[i] = total
            added = self._store_totals(bucket, keys, missing, fresh.tolist())
        if added:
            self._total_rows = self._evict(
                self._totals, self._total_rows + added, self._estimate_rows
            )
        return out

    def totals_mixed(
        self, segments: Sequence[tuple[Sequence[StepCost], np.ndarray]]
    ) -> np.ndarray:
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
            tuple[Sequence[StepCost], np.ndarray, dict, list[tuple[bytes, bytes]]]
        ] = []
        total_rows = 0
        for steps, ratio_matrix in segments:
            matrix = as_ratio_matrix(ratio_matrix, len(steps))
            bucket = self._touch(self._totals, steps_fingerprint(steps))
            prepared.append((steps, matrix, bucket, self._row_keys(matrix)))
            total_rows += matrix.shape[0]

        out = np.empty(total_rows, dtype=np.float64)
        missing_segments: list[tuple[Sequence[StepCost], np.ndarray]] = []
        backfill: list[tuple[dict, list[tuple[bytes, bytes]], list[int], int]] = []
        added = 0
        offset = 0
        for steps, matrix, bucket, keys in prepared:
            missing = self._probe_totals(bucket, keys, out, offset)
            if missing:
                missing_segments.append((steps, matrix[missing]))
                backfill.append((bucket, keys, missing, offset))
            offset += matrix.shape[0]

        if missing_segments:
            fresh = batch_totals_mixed(missing_segments, validate=False)
            pos = 0
            for bucket, keys, missing, offset in backfill:
                slice_totals = fresh[pos : pos + len(missing)].tolist()
                pos += len(missing)
                for i, total in zip(missing, slice_totals):
                    out[offset + i] = total
                added += self._store_totals(bucket, keys, missing, slice_totals)
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
        matrix = as_ratio_matrix(list(ratios), len(steps))
        fingerprint = steps_fingerprint(steps)
        bucket = self._touch(self._estimates, fingerprint)
        key, exact = self._row_keys(matrix)[0]
        cached = bucket.get(key)
        if cached is not None and cached[0] == exact:
            self.hits += 1
            return cached[1].copy()
        self.misses += 1
        estimate = estimate_series(steps, list(ratios))
        added = 0 if key in bucket else 1
        bucket[key] = (exact, estimate)
        self._estimate_rows = self._evict(
            self._estimates, self._estimate_rows + added, self._total_rows
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

    def __init__(self, max_entries: int = 500_000, decimals: int = 12) -> None:
        super().__init__(max_entries=max_entries, decimals=decimals)
        self._lock = make_lock("estimate-cache", reentrant=True)

    def totals(
        self, steps: Sequence[StepCost], ratio_matrix: ArrayLike
    ) -> np.ndarray:
        with self._lock:
            return super().totals(steps, ratio_matrix)

    def totals_mixed(
        self, segments: Sequence[tuple[Sequence[StepCost], np.ndarray]]
    ) -> np.ndarray:
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
