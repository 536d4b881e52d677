"""Workload-ratio optimisation driven by the cost model (Sections 3.2 and 4).

The paper picks the suitable workload ratios by evaluating the cost model on a
grid of candidate ratios with step ``delta = 0.02``.  For DD (one ratio per
step series) and OL (each ratio 0 or 1) the search space is tiny; for PL the
per-step ratios are optimised with an exhaustive grid for short series and
with coordinate descent (initialised from the DD optimum and the per-step OL
preferences) for longer ones, which converges to the same solutions on the
series sizes used in the paper while keeping optimisation time bounded.

All optimisers evaluate their candidates through the vectorized batch engine
(:mod:`repro.costmodel.batch`): the DD grid, the full 2^n OL enumeration, each
PL descent round's candidate columns and the PL exhaustive grid are single
``batch_totals`` (or cached ``EstimateCache.totals``) calls instead of
per-candidate Python evaluations.
The candidate-acceptance logic replays the batched totals in the scalar
reference order, so the chosen ratios (and their estimates) are identical to
the scalar path; ``use_batch=False`` keeps the scalar evaluation loop
available as the reference/benchmark baseline.  Passing an
:class:`~repro.costmodel.batch.EstimateCache` additionally reuses evaluations
across optimiser calls with the same calibrated steps (e.g. PL's internal DD
start after a DD optimisation of the same series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Generator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .abstract import SeriesEstimate, StepCost, estimate_series
from .batch import EstimateCache, as_ratio_matrix, batch_totals, steps_fingerprint

#: Ratio granularity used by the paper.
DEFAULT_DELTA = 0.02
#: PL coordinate descent: at most this many rounds per start vector.
PL_MAX_ROUNDS = 6
#: PL series of at most this many steps get one more start: the best vector
#: of an exhaustive search over a coarse grid of step PL_EXHAUSTIVE_DELTA.
PL_EXHAUSTIVE_LIMIT = 3
PL_EXHAUSTIVE_DELTA = 0.1


class OptimizerError(ValueError):
    """Raised for invalid optimiser configurations."""


def ratio_grid(delta: float = DEFAULT_DELTA) -> np.ndarray:
    """All candidate ratios 0, delta, 2*delta, ... plus the endpoint 1.

    The grid honours the requested spacing even when ``delta`` does not
    divide 1 (e.g. 0.03 yields 0, 0.03, ..., 0.99, 1.0); the endpoint 1.0 is
    always included so the single-device assignments stay reachable.
    """
    if not 0.0 < delta <= 1.0:
        raise OptimizerError("delta must be in (0, 1]")
    grid = np.round(np.arange(0.0, 1.0 + 0.5 * delta, delta), 10)
    if grid[-1] > 1.0:
        grid = grid[:-1]
    if grid[-1] != 1.0:
        grid = np.append(grid, 1.0)
    return grid


#: ``optimize_ol`` enumerates all 2^n assignments up to this series length;
#: longer series fall back to the per-step device preference.
OL_ENUMERATION_LIMIT = 12


def dd_candidate_matrix(n_steps: int, delta: float = DEFAULT_DELTA) -> np.ndarray:
    """The exact ``(len(grid), n_steps)`` candidate matrix ``optimize_dd``
    scans: each delta-grid ratio repeated across every step.

    Exposed so batching layers (the plan service) can prefill precisely the
    rows the optimiser will evaluate, in the same order.
    """
    return np.repeat(ratio_grid(delta)[:, np.newaxis], n_steps, axis=1)


def ol_candidate_matrix(n_steps: int) -> np.ndarray:
    """The exact ``(2**n_steps, n_steps)`` enumeration ``optimize_ol`` scans
    for series up to :data:`OL_ENUMERATION_LIMIT` steps."""
    if n_steps == 0:
        # 2^0 = one empty assignment, matching optimize_dd's degenerate case.
        return np.zeros((1, 0), dtype=np.float64)
    matrix = np.array(list(product((0.0, 1.0), repeat=n_steps)), dtype=np.float64)
    return matrix.reshape(-1, n_steps)


class SeriesEvaluator:
    """Routes candidate evaluations through the batch engine (or scalar loop).

    Counts one evaluation per candidate row so the reported ``evaluations``
    match the historical scalar implementation exactly.  One evaluator can be
    injected into several ``optimize_*`` calls over the same calibrated steps
    (the multi-query plan service does this) so they share a cache and an
    evaluation counter.
    """

    def __init__(
        self,
        steps: Sequence[StepCost],
        cache: EstimateCache | None = None,
        use_batch: bool = True,
    ) -> None:
        self.steps = steps
        self.cache = cache
        self.use_batch = use_batch
        self.evaluations = 0
        #: How many engine invocations (``totals`` calls) were issued — the
        #: quantity the vectorized descent minimises; ``evaluations`` counts
        #: rows, this counts calls.
        self.engine_calls = 0

    def totals(self, ratio_matrix: ArrayLike) -> np.ndarray:
        """``total_s`` per candidate row of the matrix."""
        matrix = as_ratio_matrix(ratio_matrix, len(self.steps))
        self.evaluations += matrix.shape[0]
        self.engine_calls += 1
        if not self.use_batch:
            return np.array(
                [estimate_series(self.steps, row.tolist()).total_s for row in matrix],
                dtype=np.float64,
            )
        if self.cache is not None:
            return self.cache.totals(self.steps, matrix)
        return batch_totals(self.steps, matrix)

    def total(self, ratios: Sequence[float]) -> float:
        return float(self.totals([list(ratios)])[0])

    def estimate(self, ratios: Sequence[float]) -> SeriesEstimate:
        """Full scalar (reference) estimate for a chosen ratio vector."""
        if self.cache is not None:
            return self.cache.estimate(self.steps, list(ratios))
        return estimate_series(self.steps, list(ratios))


def _resolve_evaluator(
    steps: Sequence[StepCost],
    cache: EstimateCache | None,
    use_batch: bool,
    evaluator: SeriesEvaluator | None,
) -> SeriesEvaluator:
    """Use the injected evaluator, or build a private one for this call."""
    if evaluator is None:
        return SeriesEvaluator(steps, cache=cache, use_batch=use_batch)
    if steps_fingerprint(evaluator.steps) != steps_fingerprint(steps):
        raise OptimizerError(
            "injected evaluator was built for a different step series"
        )
    return evaluator


@dataclass
class OptimizationResult:
    """Chosen ratios plus the cost model's estimate for them."""

    ratios: list[float]
    estimate: SeriesEstimate
    evaluations: int = 0
    scheme: str = "PL"
    #: Optimiser-specific bookkeeping (the vectorized PL descent records its
    #: per-start rounds/accepted updates and the engine-call count here).
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.estimate.total_s


# ---------------------------------------------------------------------------
# DD: one ratio shared by every step of the series
# ---------------------------------------------------------------------------
def optimize_dd(
    steps: Sequence[StepCost],
    delta: float = DEFAULT_DELTA,
    cache: EstimateCache | None = None,
    use_batch: bool = True,
    evaluator: SeriesEvaluator | None = None,
) -> OptimizationResult:
    """Best single workload ratio for the whole step series.

    The whole delta grid is evaluated as one batch; ties resolve to the
    smallest ratio, as in a first-strictly-better scan of the grid.
    """
    evaluator = _resolve_evaluator(steps, cache, use_batch, evaluator)
    start = evaluator.evaluations
    matrix = dd_candidate_matrix(len(steps), delta)
    totals = evaluator.totals(matrix)
    ratios = matrix[int(np.argmin(totals))].tolist()
    return OptimizationResult(
        ratios=ratios,
        estimate=evaluator.estimate(ratios),
        evaluations=evaluator.evaluations - start,
        scheme="DD",
    )


def dd_sweep(
    steps: Sequence[StepCost],
    delta: float = DEFAULT_DELTA,
    cache: EstimateCache | None = None,
    evaluator: SeriesEvaluator | None = None,
) -> list[tuple[float, float]]:
    """(ratio, estimated seconds) pairs for the DD ratio sweep (Figure 7)."""
    grid = ratio_grid(delta)
    evaluator = _resolve_evaluator(steps, cache, True, evaluator)
    totals = evaluator.totals(dd_candidate_matrix(len(steps), delta))
    return [(float(r), float(t)) for r, t in zip(grid, totals)]


# ---------------------------------------------------------------------------
# OL: every step runs entirely on one device
# ---------------------------------------------------------------------------
def optimize_ol(
    steps: Sequence[StepCost],
    cache: EstimateCache | None = None,
    use_batch: bool = True,
    evaluator: SeriesEvaluator | None = None,
) -> OptimizationResult:
    """Best 0/1 assignment per step.

    On the coupled architecture the offloading decision per step depends only
    on which device runs the step faster (no PCI-e term), so the optimum is
    found per step; the full 2^n enumeration — one batched evaluation — is
    used for short series to keep the implementation obviously faithful to
    the paper's description.
    """
    n = len(steps)
    evaluator = _resolve_evaluator(steps, cache, use_batch, evaluator)
    start = evaluator.evaluations
    if n <= OL_ENUMERATION_LIMIT:
        assignments = ol_candidate_matrix(n)
        totals = evaluator.totals(assignments)
        ratios = assignments[int(np.argmin(totals))].tolist()
        return OptimizationResult(
            ratios=ratios,
            estimate=evaluator.estimate(ratios),
            evaluations=evaluator.evaluations - start,
            scheme="OL",
        )

    ratios = [0.0 if s.gpu_unit_s <= s.cpu_unit_s else 1.0 for s in steps]
    return OptimizationResult(
        ratios=ratios, estimate=evaluator.estimate(ratios), evaluations=n, scheme="OL"
    )


# ---------------------------------------------------------------------------
# PL: an independent ratio per step
# ---------------------------------------------------------------------------
class _DescentState:
    """One start vector's coordinate descent, advanced segment by segment.

    The scalar reference walks coordinates 0..n-1 per round, re-basing the
    remaining coordinates' trial rows after every accepted update.  This
    state machine replays exactly that decision sequence, but evaluates
    speculatively: :meth:`build_segment` emits the candidate columns of
    *every* remaining coordinate of the round against the current base
    vector, and :meth:`apply` consumes the returned totals in coordinate
    order until the first accepted update — at which point the rest of the
    batch is stale (its rows were built from the pre-update base) and is
    discarded, and the next segment starts from the following coordinate.
    A round with no accepted updates therefore costs exactly one engine
    call, and a round with ``k`` accepts at most ``k + 1``.
    """

    __slots__ = (
        "ratios",
        "current_total",
        "rounds",
        "accepts",
        "done",
        "_grid",
        "_next_coord",
        "_improved",
        "_columns",
        "_segment_start",
    )

    def __init__(self, start: Sequence[float], grid: np.ndarray) -> None:
        self.ratios = [float(np.clip(r, 0.0, 1.0)) for r in start]
        self.current_total: float | None = None
        self.rounds = 1
        self.accepts = 0
        self.done = False
        self._grid = grid
        self._next_coord = 0
        self._improved = False
        self._columns: list[np.ndarray] = []
        self._segment_start = 0

    def prepare_segment(self) -> None:
        """Fix the columns of the next segment against the current base."""
        self._segment_start = self._next_coord
        self._columns = [
            self._grid[self._grid != self.ratios[j]]
            for j in range(self._next_coord, len(self.ratios))
        ]

    def build_segment(self) -> np.ndarray:
        """Trial rows for the remaining coordinates of this round.

        The first segment of a descent leads with the unmodified start
        vector so its ``current_total`` comes out of the same batch (the
        scalar path evaluates it separately before the first round).
        """
        n = len(self.ratios)
        lead = 1 if self.current_total is None else 0
        rows = lead + sum(column.size for column in self._columns)
        trials = np.empty((rows, n), dtype=np.float64)
        trials[:] = self.ratios
        offset = lead
        for k, column in enumerate(self._columns):
            trials[offset : offset + column.size, self._segment_start + k] = column
            offset += column.size
        return trials

    def apply(self, totals: np.ndarray) -> None:
        """Replay the scalar acceptance scan over this segment's totals."""
        n = len(self.ratios)
        offset = 0
        if self.current_total is None:
            self.current_total = float(totals[0])
            offset = 1
        # Per-column minima in one vectorized pass: a column whose minimum
        # cannot beat the strict-improvement threshold is skipped without
        # the per-candidate Python scan (the overwhelmingly common case once
        # the descent approaches convergence).  The scan itself — and with
        # it every tie-break — is unchanged for columns that can improve.
        if self._columns:
            starts = np.empty(len(self._columns), dtype=np.intp)
            position = offset
            for k, column in enumerate(self._columns):
                starts[k] = position
                position += column.size
            minima = np.minimum.reduceat(totals, starts)
        for k, column in enumerate(self._columns):
            j = self._segment_start + k
            block = totals[offset : offset + column.size]
            offset += column.size
            if minima[k] >= self.current_total - 1e-15:
                continue
            best_ratio = self.ratios[j]
            best_time = self.current_total
            for candidate, total in zip(column.tolist(), block.tolist()):
                if total < best_time - 1e-15:
                    best_time = total
                    best_ratio = candidate
            if best_ratio != self.ratios[j]:
                self.ratios[j] = best_ratio
                self.current_total = best_time
                self.accepts += 1
                self._improved = True
                self._next_coord = j + 1
                if self._next_coord >= n:
                    self._finish_round()
                return
        # No accept: the whole rest of the round was evaluated.
        self._next_coord = self._segment_start + len(self._columns)
        if self._next_coord >= n:
            self._finish_round()

    def _finish_round(self) -> None:
        if self._improved and self.rounds < PL_MAX_ROUNDS:
            self.rounds += 1
            self._improved = False
            self._next_coord = 0
        else:
            self.done = True


def pl_descent_plan(
    steps: Sequence[StepCost],
    delta: float = DEFAULT_DELTA,
) -> Generator[np.ndarray, np.ndarray, tuple[list[float], dict[str, Any]]]:
    """The PL optimisation as a resumable evaluation plan (a generator).

    Yields ``(m, n)`` candidate ratio matrices and expects the matching
    length-``m`` ``total_s`` vector to be sent back; returns
    ``(best_ratios, stats)`` via ``StopIteration.value``.  Separating the
    *decision* sequence from the *evaluation* transport this way lets one
    driver answer each yield however it likes — ``optimize_pl`` feeds it
    from a per-series :class:`SeriesEvaluator`, while the multi-query plan
    service advances many plans in lockstep and answers one round of *all*
    of them with a single mixed-series engine call.

    The yields are: the DD start's delta grid, the exhaustive coarse grid
    for short series, then one matrix per descent segment with every live
    start's segment stacked (the per-start descents are independent, so
    they advance in parallel and a converged search costs
    ``max`` — not ``sum`` — of the starts' segment counts).
    """
    n = len(steps)
    if n == 0:
        raise OptimizerError("cannot optimise an empty step series")
    grid = ratio_grid(delta)
    yields = 0

    # Start 1: the DD optimum.
    dd_matrix = dd_candidate_matrix(n, delta)
    totals = yield dd_matrix
    yields += 1
    starts: list[list[float]] = [dd_matrix[int(np.argmin(totals))].tolist()]
    # Start 2: per-step device preference (OL-like).
    starts.append([0.0 if s.gpu_unit_s <= s.cpu_unit_s else 1.0 for s in steps])
    # Start 3: per-step balanced ratio r = gpu/(cpu+gpu) (equal finish times).
    balanced = []
    for s in steps:
        denom = s.cpu_unit_s + s.gpu_unit_s
        balanced.append(float(s.gpu_unit_s / denom) if denom > 0 else 0.5)
    starts.append(balanced)

    if n <= PL_EXHAUSTIVE_LIMIT:
        coarse = ratio_grid(PL_EXHAUSTIVE_DELTA)
        assignments = np.array(list(product(coarse, repeat=n)), dtype=np.float64)
        totals = yield assignments
        yields += 1
        starts.append(assignments[int(np.argmin(totals))].tolist())

    states = [_DescentState(start, grid) for start in starts]
    # Segment memo: the independent starts routinely converge to the same
    # vector, at which point their no-accept verification rounds would
    # re-evaluate identical trial matrices.  A segment is fully determined
    # by (base ratios, first coordinate, lead-row presence), so replaying a
    # previously seen segment's engine totals is exact — pure row dedup.
    seen_segments: dict[tuple, np.ndarray] = {}

    def segment_key(state: _DescentState) -> tuple[object, ...]:
        return (
            tuple(state.ratios),
            state._next_coord,
            state.current_total is None,
        )

    while True:
        pending: dict[tuple, list[_DescentState]] = {}
        for state in states:
            # Serve every memoised segment immediately; a state may chain
            # through several (e.g. re-verifying a vector another start
            # already verified) before needing fresh rows.
            while not state.done:
                key = segment_key(state)
                cached = seen_segments.get(key)
                if cached is None:
                    pending.setdefault(key, []).append(state)
                    break
                state.prepare_segment()
                state.apply(cached)
        if not pending:
            break
        matrices = []
        for group in pending.values():
            group[0].prepare_segment()
            matrices.append(group[0].build_segment())
        stacked = matrices[0] if len(matrices) == 1 else np.vstack(matrices)
        totals = yield stacked
        yields += 1
        offset = 0
        for (key, group), matrix in zip(pending.items(), matrices):
            block = totals[offset : offset + matrix.shape[0]]
            offset += matrix.shape[0]
            seen_segments[key] = block
            for i, state in enumerate(group):
                if i:  # group[0] prepared its columns when building
                    state.prepare_segment()
                state.apply(block)

    # Same first-strictly-better scan over the starts as the scalar path.
    best_ratios: list[float] | None = None
    best_total = float("inf")
    for state in states:
        if best_ratios is None or state.current_total < best_total:
            best_ratios = list(state.ratios)
            best_total = state.current_total
    assert best_ratios is not None
    stats = {
        "engine_yields": yields,
        "starts": len(states),
        "rounds": [state.rounds for state in states],
        "accepts": [state.accepts for state in states],
    }
    return best_ratios, stats


def drive_plan(
    plan: Generator[np.ndarray, np.ndarray, tuple[list[float], dict[str, Any]]],
    totals_fn: Callable[[np.ndarray], np.ndarray],
) -> tuple[list[float], dict[str, Any]]:
    """Run an evaluation plan to completion against one totals callback."""
    try:
        matrix = next(plan)
        while True:
            matrix = plan.send(totals_fn(matrix))
    except StopIteration as stop:
        value: tuple[list[float], dict[str, Any]] = stop.value
        return value


def optimize_pl(
    steps: Sequence[StepCost],
    delta: float = DEFAULT_DELTA,
    cache: EstimateCache | None = None,
    use_batch: bool = True,
    evaluator: SeriesEvaluator | None = None,
) -> OptimizationResult:
    """Per-step ratios minimising the estimated series time.

    Short series (``len(steps) <= PL_EXHAUSTIVE_LIMIT``) are solved with an
    exhaustive coarse grid followed by a fine refinement; longer series use
    coordinate descent over the delta grid from several starting points.

    The batched path drives :func:`pl_descent_plan`: every descent round
    evaluates *all* remaining coordinates' candidate columns (for all live
    starts at once) in a single engine call, re-batching only after an
    accepted update invalidates the speculative rows — so a converged round
    costs one call instead of one per coordinate.  Acceptance replays the
    batched totals in grid order with the per-coordinate loop's
    strict-improvement threshold, so the returned ratios match the
    ``use_batch=False`` reference exactly: the per-coordinate descent (one
    scalar evaluation pass per coordinate per round).  The two paths differ
    in how many *rows* they evaluate (the batched rounds count their
    speculative rows in ``evaluations``), not in any decision they make.
    """
    n = len(steps)
    if n == 0:
        raise OptimizerError("cannot optimise an empty step series")

    evaluator = _resolve_evaluator(steps, cache, use_batch, evaluator)
    start_evaluations = evaluator.evaluations

    if evaluator.use_batch:
        plan = pl_descent_plan(steps, delta)
        best_ratios, stats = drive_plan(plan, evaluator.totals)
        return OptimizationResult(
            ratios=best_ratios,
            estimate=evaluator.estimate(best_ratios),
            evaluations=evaluator.evaluations - start_evaluations,
            scheme="PL",
            stats=stats,
        )

    grid = ratio_grid(delta)
    candidates: list[list[float]] = []
    # Start 1: the DD optimum (counted through the shared evaluator).
    dd = optimize_dd(steps, delta, evaluator=evaluator)
    candidates.append(list(dd.ratios))
    # Start 2: per-step device preference (OL-like).
    candidates.append([0.0 if s.gpu_unit_s <= s.cpu_unit_s else 1.0 for s in steps])
    # Start 3: per-step balanced ratio r = gpu/(cpu+gpu) (equal finish times).
    balanced = []
    for s in steps:
        denom = s.cpu_unit_s + s.gpu_unit_s
        balanced.append(float(s.gpu_unit_s / denom) if denom > 0 else 0.5)
    candidates.append(balanced)

    if n <= PL_EXHAUSTIVE_LIMIT:
        coarse = ratio_grid(PL_EXHAUSTIVE_DELTA)
        assignments = np.array(list(product(coarse, repeat=n)), dtype=np.float64)
        totals = evaluator.totals(assignments)
        candidates.append(assignments[int(np.argmin(totals))].tolist())

    best_ratios: list[float] | None = None
    best_total = float("inf")
    for start in candidates:
        ratios = [float(np.clip(r, 0.0, 1.0)) for r in start]
        current_total = evaluator.total(ratios)
        improved = True
        rounds = 0
        while improved and rounds < PL_MAX_ROUNDS:
            improved = False
            rounds += 1
            for i in range(n):
                column = grid[grid != ratios[i]]
                trials = np.empty((column.size, n), dtype=np.float64)
                trials[:] = ratios
                trials[:, i] = column
                totals = evaluator.totals(trials)
                best_ratio = ratios[i]
                best_time = current_total
                for candidate, total in zip(column.tolist(), totals.tolist()):
                    if total < best_time - 1e-15:
                        best_time = total
                        best_ratio = candidate
                if best_ratio != ratios[i]:
                    ratios[i] = best_ratio
                    current_total = evaluator.total(ratios)
                    improved = True
        if best_ratios is None or current_total < best_total:
            best_ratios = list(ratios)
            best_total = current_total

    assert best_ratios is not None
    return OptimizationResult(
        ratios=best_ratios,
        estimate=evaluator.estimate(best_ratios),
        evaluations=evaluator.evaluations - start_evaluations,
        scheme="PL",
    )


def optimize_scheme(
    scheme: str,
    steps: Sequence[StepCost],
    delta: float = DEFAULT_DELTA,
    cache: EstimateCache | None = None,
    evaluator: SeriesEvaluator | None = None,
) -> OptimizationResult:
    """Dispatch to the optimiser of a named co-processing scheme."""
    scheme = scheme.upper()
    if scheme == "DD":
        return optimize_dd(steps, delta, cache=cache, evaluator=evaluator)
    if scheme == "OL":
        return optimize_ol(steps, cache=cache, evaluator=evaluator)
    if scheme == "PL":
        return optimize_pl(steps, delta, cache=cache, evaluator=evaluator)
    if scheme in ("CPU", "CPU-ONLY", "GPU", "GPU-ONLY"):
        ratios = [1.0 if scheme.startswith("CPU") else 0.0] * len(steps)
        evaluator = _resolve_evaluator(steps, cache, True, evaluator)
        return OptimizationResult(
            ratios, evaluator.estimate(ratios), scheme=scheme[:3]
        )
    raise OptimizerError(f"unknown co-processing scheme {scheme!r}")
