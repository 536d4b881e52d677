"""The multi-query plan service (ROADMAP: service layer over the batch engine).

:class:`PlanService` answers many optimisation/what-if requests against the
abstract cost model at once.  ``plan_many`` turns a batch of N requests into
~one vectorized engine invocation per *round*, regardless of how many step
series the batch mixes:

1. **Dedup** — requests with an identical task key (steps fingerprint,
   scheme, delta, what-if ratios) are solved once and share the answer.
2. **Mix** — every grid-shaped task contributes the exact candidate matrix
   its optimiser scans (the DD delta grid, OL's 0/1 enumeration) and every
   PL task contributes the next segment of its coordinate descent
   (:func:`~repro.costmodel.optimizer.pl_descent_plan`).  All segments of a
   round — across *different* fingerprints — are evaluated by a single
   mixed-series pass with per-row coefficient vectors: the grid round goes
   through ``cache.totals_mixed`` (a row that another task key already
   scanned is a per-row hit), the descent rounds through the raw
   :func:`batch_totals_mixed` (descent rows rarely repeat; lockstep
   batching, not memoisation, is the PL win).  PL descents advance in
   lockstep until the last one converges.
3. **Solve** — grid-shaped tasks pick their answer straight from their
   mixed slice; PL tasks take their descent plan's result; WHAT-IF/CPU/GPU
   answers are one cached scalar estimate each.  Every answer is
   bit-identical to calling ``optimize_scheme`` per request, whose ratios in
   turn equal the scalar ``SeriesEvaluator(use_batch=False)`` reference.

Before step 2, ``plan_many`` looks every task up in the service's own
**answer cache**: a bounded LRU (:data:`ANSWER_CACHE_ENTRIES`) from task key
to the answer's ratios and estimate.  A plan is a pure function of its task
key, so an entry never needs invalidating; only unknown tasks reach the
engine, and a known one is answered with ``evaluations=0``, like a dedup
sibling.  The store lives in memory, per service (so per server worker), and
nothing persists.

The row cache defaults to the process-wide
:func:`~repro.costmodel.batch.shared_estimate_cache`, so planner traffic
outside the service keeps warming the same store.  With that default (or
any :class:`SharedEstimateCache`) every entry point is thread-safe: the row
cache serialises its own mutations and the answer cache and the service's
counters take a private lock, so concurrent ``plan`` calls from a thread
pool return exactly what the single-threaded path would.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Any, Iterable, Sequence

import numpy as np

from ..costmodel.abstract import SeriesEstimate, StepCost
from ..costmodel.batch import EstimateCache, batch_totals_mixed, shared_estimate_cache
from ..costmodel.optimizer import (
    OL_ENUMERATION_LIMIT,
    OptimizationResult,
    SeriesEvaluator,
    dd_candidate_matrix,
    ol_candidate_matrix,
    optimize_scheme,
    pl_descent_plan,
)
from ..locking import make_lock
from .api import WHAT_IF, PlanRequest, PlanResponse, TaskKey, WorkloadError

__all__ = ["ANSWER_CACHE_ENTRIES", "PlanService", "dedup_tasks"]

#: Answers one service keeps, least recently used out first.  An answer
#: holds about 3 KB, so the store stays near 3 MB per service.
ANSWER_CACHE_ENTRIES = 1024


def dedup_tasks(batch: Sequence[PlanRequest]) -> "OrderedDict[TaskKey, PlanRequest]":
    """Collapse requests with identical task keys into one task each.

    The first request with a given key represents the task; every sibling
    shares its answer.
    """
    tasks: OrderedDict[TaskKey, PlanRequest] = OrderedDict()
    for request in batch:
        tasks.setdefault(request.task_key, request)
    return tasks


class PlanService:
    """Serve batches of cost-model planning requests off one shared cache.

    ``cache`` defaults to the process-wide thread-safe
    :func:`shared_estimate_cache`.  The service is only as thread-safe as
    the cache it is given: pass a :class:`SharedEstimateCache` (or keep the
    default) when calling ``plan``/``plan_many`` from multiple threads — a
    plain :class:`EstimateCache` is fine for single-threaded use only.

    Every batch stacks the candidate rows of *all* its tasks — across
    different step series — into one mixed-series engine call per round.
    Answers are kept in a bounded LRU keyed by task key, so a question the
    service answered recently does not reach the engine again.
    """

    def __init__(self, cache: EstimateCache | None = None) -> None:
        self.cache = cache if cache is not None else shared_estimate_cache()
        self._lock = make_lock("plan-service")
        self._answers: OrderedDict[TaskKey, tuple[list[float], SeriesEstimate]] = (
            OrderedDict()
        )
        self.answer_hits = 0
        self.requests_served = 0
        self.tasks_solved = 0
        self.requests_deduplicated = 0
        self.mixed_engine_calls = 0

    # ------------------------------------------------------------------
    def plan(self, request: PlanRequest) -> PlanResponse:
        """Answer one request (still batched through the shared cache)."""
        return self.plan_many([request])[0]

    def has_answer(self, request: PlanRequest) -> bool:
        """Whether the answer cache holds ``request``'s answer.

        A hit also becomes the most recently used entry, so a ``plan_many``
        call right after the probe finds it still there.
        """
        key = request.task_key
        with self._lock:
            if key not in self._answers:
                return False
            self._answers.move_to_end(key)
            return True

    def plan_many(self, requests: Iterable[PlanRequest]) -> list[PlanResponse]:
        """Answer a batch of requests; one response per request, in order."""
        batch = list(requests)
        for request in batch:
            if not isinstance(request, PlanRequest):
                raise WorkloadError(
                    f"expected PlanRequest, got {type(request).__name__}"
                )
        if not batch:
            return []

        # 1. Dedup identical task keys and remember how many requests
        #    share each task.
        tasks = dedup_tasks(batch)
        group_sizes = Counter(request.task_key for request in batch)

        # Known answers come from the answer cache; only the rest are solved.
        known: dict[TaskKey, tuple[list[float], SeriesEstimate]] = {}
        with self._lock:
            for key in tasks:
                answer = self._answers.get(key)
                if answer is not None:
                    self._answers.move_to_end(key)
                    known[key] = answer
        unknown = OrderedDict(
            (key, task) for key, task in tasks.items() if key not in known
        )

        # 2./3. Evaluate and solve every unique unknown task.
        solved, engine_calls = self._solve_mixed(unknown)

        responses: list[PlanResponse] = []
        charged: set[TaskKey] = set()
        for request in batch:
            key = request.task_key
            if key in known:
                ratios, estimate = known[key]
                evaluations = 0
            else:
                result = solved[key]
                ratios, estimate = result.ratios, result.estimate
                evaluations = 0 if key in charged else result.evaluations
                charged.add(key)
            responses.append(
                PlanResponse(
                    request_id=request.request_id,
                    scheme=request.scheme,
                    ratios=list(ratios),
                    estimate=estimate.copy(),
                    evaluations=evaluations,
                    group_size=group_sizes[key],
                )
            )

        with self._lock:
            for key, result in solved.items():
                self._answers[key] = (result.ratios, result.estimate)
                self._answers.move_to_end(key)
            while len(self._answers) > ANSWER_CACHE_ENTRIES:
                self._answers.popitem(last=False)
            self.answer_hits += len(known)
            self.requests_served += len(batch)
            self.tasks_solved += len(unknown)
            self.requests_deduplicated += len(batch) - len(tasks)
            self.mixed_engine_calls += engine_calls
        return responses

    # ------------------------------------------------------------------
    def _solve_mixed(
        self, tasks: "OrderedDict[TaskKey, PlanRequest]"
    ) -> tuple[dict[tuple, OptimizationResult], int]:
        """Answer every unique task off lockstep mixed-series evaluation.

        Round 0 stacks the DD/OL candidate grids of every grid-shaped task
        (across all fingerprints) into one cached mixed call; each descent
        round stacks the still-active PL tasks' next segments into one raw
        mixed call.  The engine-call count is therefore ``1 + (descent
        segments of the slowest PL task)`` instead of one per fingerprint
        plus several per PL task.
        """
        grid_tasks: list[tuple[TaskKey, PlanRequest, np.ndarray]] = []
        plans: dict[tuple, Any] = {}
        pending: "OrderedDict[TaskKey, np.ndarray]" = OrderedDict()
        rows_charged: dict[tuple, int] = {}
        for key, task in tasks.items():
            matrix = self._candidate_matrix(task)
            if matrix is not None and matrix.size:
                grid_tasks.append((key, task, matrix))
            elif task.scheme == "PL":
                plan = pl_descent_plan(list(task.steps), task.delta)
                first_matrix = next(plan)
                plans[key] = plan
                pending[key] = first_matrix
                rows_charged[key] = int(first_matrix.shape[0])

        engine_calls = 0

        # Round 0: every grid-shaped task's candidate matrix — across all
        # fingerprints — in one *cached* mixed call, so a replayed workload
        # is served from per-row hits instead of the engine.
        grid_totals: dict[tuple, np.ndarray] = {}
        if grid_tasks:
            totals = self.cache.totals_mixed(
                [(task.steps, matrix) for _, task, matrix in grid_tasks]
            )
            engine_calls += 1
            offset = 0
            for key, _, matrix in grid_tasks:
                grid_totals[key] = totals[offset : offset + matrix.shape[0]]
                offset += matrix.shape[0]

        # Descent rounds: all still-active PL tasks' next segments in one
        # *raw* mixed call per round.  Descent rows rarely repeat, so keying
        # them through the cache costs more than the vectorized recompute —
        # the PL win here is lockstep batching (and request dedup), not
        # memoisation.
        descent_results: dict[tuple, tuple[list[float], dict]] = {}
        while pending:
            segments: list[tuple[tuple[StepCost, ...], np.ndarray]] = [
                (tasks[key].steps, matrix) for key, matrix in pending.items()
            ]
            totals = batch_totals_mixed(segments)
            engine_calls += 1

            offset = 0
            still_pending: "OrderedDict[TaskKey, np.ndarray]" = OrderedDict()
            for key, matrix in pending.items():
                block = totals[offset : offset + matrix.shape[0]]
                offset += matrix.shape[0]
                try:
                    next_matrix = plans[key].send(block)
                except StopIteration as stop:
                    descent_results[key] = stop.value
                else:
                    still_pending[key] = next_matrix
                    rows_charged[key] += int(next_matrix.shape[0])
            pending = still_pending

        answers: dict[tuple, OptimizationResult] = {}
        for key, task, matrix in grid_tasks:
            # First minimum of the slice, exactly like np.argmin over the
            # optimiser's own batch.
            ratios = matrix[int(np.argmin(grid_totals[key]))].tolist()
            answers[key] = OptimizationResult(
                ratios=ratios,
                estimate=self.cache.estimate(task.steps, ratios),
                evaluations=int(matrix.shape[0]),
                scheme=task.scheme,
            )
        for key, (ratios, stats) in descent_results.items():
            task = tasks[key]
            answers[key] = OptimizationResult(
                ratios=ratios,
                estimate=self.cache.estimate(task.steps, ratios),
                evaluations=rows_charged[key],
                scheme="PL",
                stats=stats,
            )
        for key, task in tasks.items():
            if key not in answers:  # WHAT-IF, CPU/GPU, OL beyond enumeration
                answers[key] = self._solve(task)
        return answers, engine_calls

    # ------------------------------------------------------------------
    def _candidate_matrix(self, task: PlanRequest) -> np.ndarray | None:
        """The task's up-front candidate ratio vectors, as an (m, n) matrix.

        These are exactly the rows the task's solver scans (built by the
        optimiser module's own candidate builders, so they cannot drift from
        ``optimize_dd``/``optimize_ol``), letting one mixed engine pass pay
        for every grid-shaped task of the batch.  Tasks whose answer does
        not read a totals grid return ``None``: PL contributes its descent
        segments round by round instead, and the WHAT-IF/CPU/GPU answers
        need one full scalar estimate, not grid totals.
        """
        n = len(task.steps)
        if task.scheme == "DD":
            return dd_candidate_matrix(n, task.delta)
        if task.scheme == "OL" and n <= OL_ENUMERATION_LIMIT:
            return ol_candidate_matrix(n)
        return None

    def _solve(self, task: PlanRequest) -> OptimizationResult:
        """A task no mixed round answers: WHAT-IF, CPU/GPU, or OL beyond
        the enumeration limit; bit-identical to ``optimize_scheme``."""
        if task.scheme == WHAT_IF:
            ratios = list(task.ratios or ())
            estimate = self.cache.estimate(task.steps, ratios)
            return OptimizationResult(
                ratios=ratios, estimate=estimate, evaluations=1, scheme=WHAT_IF
            )
        evaluator = SeriesEvaluator(task.steps, cache=self.cache)
        return optimize_scheme(task.scheme, task.steps, task.delta, evaluator=evaluator)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Service counters plus consistent answer- and row-cache snapshots."""
        cache_stats = (
            self.cache.stats()
            if hasattr(self.cache, "stats")
            else {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
            }
        )
        with self._lock:
            return {
                "requests_served": self.requests_served,
                "tasks_solved": self.tasks_solved,
                "requests_deduplicated": self.requests_deduplicated,
                "mixed_engine_calls": self.mixed_engine_calls,
                "answers": {
                    "entries": len(self._answers),
                    "max_entries": ANSWER_CACHE_ENTRIES,
                    "hits": self.answer_hits,
                },
                "cache": cache_stats,
            }
