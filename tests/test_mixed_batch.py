"""Mixed-series batch engine + vectorized PL descent: property and
regression suite (ISSUE 3).

Three claims are pinned here, all at bit-exactness rather than tolerance:

* ``batch_totals_mixed`` over any mixture of step series — duplicate
  fingerprints, different series lengths, single-row segments, degenerate
  all-zero/all-one ratio rows — equals per-series ``batch_totals`` row for
  row (the padded lanes only ever add exact ``+0.0`` terms).
* ``EstimateCache.totals_mixed`` keys every row under its own fingerprint
  (hits/misses/LRU account as if ``totals`` had been called per segment)
  and by its exact bytes, so near-equal ratio vectors never alias.
* The vectorized PL coordinate descent returns the same plans and totals as
  the scalar reference path, in at most one engine call per descent round
  plus one per accepted update — and the mixed plan service inherits both
  properties in lockstep: a served plan equals the library call, which
  equals the scalar ``use_batch=False`` reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel import (
    EstimateCache,
    SeriesEvaluator,
    SharedEstimateCache,
    StepCost,
    batch_totals,
    batch_totals_mixed,
    estimate_series,
    mixed_matrices,
    optimize_pl,
    optimize_scheme,
    steps_fingerprint,
)
from repro.service import PlanRequest, PlanService

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TOL = 1e-12


def random_steps(rng: np.random.Generator, n: int) -> tuple[StepCost, ...]:
    return tuple(
        StepCost(
            f"s{i}",
            int(rng.integers(0, 200_000)),
            cpu_unit_s=float(rng.uniform(0.0, 5e-8)),
            gpu_unit_s=float(rng.uniform(0.0, 5e-8)),
            intermediate_bytes_per_tuple=float(rng.uniform(0.0, 16.0)),
        )
        for i in range(n)
    )


def random_mixture(
    seed: int, n_segments: int, pool_size: int
) -> list[tuple[tuple[StepCost, ...], np.ndarray]]:
    """Segments drawing from a small series pool (duplicate fingerprints on
    purpose), with single-row batches and all-zero/all-one rows mixed in."""
    rng = np.random.default_rng(seed)
    pool = [random_steps(rng, int(rng.integers(1, 9))) for _ in range(pool_size)]
    segments = []
    for _ in range(n_segments):
        steps = pool[int(rng.integers(0, pool_size))]
        rows = int(rng.integers(1, 8))
        matrix = rng.uniform(0.0, 1.0, size=(rows, len(steps)))
        for i in range(rows):
            draw = rng.uniform()
            if draw < 0.15:
                matrix[i] = 0.0  # degenerate: everything on the GPU
            elif draw < 0.3:
                matrix[i] = 1.0  # degenerate: everything on the CPU
        segments.append((steps, matrix))
    return segments


class TestMixedBatchEquivalence:
    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
    )
    def test_random_mixtures_bit_match_per_series(self, seed, n_segments, pool):
        segments = random_mixture(seed, n_segments, pool)
        mixed = batch_totals_mixed(segments)
        reference = np.concatenate(
            [batch_totals(list(steps), matrix) for steps, matrix in segments]
        )
        assert np.array_equal(mixed, reference)

    @SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_rows_match_scalar_reference(self, seed):
        segments = random_mixture(seed, 3, 2)
        totals = batch_totals_mixed(segments)
        i = 0
        for steps, matrix in segments:
            for row in matrix:
                assert totals[i] == estimate_series(list(steps), row.tolist()).total_s
                i += 1

    def test_single_row_segments(self):
        rng = np.random.default_rng(3)
        segments = [
            (random_steps(rng, n), rng.uniform(0.0, 1.0, size=(1, n)))
            for n in (1, 4, 8)
        ]
        mixed = batch_totals_mixed(segments)
        for (steps, matrix), total in zip(segments, mixed):
            assert total == batch_totals(list(steps), matrix)[0]

    def test_duplicate_fingerprints_and_duplicate_rows(self):
        rng = np.random.default_rng(4)
        steps = random_steps(rng, 5)
        matrix = rng.uniform(0.0, 1.0, size=(6, 5))
        segments = [(steps, matrix), (steps, matrix[:3])]
        mixed = batch_totals_mixed(segments)
        reference = batch_totals(list(steps), matrix)
        assert np.array_equal(mixed[:6], reference)
        assert np.array_equal(mixed[6:], reference[:3])

    def test_empty_series_segment_contributes_zero_totals(self):
        rng = np.random.default_rng(5)
        steps = random_steps(rng, 4)
        segments = [
            (steps, rng.uniform(0.0, 1.0, size=(2, 4))),
            ((), np.zeros((3, 0))),
        ]
        mixed = batch_totals_mixed(segments)
        assert np.array_equal(mixed[:2], batch_totals(list(steps), segments[0][1]))
        assert np.all(mixed[2:] == 0.0)

    def test_empty_segment_list(self):
        assert batch_totals_mixed([]).shape == (0,)

    def test_zero_row_segment(self):
        rng = np.random.default_rng(6)
        steps = random_steps(rng, 3)
        segments = [
            (steps, np.zeros((0, 3))),
            (steps, rng.uniform(0.0, 1.0, size=(2, 3))),
        ]
        mixed = batch_totals_mixed(segments)
        assert np.array_equal(mixed, batch_totals(list(steps), segments[1][1]))

    def test_validation_on_by_default(self):
        steps = random_steps(np.random.default_rng(7), 2)
        with pytest.raises(Exception):
            batch_totals_mixed([(steps, np.full((1, 2), 1.5))])

    def test_padding_structure(self):
        """Short rows are padded with their last ratio and zero coefficients."""
        rng = np.random.default_rng(8)
        short = random_steps(rng, 2)
        long = random_steps(rng, 5)
        short_matrix = rng.uniform(0.0, 1.0, size=(3, 2))
        long_matrix = rng.uniform(0.0, 1.0, size=(2, 5))
        R, cpu_coeff, gpu_coeff = mixed_matrices(
            [(short, short_matrix), (long, long_matrix)]
        )
        assert R.shape == (5, 5)
        assert np.array_equal(R[:3, :2], short_matrix)
        # Padded ratio columns repeat the last real ratio (no Eq. 4/5 stall).
        for pad_col in range(2, 5):
            assert np.array_equal(R[:3, pad_col], short_matrix[:, 1])
        assert np.all(cpu_coeff[:3, 2:] == 0.0)
        assert np.all(gpu_coeff[:3, 2:] == 0.0)
        assert np.array_equal(R[3:], long_matrix)


class TestCacheTotalsMixed:
    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_per_segment_totals(self, seed, n_segments):
        segments = random_mixture(seed, n_segments, 2)
        mixed_cache = EstimateCache()
        split_cache = EstimateCache()
        mixed = mixed_cache.totals_mixed(segments)
        reference = np.concatenate(
            [split_cache.totals(list(steps), matrix) for steps, matrix in segments]
        )
        assert np.array_equal(mixed, reference)
        total_rows = sum(matrix.shape[0] for _, matrix in segments)
        assert mixed_cache.hits + mixed_cache.misses == total_rows
        assert split_cache.hits + split_cache.misses == total_rows
        # One mixed call probes every segment before inserting anything, so a
        # row duplicated across two segments of the same call misses twice
        # where sequential per-segment calls would hit on the second; the
        # stored entries (and of course the totals) are identical either way.
        assert mixed_cache.misses >= split_cache.misses
        assert len(mixed_cache) == len(split_cache)
        # A replay of the whole mixture is answered without the engine.
        misses = mixed_cache.misses
        replay = mixed_cache.totals_mixed(segments)
        assert np.array_equal(replay, mixed)
        assert mixed_cache.misses == misses

    def test_partial_hits_across_fingerprints(self):
        rng = np.random.default_rng(11)
        a = random_steps(rng, 3)
        b = random_steps(rng, 6)
        matrix_a = rng.uniform(0.0, 1.0, size=(4, 3))
        matrix_b = rng.uniform(0.0, 1.0, size=(5, 6))
        cache = EstimateCache()
        cache.totals(list(a), matrix_a[:2])  # warm up 2 rows (2 misses)
        out = cache.totals_mixed([(a, matrix_a), (b, matrix_b)])
        assert cache.hits == 2
        assert cache.misses == 2 + 2 + 5  # warm-up + a's cold rows + all of b
        assert np.array_equal(out[:4], batch_totals(list(a), matrix_a))
        assert np.array_equal(out[4:], batch_totals(list(b), matrix_b))

    def test_rows_keyed_per_fingerprint_not_per_call(self):
        """Identical ratio rows of different series must not alias."""
        rng = np.random.default_rng(12)
        a = random_steps(rng, 4)
        b = random_steps(rng, 4)
        assert steps_fingerprint(a) != steps_fingerprint(b)
        matrix = rng.uniform(0.0, 1.0, size=(3, 4))
        cache = EstimateCache()
        out = cache.totals_mixed([(a, matrix), (b, matrix)])
        assert np.array_equal(out[:3], batch_totals(list(a), matrix))
        assert np.array_equal(out[3:], batch_totals(list(b), matrix))
        assert cache.misses == 6  # same rows, two fingerprints, no aliasing

    def test_lru_eviction_still_bounded(self):
        rng = np.random.default_rng(13)
        pool = [random_steps(rng, 2) for _ in range(4)]
        cache = EstimateCache(max_entries=10)
        for k in range(4):
            cache.totals_mixed([(pool[k], rng.uniform(0.0, 1.0, size=(6, 2)))])
            assert len(cache) <= 10

    def test_shared_cache_thread_safe_mixed(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(14)
        segments = random_mixture(15, 4, 2)
        cache = SharedEstimateCache()
        reference = np.concatenate(
            [batch_totals(list(steps), matrix) for steps, matrix in segments]
        )

        def worker(_):
            return cache.totals_mixed(segments)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(16)))
        for out in results:
            assert np.array_equal(out, reference)
        total_rows = sum(matrix.shape[0] for _, matrix in segments)
        assert cache.hits + cache.misses == 16 * total_rows
        assert cache.misses == total_rows  # coarse lock: computed exactly once


class TestRoundingCollisionRegression:
    """Near-equal ratios that round to one 12-decimal key must not alias.

    The cache keys every row by its exact float64 bytes, so two vectors
    closer than any rounding quantum get separate entries and the second
    one is computed instead of being served its neighbour's total.
    """

    def test_colliding_rows_get_their_own_totals(self):
        steps = list(random_steps(np.random.default_rng(20), 3))
        base = np.array([[0.5, 0.25, 0.75]])
        nudged = base + 2e-13  # equal to base at 12 decimal places
        assert np.array_equal(np.round(base, 12), np.round(nudged, 12))
        cache = EstimateCache()
        first = cache.totals(steps, base)
        second = cache.totals(steps, nudged)
        assert first[0] == batch_totals(steps, base)[0]
        assert second[0] == batch_totals(steps, nudged)[0]
        assert cache.misses == 2  # the neighbour's total is not served

    def test_colliding_rows_within_one_mixed_call(self):
        steps = list(random_steps(np.random.default_rng(21), 2))
        base = np.array([[0.5, 0.5]])
        nudged = base + 2e-13
        cache = EstimateCache()
        out = cache.totals_mixed([(tuple(steps), np.vstack([base, nudged]))])
        assert out[0] == batch_totals(steps, base)[0]
        assert out[1] == batch_totals(steps, nudged)[0]

    def test_colliding_estimates_recomputed(self):
        steps = list(random_steps(np.random.default_rng(22), 2))
        cache = EstimateCache()
        first = cache.estimate(steps, [0.5, 0.5])
        second = cache.estimate(steps, [0.5 + 2e-13, 0.5])
        assert first.ratios == [0.5, 0.5]
        assert second.ratios == [0.5 + 2e-13, 0.5]
        assert cache.misses == 2

    def test_boundary_crossing_neighbours_stay_distinct_keys(self):
        """Vectors straddling a rounding boundary get distinct keys: still
        correct, just two entries."""
        steps = list(random_steps(np.random.default_rng(23), 1))
        low, high = 0.4999999999994, 0.5000000000006
        assert np.round(low, 12) != np.round(high, 12)
        cache = EstimateCache()
        cache.totals(steps, [[low]])
        cache.totals(steps, [[high]])
        assert cache.misses == 2
        assert len(cache) == 2


#: Seed workloads for the descent regression: the 8-step SHJ-like series of
#: the optimizer benchmark plus assorted shapes that exercise every start.
def seed_workloads() -> list[list[StepCost]]:
    workloads = []
    for seed, n in ((2013, 8), (7, 5), (11, 3), (29, 1), (41, 6)):
        rng = np.random.default_rng(seed)
        workloads.append(
            [
                StepCost(
                    f"s{i}",
                    int(rng.integers(50_000, 250_000)),
                    cpu_unit_s=float(rng.uniform(2e-9, 2e-8)),
                    gpu_unit_s=float(rng.uniform(1e-9, 2e-8)),
                    intermediate_bytes_per_tuple=8.0,
                )
                for i in range(n)
            ]
        )
    return workloads


class TestVectorizedDescentRegression:
    def test_seed_workloads_bit_match_scalar_reference(self):
        for steps in seed_workloads():
            for delta in (0.02, 0.1):
                batched = optimize_pl(steps, delta=delta)
                scalar = optimize_pl(steps, delta=delta, use_batch=False)
                assert batched.ratios == scalar.ratios
                assert batched.total_s == scalar.total_s
                assert batched.estimate.cpu_step_s == scalar.estimate.cpu_step_s
                assert batched.estimate.gpu_delay_s == scalar.estimate.gpu_delay_s

    def test_at_most_one_engine_call_per_descent_round(self):
        """Counter proof: calls ≤ preliminary grids + rounds + accepts.

        Every descent round costs one engine call unless an accepted update
        forces a re-batch of the remaining coordinates — so the call count
        is bounded by one per round plus one per accepted update, across
        the slowest start (starts advance in lockstep).
        """
        for steps in seed_workloads():
            evaluator = SeriesEvaluator(steps)
            result = optimize_pl(steps, evaluator=evaluator)
            stats = result.stats
            assert evaluator.engine_calls == stats["engine_yields"]
            preliminary = 1 + (1 if len(steps) <= 3 else 0)
            per_start_bound = max(
                rounds + accepts
                for rounds, accepts in zip(stats["rounds"], stats["accepts"])
            )
            assert stats["engine_yields"] <= preliminary + per_start_bound
            # Strictly fewer calls than the per-coordinate loop would issue
            # (it pays one call per coordinate per round, plus the accepts).
            per_coordinate_calls = preliminary + sum(
                rounds * len(steps) + accepts
                for rounds, accepts in zip(stats["rounds"], stats["accepts"])
            )
            if len(steps) > 1:
                assert stats["engine_yields"] < per_coordinate_calls

    @SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_series_bit_match_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        steps = list(random_steps(rng, int(rng.integers(1, 9))))
        batched = optimize_pl(steps)
        scalar = optimize_pl(steps, use_batch=False)
        assert batched.ratios == scalar.ratios
        assert batched.total_s == pytest.approx(scalar.total_s, abs=TOL, rel=TOL)


class TestServiceLockstepParity:
    """The mixed service path must inherit the descent's call discipline."""

    def _mixed_requests(self, seed: int, n_series: int, n_requests: int):
        rng = np.random.default_rng(seed)
        pool = [random_steps(rng, int(rng.integers(1, 9))) for _ in range(n_series)]
        schemes = ("PL", "OL", "DD")
        return [
            PlanRequest(
                steps=pool[i % n_series],
                scheme=schemes[(i // n_series) % 3],
                request_id=f"q{i}",
            )
            for i in range(n_requests)
        ]

    def test_one_mixed_call_per_descent_round_across_tasks(self):
        """plan_many issues 1 grid call + max-over-tasks descent calls."""
        requests = self._mixed_requests(31, 4, 16)
        service = PlanService(cache=SharedEstimateCache())
        service.plan_many(requests)
        calls = service.stats()["mixed_engine_calls"]
        pl_tasks = {
            r.task_key: r for r in requests if r.scheme == "PL"
        }
        worst_descent = max(
            optimize_pl(list(r.steps), r.delta).stats["engine_yields"]
            for r in pl_tasks.values()
        )
        assert calls == 1 + worst_descent

    @pytest.mark.parametrize("seed", [37, 41, 43])
    def test_service_answers_match_optimizers(self, seed):
        """served plan == library call == scalar ``use_batch=False`` reference."""
        requests = self._mixed_requests(seed, 3, 18)
        responses = PlanService(cache=SharedEstimateCache()).plan_many(requests)
        for response, request in zip(responses, requests):
            steps = list(request.steps)
            reference = optimize_scheme(request.scheme, steps, request.delta)
            assert response.ratios == reference.ratios
            assert response.total_s == reference.total_s
            assert response.estimate.cpu_delay_s == reference.estimate.cpu_delay_s
            scalar = optimize_scheme(
                request.scheme,
                steps,
                request.delta,
                evaluator=SeriesEvaluator(steps, use_batch=False),
            )
            assert response.ratios == scalar.ratios
            assert response.total_s == pytest.approx(scalar.total_s, abs=TOL, rel=TOL)
