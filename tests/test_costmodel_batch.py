"""Batch cost-model engine: equivalence with the scalar reference, cache,
optimizer parity and the PCI-e/grid/Monte-Carlo regression fixes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.executor import PhaseTiming, StepTiming
from repro.costmodel import (
    CostModelError,
    EstimateCache,
    MonteCarloSample,
    SeriesEvaluator,
    StepCost,
    dd_sweep,
    estimate_series,
    estimate_series_batch,
    optimize_dd,
    optimize_ol,
    optimize_pl,
    ratio_grid,
    run_monte_carlo,
    steps_fingerprint,
    total_elapsed,
)
from repro.costmodel.batch import batch_totals
from repro.hardware.workstats import TimeBreakdown

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TOL = 1e-12


def random_steps(rng: np.random.Generator, n: int) -> list[StepCost]:
    return [
        StepCost(
            f"s{i}",
            int(rng.integers(0, 200_000)),
            cpu_unit_s=float(rng.uniform(0.0, 5e-8)),
            gpu_unit_s=float(rng.uniform(0.0, 5e-8)),
            intermediate_bytes_per_tuple=float(rng.uniform(0.0, 16.0)),
        )
        for i in range(n)
    ]


def assert_rows_match_scalar(steps: list[StepCost], matrix: np.ndarray) -> None:
    """Every batch row equals the scalar reference bit for bit."""
    batch = estimate_series_batch(steps, matrix)
    for i in range(matrix.shape[0]):
        reference = estimate_series(steps, matrix[i].tolist())
        assert batch.cpu_total_s[i] == reference.cpu_total_s
        assert batch.gpu_total_s[i] == reference.gpu_total_s
        assert batch.total_s[i] == reference.total_s
        assert batch.intermediate_bytes[i] == reference.intermediate_bytes
        assert batch.row(i) == reference


class TestBatchEquivalence:
    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_matrices_match_scalar(self, n_steps, n_rows, seed):
        rng = np.random.default_rng(seed)
        steps = random_steps(rng, n_steps)
        matrix = rng.uniform(0.0, 1.0, size=(n_rows, n_steps))
        assert_rows_match_scalar(steps, matrix)

    def test_ol_corner_rows_match_scalar(self):
        """All-0/1 assignments: the ratio-change denominators hit their 0/1 edges."""
        rng = np.random.default_rng(17)
        steps = random_steps(rng, 5)
        matrix = np.array(
            [[float(b) for b in np.binary_repr(k, width=5)] for k in range(2**5)]
        )
        assert_rows_match_scalar(steps, matrix)

    def test_equal_ratio_dd_rows_have_exactly_zero_delays(self):
        """DD rows (one ratio for every step) must produce Eq. 4/5 delays of 0."""
        rng = np.random.default_rng(23)
        steps = random_steps(rng, 6)
        grid = ratio_grid(0.02)
        matrix = np.repeat(grid[:, np.newaxis], 6, axis=1)
        batch = estimate_series_batch(steps, matrix)
        assert np.all(batch.cpu_delay_s == 0.0)
        assert np.all(batch.gpu_delay_s == 0.0)
        assert np.all(batch.intermediate_bytes == 0.0)
        assert_rows_match_scalar(steps, matrix)

    def test_sums_are_left_folds_on_every_python(self):
        """Ten steps of 0.1 s add up to 0.9999999999999999 left to right,
        as the kernel's cumulative sums add them.  CPython 3.12's compensated
        ``sum()`` reads 1.0, so the scalar reference must not use it."""
        steps = [StepCost(f"s{i}", 1, cpu_unit_s=0.1, gpu_unit_s=0.1) for i in range(10)]
        ratios = [1.0] * 10
        left_to_right = 0.9999999999999999
        scalar = estimate_series(steps, ratios)
        assert scalar.total_s == left_to_right
        assert total_elapsed({"phase": scalar}) == left_to_right
        assert estimate_series_batch(steps, [ratios]).total_s[0] == left_to_right
        assert batch_totals(steps, [ratios])[0] == left_to_right
        idle = TimeBreakdown()
        timing = PhaseTiming(
            phase="build",
            ratios=ratios,
            steps=[
                StepTiming(f"s{i}", 1.0, TimeBreakdown(compute_s=0.1), idle, 1, 0)
                for i in range(10)
            ],
        )
        assert timing.compute_s == left_to_right

    def test_single_vector_promoted_to_one_row(self):
        steps = random_steps(np.random.default_rng(1), 4)
        batch = estimate_series_batch(steps, [0.1, 0.9, 0.3, 0.3])
        assert len(batch) == 1
        reference = estimate_series(steps, [0.1, 0.9, 0.3, 0.3])
        assert batch.total_s[0] == pytest.approx(reference.total_s, abs=TOL)

    def test_empty_series(self):
        batch = estimate_series_batch([], np.zeros((3, 0)))
        assert len(batch) == 3
        assert np.all(batch.total_s == 0.0)

    def test_validation_matches_scalar(self):
        steps = random_steps(np.random.default_rng(2), 3)
        with pytest.raises(CostModelError):
            estimate_series_batch(steps, np.full((2, 3), 1.5))
        with pytest.raises(CostModelError):
            estimate_series_batch(steps, np.zeros((2, 4)))
        with pytest.raises(CostModelError):
            estimate_series_batch(steps, np.zeros((2, 2, 3)))

    def test_argmin_is_first_minimum(self):
        steps = [StepCost("s", 1_000, cpu_unit_s=1e-9, gpu_unit_s=1e-9)]
        batch = estimate_series_batch(steps, [[0.5], [0.5], [0.0]])
        assert batch.argmin() == 0

    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_totals_fast_path_matches_full_batch(self, n_steps, n_rows, seed):
        """batch_totals (the optimiser hot path) equals the full evaluation."""
        rng = np.random.default_rng(seed)
        steps = random_steps(rng, n_steps)
        matrix = rng.uniform(0.0, 1.0, size=(n_rows, n_steps))
        fast = batch_totals(steps, matrix)
        full = estimate_series_batch(steps, matrix).total_s
        assert np.array_equal(fast, full)

    def test_totals_fast_path_validates_by_default(self):
        steps = random_steps(np.random.default_rng(3), 2)
        with pytest.raises(CostModelError):
            batch_totals(steps, [[1.5, 0.0]])

    @pytest.mark.parametrize(
        "evaluate",
        [estimate_series_batch, batch_totals, lambda steps, m: EstimateCache().totals(steps, m)],
        ids=["estimate_series_batch", "batch_totals", "EstimateCache.totals"],
    )
    def test_nan_ratio_is_rejected_like_the_scalar_path(self, evaluate):
        steps = random_steps(np.random.default_rng(4), 2)
        with pytest.raises(CostModelError):
            estimate_series(steps, [math.nan, 0.5])
        with pytest.raises(CostModelError):
            evaluate(steps, [[math.nan, 0.5]])


class TestRatioGrid:
    def test_grid_spacing_honours_delta(self):
        """Regression: delta=0.03 used to silently produce spacing 0.0303..."""
        grid = ratio_grid(0.03)
        spacing = np.diff(grid[:-1])
        assert np.allclose(spacing, 0.03, atol=1e-9)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid[-2] == pytest.approx(0.99)

    def test_grid_unchanged_when_delta_divides_one(self):
        grid = ratio_grid(0.02)
        assert len(grid) == 51
        assert np.allclose(np.diff(grid), 0.02, atol=1e-9)

    @SETTINGS
    @given(st.floats(min_value=0.005, max_value=1.0))
    def test_grid_properties_any_delta(self, delta):
        grid = ratio_grid(delta)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)
        # every interior point is an exact multiple of delta (to rounding)
        interior = grid[1:-1]
        multiples = np.round(interior / delta)
        assert np.allclose(interior, multiples * delta, atol=1e-9)


class TestOptimizerParity:
    """The batched optimisers must match the scalar evaluation path exactly."""

    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_pl_identical_to_scalar_path(self, n_steps, seed):
        """The vectorized descent's decisions must match the scalar loop.

        The two paths may evaluate different *row counts* (the vectorized
        rounds include speculative rows discarded after an accepted update),
        but every chosen ratio and the resulting estimate are identical.
        """
        steps = random_steps(np.random.default_rng(seed), n_steps)
        batched = optimize_pl(steps, delta=0.1)
        scalar = optimize_pl(steps, delta=0.1, use_batch=False)
        assert batched.ratios == scalar.ratios
        assert batched.total_s == pytest.approx(scalar.total_s, abs=TOL, rel=TOL)
        # One engine call per descent round plus one per accepted update
        # (plus the DD-start grid and, for short series, the coarse grid).
        preliminary = 1 + (1 if n_steps <= 3 else 0)
        bound = preliminary + max(
            rounds + accepts
            for rounds, accepts in zip(
                batched.stats["rounds"], batched.stats["accepts"]
            )
        )
        assert batched.stats["engine_yields"] <= bound

    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_dd_and_ol_identical_to_scalar_path(self, n_steps, seed):
        steps = random_steps(np.random.default_rng(seed), n_steps)
        # Direct calls (not a loop over a function variable) so the
        # kernel-parity checker can see both toggles exercised statically.
        for batched, scalar in (
            (optimize_dd(steps), optimize_dd(steps, use_batch=False)),
            (optimize_ol(steps), optimize_ol(steps, use_batch=False)),
        ):
            assert batched.ratios == scalar.ratios
            assert batched.evaluations == scalar.evaluations
            assert batched.total_s == pytest.approx(scalar.total_s, abs=TOL, rel=TOL)

    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_series_evaluator_toggle_matches_scalar_rows(self, n_steps, seed):
        """SeriesEvaluator(use_batch=False) routes every row through the
        scalar model; the batch engine must reproduce those totals."""
        rng = np.random.default_rng(seed)
        steps = random_steps(rng, n_steps)
        matrix = rng.uniform(0.0, 1.0, size=(8, n_steps))
        batched = SeriesEvaluator(steps, use_batch=True)
        scalar = SeriesEvaluator(steps, use_batch=False)
        np.testing.assert_allclose(
            batched.totals(matrix), scalar.totals(matrix), rtol=TOL, atol=TOL
        )
        assert batched.evaluations == scalar.evaluations == matrix.shape[0]

    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((2, 3)), [[1.5]], [[math.nan]]],
        ids=["wrong-width", "ratio-1.5", "nan"],
    )
    @pytest.mark.parametrize(
        "make_evaluator",
        [
            lambda steps: SeriesEvaluator(steps),
            lambda steps: SeriesEvaluator(steps, cache=EstimateCache()),
            lambda steps: SeriesEvaluator(steps, use_batch=False),
        ],
        ids=["batch", "cached", "scalar"],
    )
    def test_every_evaluator_rejects_what_the_scalar_path_rejects(
        self, make_evaluator, matrix
    ):
        """Regression: the cache-less batch evaluator (what optimize_dd/ol/pl
        build by default) skipped validation, so a 1-step series answered a
        2x3 matrix, a 1.5 ratio and a NaN instead of raising."""
        steps = [StepCost("s", 1_000, cpu_unit_s=3e-8, gpu_unit_s=3e-8)]
        with pytest.raises(CostModelError):
            make_evaluator(steps).totals(matrix)

    def test_empty_series_consistent_across_optimizers(self):
        """Regression: optimize_ol([]) crashed in ol_candidate_matrix while
        optimize_dd([]) returned the empty assignment."""
        assert optimize_dd([]).ratios == []
        assert optimize_ol([]).ratios == []
        assert optimize_ol([]).total_s == 0.0

    def test_dd_result_estimate_is_reference_estimate(self):
        steps = random_steps(np.random.default_rng(5), 4)
        result = optimize_dd(steps)
        reference = estimate_series(steps, result.ratios)
        assert result.estimate.total_s == reference.total_s
        assert result.estimate.cpu_step_s == reference.cpu_step_s

    def test_dd_sweep_matches_scalar_series(self):
        steps = random_steps(np.random.default_rng(6), 4)
        for ratio, total in dd_sweep(steps, delta=0.25):
            assert total == pytest.approx(
                estimate_series(steps, [ratio] * 4).total_s, abs=TOL, rel=TOL
            )


class TestEstimateCache:
    def test_totals_cached_and_consistent(self):
        steps = random_steps(np.random.default_rng(9), 5)
        matrix = np.random.default_rng(10).uniform(0, 1, size=(30, 5))
        cache = EstimateCache()
        first = cache.totals(steps, matrix)
        assert cache.misses == 30 and cache.hits == 0
        second = cache.totals(steps, matrix)
        assert cache.hits == 30
        assert np.array_equal(first, second)
        assert np.array_equal(first, estimate_series_batch(steps, matrix).total_s)

    def test_partial_hits_fill_only_missing_rows(self):
        steps = random_steps(np.random.default_rng(11), 3)
        cache = EstimateCache()
        cache.totals(steps, [[0.1, 0.2, 0.3]])
        totals = cache.totals(steps, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert cache.hits == 1 and cache.misses == 2
        assert totals[1] == pytest.approx(
            estimate_series(steps, [0.4, 0.5, 0.6]).total_s, abs=TOL
        )

    def test_different_steps_do_not_collide(self):
        rng = np.random.default_rng(12)
        steps_a = random_steps(rng, 3)
        steps_b = random_steps(rng, 3)
        assert steps_fingerprint(steps_a) != steps_fingerprint(steps_b)
        cache = EstimateCache()
        ta = cache.totals(steps_a, [[0.5, 0.5, 0.5]])
        tb = cache.totals(steps_b, [[0.5, 0.5, 0.5]])
        assert ta[0] == estimate_series(steps_a, [0.5] * 3).total_s
        assert tb[0] == estimate_series(steps_b, [0.5] * 3).total_s

    def test_estimate_view_cached(self):
        steps = random_steps(np.random.default_rng(13), 4)
        cache = EstimateCache()
        first = cache.estimate(steps, [0.25] * 4)
        assert cache.misses == 1
        second = cache.estimate(steps, [0.25] * 4)
        assert cache.hits == 1
        assert first.total_s == estimate_series(steps, [0.25] * 4).total_s
        # Hits hand out copies: mutating one caller's estimate must not
        # corrupt later hits for the same key.
        first.cpu_step_s[0] = 123.0
        third = cache.estimate(steps, [0.25] * 4)
        assert third.cpu_step_s == second.cpu_step_s
        assert third.cpu_step_s[0] != 123.0

    def test_optimizers_with_cache_return_same_ratios(self):
        steps = random_steps(np.random.default_rng(14), 6)
        cache = EstimateCache()
        assert optimize_pl(steps, cache=cache).ratios == optimize_pl(steps).ratios
        # Coordinate descent revisits rows (DD start, repeated columns), so a
        # single cached run already observes hits.
        assert cache.hits > 0
        hits = cache.hits
        optimize_pl(steps, cache=cache)
        assert cache.hits > hits  # a repeated optimisation is served from cache

    def test_eviction_bounds_size(self):
        steps = random_steps(np.random.default_rng(15), 2)
        cache = EstimateCache(max_entries=16)
        rng = np.random.default_rng(16)
        for _ in range(10):
            cache.totals(steps, rng.uniform(0, 1, size=(8, 2)))
            assert len(cache) <= 16  # hard bound, enforced on every insert


class TestLRUEviction:
    """Regression: ``max_entries`` used to be accepted but never enforced."""

    def test_size_bound_and_hottest_series_survive(self):
        """max_entries + k inserted rows: bound holds, hot keys stay cached."""
        rng = np.random.default_rng(40)
        all_series = [random_steps(rng, 3) for _ in range(5)]
        matrices = [rng.uniform(0, 1, size=(30, 3)) for _ in range(5)]
        cache = EstimateCache(max_entries=100)

        # 150 rows pushed through a 100-row cache, touching series 0-2 first.
        for k in range(3):
            cache.totals(all_series[k], matrices[k])
        assert len(cache) == 90
        cache.totals(all_series[1], matrices[1])  # refresh series 1: all hits
        assert cache.hits == 30
        for k in (3, 4):
            cache.totals(all_series[k], matrices[k])

        assert len(cache) <= 100
        cached = cache.fingerprints()
        # Least recently used series (0, then 2) were evicted; the refreshed
        # series 1 and the most recent insertions survive.
        assert steps_fingerprint(all_series[0]) not in cached
        assert steps_fingerprint(all_series[2]) not in cached
        for k in (1, 3, 4):
            assert steps_fingerprint(all_series[k]) in cached

        # Surviving rows are served without recomputation.
        misses = cache.misses
        cache.totals(all_series[1], matrices[1])
        cache.totals(all_series[4], matrices[4])
        assert cache.misses == misses

    def test_evicted_series_recomputed_consistently(self):
        rng = np.random.default_rng(41)
        all_series = [random_steps(rng, 2) for _ in range(3)]
        matrix = rng.uniform(0, 1, size=(20, 2))
        cache = EstimateCache(max_entries=40)
        first = cache.totals(all_series[0], matrix)
        cache.totals(all_series[1], matrix)
        cache.totals(all_series[2], matrix)  # evicts series 0
        assert steps_fingerprint(all_series[0]) not in cache.fingerprints()
        again = cache.totals(all_series[0], matrix)  # recomputed, same values
        assert np.array_equal(first, again)

    def test_single_series_larger_than_bound_still_bounded(self):
        steps = random_steps(np.random.default_rng(42), 2)
        cache = EstimateCache(max_entries=10)
        cache.totals(steps, np.random.default_rng(43).uniform(0, 1, size=(25, 2)))
        assert len(cache) <= 10

    def test_estimate_view_evicts_lru_series(self):
        rng = np.random.default_rng(44)
        all_series = [random_steps(rng, 2) for _ in range(3)]
        cache = EstimateCache(max_entries=2)
        cache.estimate(all_series[0], [0.5, 0.5])
        cache.estimate(all_series[1], [0.5, 0.5])
        cache.estimate(all_series[0], [0.25, 0.25])  # refreshes series 0
        cache.estimate(all_series[2], [0.5, 0.5])  # series 1 is now the LRU
        assert len(cache) <= 2
        misses = cache.misses
        cache.estimate(all_series[2], [0.5, 0.5])
        assert cache.misses == misses  # most recent entry still cached
        cache.estimate(all_series[1], [0.5, 0.5])
        assert cache.misses == misses + 1  # the LRU series was evicted

    def test_bound_is_combined_across_totals_and_estimates(self):
        """max_entries caps the two views together, not each separately."""
        rng = np.random.default_rng(45)
        all_series = [random_steps(rng, 2) for _ in range(3)]
        cache = EstimateCache(max_entries=20)
        cache.totals(all_series[0], rng.uniform(0, 1, size=(15, 2)))
        for k in range(10):
            cache.estimate(all_series[1], [k / 10.0] * 2)
            assert len(cache) <= 20
        # Totals inserts also count the estimate view against the budget.
        cache.totals(all_series[2], rng.uniform(0, 1, size=(15, 2)))
        assert len(cache) <= 20

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            EstimateCache(max_entries=0)


class TestRunawayEviction:
    """Regression (ISSUE 7 satellite): a single series whose bucket alone
    exceeds the budget used to trigger LRU-first eviction, flushing every
    *fitting* series' rows before finally reaching the oversized bucket —
    one runaway workload left the cache cold for everyone."""

    def test_runaway_bucket_dropped_directly_fitting_series_survive(self):
        rng = np.random.default_rng(46)
        fitting = [random_steps(rng, 3) for _ in range(3)]
        matrices = [rng.uniform(0, 1, size=(20, 3)) for _ in range(3)]
        runaway = random_steps(rng, 3)
        cache = EstimateCache(max_entries=100)

        for steps, matrix in zip(fitting, matrices):
            cache.totals(steps, matrix)
        assert len(cache) == 60

        # 150 rows in one series: bigger than the whole budget.  The fix
        # drops this bucket itself instead of evicting LRU-first through
        # every fitting series.
        cache.totals(runaway, rng.uniform(0, 1, size=(150, 3)))

        assert len(cache) <= 100
        cached = cache.fingerprints()
        assert steps_fingerprint(runaway) not in cached
        for steps in fitting:
            assert steps_fingerprint(steps) in cached

        # The fitting series answer from cache — zero new misses.
        misses = cache.misses
        for steps, matrix in zip(fitting, matrices):
            cache.totals(steps, matrix)
        assert cache.misses == misses

    def test_runaway_estimate_bucket_dropped_directly(self):
        # The estimate view grows one row per insert, so the oversize
        # trigger fires on the insert that pushes the bucket past the
        # bound: the bucket is dropped whole, not trimmed row by row.
        rng = np.random.default_rng(47)
        runaway = random_steps(rng, 2)
        cache = EstimateCache(max_entries=10)
        for k in range(12):
            cache.estimate(runaway, [k / 100.0] * 2)
            assert len(cache) <= 10
        # Insert 11 pushed the bucket past the bound and dropped it whole;
        # insert 12 restarted it from scratch with a single row.
        assert len(cache) == 1

    def test_runaway_values_still_correct_when_recomputed(self):
        rng = np.random.default_rng(48)
        runaway = random_steps(rng, 3)
        matrix = rng.uniform(0, 1, size=(40, 3))
        cache = EstimateCache(max_entries=20)
        first = cache.totals(runaway, matrix)
        again = cache.totals(runaway, matrix)  # bucket was dropped: recompute
        assert np.array_equal(first, again)
        assert np.array_equal(first, batch_totals(runaway, matrix))


class TestMonteCarloRegressions:
    def test_relative_error_nan_for_degenerate_measurement(self):
        sample = MonteCarloSample(ratios=[0.5], estimated_s=1.0, measured_s=0.0)
        assert math.isnan(sample.relative_error)
        sample = MonteCarloSample(ratios=[0.5], estimated_s=1.0, measured_s=-1.0)
        assert math.isnan(sample.relative_error)

    def test_error_quantile_excludes_degenerate_samples(self):
        steps = [StepCost("s", 1_000, cpu_unit_s=1e-9, gpu_unit_s=1e-9)]
        measured = [0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]

        def measure(matrix):
            return measured[: len(matrix)]

        study = run_monte_carlo(steps, measure, [0.5], n_samples=9, seed=4)
        errors = [s.relative_error for s in study.samples]
        assert sum(math.isnan(e) for e in errors) == 2
        finite = [e for e in errors if not math.isnan(e)]
        expected = float(np.quantile(np.asarray(finite), 0.9))
        assert study.error_quantile(0.9) == pytest.approx(expected)
        assert not math.isnan(study.error_quantile(0.9))

    def test_error_quantile_all_degenerate_is_nan(self):
        steps = [StepCost("s", 1_000, cpu_unit_s=1e-9, gpu_unit_s=1e-9)]
        study = run_monte_carlo(
            steps, lambda matrix: [0.0] * len(matrix), [0.5], n_samples=5, seed=4
        )
        assert math.isnan(study.error_quantile(0.9))

    def test_batched_estimates_match_scalar(self):
        steps = random_steps(np.random.default_rng(20), 5)
        study = run_monte_carlo(
            steps, lambda matrix: [1.0] * len(matrix), [0.5] * 5, n_samples=50, seed=21
        )
        for sample in study.samples:
            assert sample.estimated_s == pytest.approx(
                estimate_series(steps, sample.ratios).total_s, abs=TOL, rel=TOL
            )

    def test_run_monte_carlo_accepts_cache(self):
        steps = random_steps(np.random.default_rng(22), 4)
        cache = EstimateCache()

        def measure(matrix):
            return [1.0] * len(matrix)

        first = run_monte_carlo(steps, measure, [0.5] * 4, n_samples=20, seed=3, cache=cache)
        misses = cache.misses
        second = run_monte_carlo(steps, measure, [0.5] * 4, n_samples=20, seed=3, cache=cache)
        assert cache.misses == misses  # every row reused on the second run
        assert [s.estimated_s for s in first.samples] == [
            s.estimated_s for s in second.samples
        ]
