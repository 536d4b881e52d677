"""Multi-query plan service: API validation, batched-vs-sequential parity,
the answer cache, shared cache concurrency, and the process-wide cache
singleton."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel import (
    SharedEstimateCache,
    StepCost,
    estimate_series,
    estimate_series_batch,
    optimize_scheme,
    reset_shared_estimate_cache,
    shared_estimate_cache,
)
from repro.service import (
    PlanRequest,
    PlanResponse,
    PlanService,
    WorkloadError,
    load_workload,
)
from repro.service.service import ANSWER_CACHE_ENTRIES

SETTINGS = settings(
    max_examples=25,
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


def fresh_service() -> PlanService:
    return PlanService(cache=SharedEstimateCache())


class TestPlanRequestValidation:
    def test_requires_steps(self):
        with pytest.raises(WorkloadError):
            PlanRequest(steps=())

    def test_rejects_unknown_scheme(self):
        steps = random_steps(np.random.default_rng(0), 2)
        with pytest.raises(WorkloadError):
            PlanRequest(steps=steps, scheme="TURBO")

    def test_scheme_normalised_to_upper(self):
        steps = random_steps(np.random.default_rng(0), 2)
        assert PlanRequest(steps=steps, scheme="pl").scheme == "PL"

    def test_rejects_bad_delta(self):
        steps = random_steps(np.random.default_rng(0), 2)
        for delta in (0.0, -0.1, 1.5):
            with pytest.raises(WorkloadError):
                PlanRequest(steps=steps, delta=delta)

    def test_what_if_needs_matching_ratios(self):
        steps = random_steps(np.random.default_rng(0), 3)
        with pytest.raises(WorkloadError):
            PlanRequest(steps=steps, scheme="WHAT-IF")
        with pytest.raises(WorkloadError):
            PlanRequest(steps=steps, scheme="WHAT-IF", ratios=(0.5,))
        with pytest.raises(WorkloadError):
            PlanRequest(steps=steps, scheme="WHAT-IF", ratios=(0.5, 0.5, 1.5))

    def test_task_key_ignores_request_id(self):
        steps = random_steps(np.random.default_rng(1), 3)
        a = PlanRequest(steps=steps, scheme="DD", request_id="a")
        b = PlanRequest(steps=steps, scheme="DD", request_id="b")
        assert a.task_key == b.task_key
        c = PlanRequest(steps=steps, scheme="DD", delta=0.5)
        assert c.task_key != a.task_key

    def test_task_key_ignores_ratios_for_optimisation_schemes(self):
        """Ratios are documented as ignored outside WHAT-IF; carrying them
        into the task key would silently defeat request deduplication."""
        steps = random_steps(np.random.default_rng(8), 3)
        bare = PlanRequest(steps=steps, scheme="PL", request_id="a")
        with_ratios = PlanRequest(
            steps=steps, scheme="PL", ratios=(0.5, 0.5, 0.5), request_id="b"
        )
        assert with_ratios.ratios is None
        assert bare.task_key == with_ratios.task_key
        service = fresh_service()
        responses = service.plan_many([bare, with_ratios])
        assert responses[0].group_size == 2
        assert service.stats()["requests_deduplicated"] == 1

    def test_dict_round_trip(self):
        steps = random_steps(np.random.default_rng(2), 3)
        request = PlanRequest(
            steps=steps, scheme="WHAT-IF", ratios=(0.1, 0.2, 0.3), request_id="w"
        )
        clone = PlanRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert clone == request

    def test_load_workload_rejects_malformed(self):
        step = {"n_tuples": 5, "cpu_unit_s": 1, "gpu_unit_s": 1}
        # json.loads decodes NaN and +/-Infinity; no step cost may take them.
        non_finite = [
            [{"steps": [{**step, field: value}]}]
            for field in ("cpu_unit_s", "gpu_unit_s", "intermediate_bytes_per_tuple")
            for value in json.loads("[NaN, Infinity, -Infinity]")
        ]
        for payload in (
            {},  # no requests key
            {"requests": []},  # empty
            "nope",
            [{"scheme": "PL"}],  # missing steps
            [{"steps": [{"n_tuples": 5}]}],  # step missing unit costs
            [{"steps": [{"n_tuples": -1, "cpu_unit_s": 1, "gpu_unit_s": 1}]}],
            [{"steps": [{**step, "intermediate_bytes_per_tuple": -8.0}]}],
            *non_finite,
        ):
            with pytest.raises(WorkloadError):
                load_workload(payload)

    def test_load_workload_applies_default_delta(self):
        steps = [
            {"name": "s", "n_tuples": 10, "cpu_unit_s": 1e-9, "gpu_unit_s": 1e-9}
        ]
        requests = load_workload(
            {
                "delta": 0.25,
                "requests": [
                    {"steps": steps},
                    {"steps": steps, "delta": 0.5},
                ],
            }
        )
        assert requests[0].delta == 0.25
        assert requests[1].delta == 0.5


class TestPlanServiceParity:
    """Batched service answers must equal per-request optimiser answers."""

    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.02, 0.03, 0.1, 0.25, 1.0]),
    )
    def test_single_requests_match_optimizers(self, n_steps, seed, delta):
        """Each question is asked twice: the second answer comes from the
        answer cache and still equals the optimiser's, at no evaluations."""
        steps = random_steps(np.random.default_rng(seed), n_steps)
        service = fresh_service()
        for scheme in ("PL", "OL", "DD", "CPU", "GPU"):
            request = PlanRequest(steps=steps, scheme=scheme, delta=delta)
            reference = optimize_scheme(scheme, list(steps), delta)
            first, again = service.plan(request), service.plan(request)
            for response in (first, again):
                assert response.ratios == reference.ratios
                assert response.total_s == reference.total_s
                assert response.estimate == reference.estimate
            assert first.evaluations == reference.evaluations
            assert again.evaluations == 0

    @SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_mixed_batch_matches_sequential(self, seed):
        rng = np.random.default_rng(seed)
        all_series = [random_steps(rng, int(rng.integers(1, 7))) for _ in range(3)]
        schemes = ("PL", "OL", "DD")
        requests = [
            PlanRequest(
                steps=all_series[(i // 3) % 3],
                scheme=schemes[i % 3],
                request_id=f"q{i}",
            )
            for i in range(12)
        ]
        responses = fresh_service().plan_many(requests)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        for response, request in zip(responses, requests):
            reference = optimize_scheme(request.scheme, list(request.steps))
            assert response.ratios == reference.ratios
            assert response.total_s == reference.total_s

    def test_degenerate_single_step(self):
        steps = (StepCost("only", 1_000, cpu_unit_s=2e-9, gpu_unit_s=1e-9),)
        for scheme in ("PL", "OL", "DD"):
            response = fresh_service().plan(PlanRequest(steps=steps, scheme=scheme))
            reference = optimize_scheme(scheme, list(steps))
            assert response.ratios == reference.ratios
            assert response.total_s == reference.total_s

    def test_degenerate_zero_cost_steps(self):
        steps = tuple(
            StepCost(f"z{i}", 10_000, cpu_unit_s=0.0, gpu_unit_s=0.0)
            for i in range(4)
        )
        for scheme in ("PL", "OL", "DD"):
            response = fresh_service().plan(PlanRequest(steps=steps, scheme=scheme))
            reference = optimize_scheme(scheme, list(steps))
            assert response.ratios == reference.ratios
            assert response.total_s == reference.total_s == 0.0

    def test_non_dividing_delta(self):
        steps = random_steps(np.random.default_rng(9), 4)
        for scheme in ("PL", "DD"):
            response = fresh_service().plan(
                PlanRequest(steps=steps, scheme=scheme, delta=0.03)
            )
            reference = optimize_scheme(scheme, list(steps), 0.03)
            assert response.ratios == reference.ratios
            assert response.total_s == reference.total_s

    def test_what_if_matches_reference_estimate(self):
        steps = random_steps(np.random.default_rng(4), 5)
        ratios = (0.1, 0.9, 0.4, 0.0, 1.0)
        response = fresh_service().plan(
            PlanRequest(steps=steps, scheme="WHAT-IF", ratios=ratios)
        )
        reference = estimate_series(list(steps), list(ratios))
        assert response.ratios == list(ratios)
        assert response.total_s == reference.total_s
        assert response.estimate.gpu_step_s == reference.gpu_step_s

    def test_duplicate_requests_deduplicated(self):
        steps = random_steps(np.random.default_rng(5), 4)
        requests = [
            PlanRequest(steps=steps, scheme="DD", request_id=f"q{i}")
            for i in range(6)
        ]
        service = fresh_service()
        responses = service.plan_many(requests)
        assert all(r.group_size == 6 for r in responses)
        assert responses[0].evaluations > 0
        assert all(r.evaluations == 0 for r in responses[1:])
        assert service.stats()["tasks_solved"] == 1
        assert service.stats()["requests_deduplicated"] == 5

    def test_responses_do_not_alias(self):
        steps = random_steps(np.random.default_rng(6), 3)
        service = fresh_service()
        requests = [
            PlanRequest(steps=steps, scheme="DD", request_id=f"q{i}")
            for i in range(2)
        ]
        first, second = service.plan_many(requests)
        first.estimate.cpu_step_s[0] = 1234.5
        assert second.estimate.cpu_step_s[0] != 1234.5
        third = service.plan(requests[0])
        assert third.estimate.cpu_step_s[0] != 1234.5

    def test_empty_batch(self):
        assert fresh_service().plan_many([]) == []

    def test_rejects_non_request(self):
        with pytest.raises(WorkloadError):
            fresh_service().plan_many(["PL"])

    def test_response_to_dict_is_json_serialisable(self):
        steps = random_steps(np.random.default_rng(7), 3)
        response = fresh_service().plan(PlanRequest(steps=steps, scheme="PL"))
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["scheme"] == "PL"
        assert payload["total_s"] == pytest.approx(response.total_s)


class TestAnswerCache:
    """``plan_many`` answers a known task key from its bounded answer LRU."""

    def test_repeat_is_answered_without_the_engine(self):
        rng = np.random.default_rng(21)
        requests = [
            PlanRequest(steps=random_steps(rng, 5), scheme=scheme, request_id=scheme)
            for scheme in ("PL", "OL", "DD", "CPU")
        ]
        service = fresh_service()
        service.plan_many(requests)
        solved = service.stats()
        repeat = service.plan_many(requests)
        stats = service.stats()
        assert stats["mixed_engine_calls"] == solved["mixed_engine_calls"]
        assert stats["tasks_solved"] == solved["tasks_solved"] == len(requests)
        assert stats["answers"] == {
            "entries": len(requests),
            "max_entries": ANSWER_CACHE_ENTRIES,
            "hits": len(requests),
        }
        for got, want in zip(repeat, fresh_service().plan_many(requests)):
            assert got.request_id == want.request_id
            assert got.ratios == want.ratios
            assert got.estimate == want.estimate
            assert got.evaluations == 0

    def test_hits_do_not_alias(self):
        steps = random_steps(np.random.default_rng(22), 4)
        request = PlanRequest(steps=steps, scheme="PL")
        want = fresh_service().plan(request)
        service = fresh_service()
        first = service.plan(request)
        hit = service.plan(request)
        assert hit.evaluations == 0
        for response in (first, hit):
            response.ratios[0] = -1.0
            response.estimate.cpu_step_s[0] = 1234.5
            response.estimate.ratios.append(0.5)
        again = service.plan(request)
        assert again.evaluations == 0
        assert again.ratios == want.ratios
        assert again.estimate == want.estimate

    def test_lru_bound_holds(self):
        steps = random_steps(np.random.default_rng(23), 3)
        requests = [
            PlanRequest(
                steps=steps,
                scheme="WHAT-IF",
                ratios=(k / (ANSWER_CACHE_ENTRIES + 3), 0.5, 1.0),
                request_id=f"w{k}",
            )
            for k in range(ANSWER_CACHE_ENTRIES + 3)
        ]
        service = fresh_service()
        service.plan_many(requests)
        assert service.stats()["answers"]["entries"] == ANSWER_CACHE_ENTRIES
        # The first three were evicted, least recently used first ...
        for request in requests[:3]:
            assert service.plan(request).evaluations == 1
        # ... and the latest are still known.
        hits = service.stats()["answers"]["hits"]
        for request in requests[-3:]:
            assert service.plan(request).evaluations == 0
        assert service.stats()["answers"]["hits"] == hits + 3
        assert service.stats()["answers"]["entries"] == ANSWER_CACHE_ENTRIES

    def test_concurrent_askers_get_identical_plans(self):
        rng = np.random.default_rng(24)
        all_series = [random_steps(rng, int(rng.integers(2, 6))) for _ in range(8)]
        schemes = ("PL", "OL", "DD", "CPU")
        questions = [
            PlanRequest(
                steps=all_series[i % 8], scheme=schemes[i // 8], request_id=f"q{i}"
            )
            for i in range(32)
        ]
        references = fresh_service().plan_many(questions)
        service = fresh_service()

        def worker(k: int) -> list[PlanResponse]:
            return [service.plan(questions[(i + k) % 32]) for i in range(32)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' lock sections
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(worker, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)

        for k, responses in enumerate(answers):
            for i, response in enumerate(responses):
                reference = references[(i + k) % 32]
                assert response.request_id == reference.request_id
                assert response.ratios == reference.ratios
                assert response.estimate == reference.estimate
        stats = service.stats()
        assert stats["requests_served"] == 8 * 32
        assert stats["answers"]["hits"] + stats["tasks_solved"] == 8 * 32
        assert stats["answers"]["entries"] == 32


class TestSharedCacheConcurrency:
    """Hammer the shared cache and the service from a thread pool."""

    N_THREADS = 8

    def test_concurrent_totals_bit_match_scalar_reference(self):
        rng = np.random.default_rng(11)
        all_series = [random_steps(rng, 5) for _ in range(4)]
        matrices = [rng.uniform(0.0, 1.0, size=(40, 5)) for _ in range(4)]
        cache = SharedEstimateCache()

        def worker(k: int) -> np.ndarray:
            series = all_series[k % 4]
            matrix = matrices[k % 4]
            out = None
            for _ in range(5):
                out = cache.totals(series, matrix)
            return out

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            results = list(pool.map(worker, range(16)))

        for k, totals in enumerate(results):
            series, matrix = all_series[k % 4], matrices[k % 4]
            engine = estimate_series_batch(series, matrix).total_s
            assert np.array_equal(totals, engine)
            for i in range(matrix.shape[0]):
                scalar = estimate_series(list(series), matrix[i].tolist()).total_s
                assert totals[i] == pytest.approx(scalar, abs=TOL, rel=TOL)

    def test_no_lost_counter_updates(self):
        rng = np.random.default_rng(12)
        all_series = [random_steps(rng, 4) for _ in range(4)]
        matrices = [rng.uniform(0.0, 1.0, size=(25, 4)) for _ in range(4)]
        cache = SharedEstimateCache()
        rounds = 6

        def worker(k: int) -> None:
            for _ in range(rounds):
                cache.totals(all_series[k % 4], matrices[k % 4])

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            list(pool.map(worker, range(16)))

        total_rows = 16 * rounds * 25
        assert cache.hits + cache.misses == total_rows
        # Rows are only ever computed once per distinct (series, row) pair:
        # the coarse lock means no thread can race a concurrent miss.
        assert cache.misses == 4 * 25
        assert len(cache) == 4 * 25

    def test_concurrent_service_plans_match_reference(self):
        rng = np.random.default_rng(13)
        all_series = [random_steps(rng, int(rng.integers(1, 7))) for _ in range(5)]
        schemes = ("PL", "OL", "DD", "CPU", "GPU")
        requests = [
            PlanRequest(
                steps=all_series[i % 5],
                scheme=schemes[(i // 5) % 5],
                request_id=f"q{i}",
            )
            for i in range(25)
        ]
        references = {
            r.request_id: optimize_scheme(r.scheme, list(r.steps)) for r in requests
        }
        service = fresh_service()

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            responses = list(pool.map(service.plan, requests))

        for response in responses:
            reference = references[response.request_id]
            assert response.ratios == reference.ratios
            assert response.total_s == reference.total_s
        assert service.stats()["requests_served"] == len(requests)

    def test_concurrent_plan_many_batches(self):
        rng = np.random.default_rng(14)
        steps = random_steps(rng, 6)
        requests = [
            PlanRequest(steps=steps, scheme=s, request_id=s)
            for s in ("PL", "OL", "DD")
        ]
        references = {
            r.request_id: optimize_scheme(r.scheme, list(r.steps)) for r in requests
        }
        service = fresh_service()

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            batches = list(
                pool.map(lambda _: service.plan_many(requests), range(12))
            )

        for batch in batches:
            for response in batch:
                reference = references[response.request_id]
                assert response.ratios == reference.ratios
                assert response.total_s == reference.total_s


class TestProcessWideCache:
    def test_singleton_identity(self):
        cache = reset_shared_estimate_cache()
        assert shared_estimate_cache() is cache
        assert shared_estimate_cache() is shared_estimate_cache()
        replacement = reset_shared_estimate_cache()
        assert replacement is not cache
        assert shared_estimate_cache() is replacement

    def test_service_defaults_to_shared_cache(self):
        cache = reset_shared_estimate_cache()
        service = PlanService()
        assert service.cache is cache

    def test_planner_defaults_to_shared_cache(self):
        from repro.core.planner import JoinPlanner

        cache = reset_shared_estimate_cache()
        planner = JoinPlanner()
        assert planner.estimate_cache is cache
        private = SharedEstimateCache()
        assert JoinPlanner(cache=private).estimate_cache is private

    def test_monte_carlo_uses_shared_cache_by_default(self):
        from repro.costmodel import run_monte_carlo

        cache = reset_shared_estimate_cache()
        steps = list(random_steps(np.random.default_rng(15), 3))
        def measure(matrix):
            return [1.0] * len(matrix)

        run_monte_carlo(steps, measure, [0.5] * 3, n_samples=10, seed=2)
        first_misses = cache.misses
        assert first_misses > 0
        run_monte_carlo(steps, measure, [0.5] * 3, n_samples=10, seed=2)
        assert cache.misses == first_misses  # second study fully reused
