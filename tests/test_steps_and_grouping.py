"""Tests for step accounting and join results."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import JoinWorkload
from repro.hashjoin import (
    BUILD_STEPS,
    JoinResult,
    PARTITION_STEPS,
    PROBE_STEPS,
    PartitionedHashJoin,
    step_by_name,
)
from repro.hashjoin.steps import (
    STATS_MEMO_ENTRIES,
    PerTupleWork,
    StepExecution,
    StepSeries,
)
from repro.opencl import wavefront_divergence

QUANTITY_NAMES = (
    "instructions",
    "random_accesses",
    "sequential_bytes",
    "global_atomics",
    "local_atomics",
)


@functools.cache
def real_uniform_steps() -> dict[str, PerTupleWork]:
    """The scalar-only b2, b4 and n3 work of a small partitioned join."""
    workload = JoinWorkload.uniform(2000, 2000, seed=1)
    run = PartitionedHashJoin().run(workload.build, workload.probe)
    works = {e.step.name: e.work for series in run.step_series for e in series}
    return {name: works[name] for name in ("b2", "b4", "n3")}


@st.composite
def uniform_works(draw) -> tuple[PerTupleWork, float]:
    """A scalar-only PerTupleWork and the one proxy value all its tuples carry.

    Dyadic proxies (whole numbers, multiples of 1/256, the real b2/b4/n3
    work) take the exact shortcut; 0.1 and arbitrary floats, negative ones
    too, mostly take the array fallback."""
    n = draw(st.integers(min_value=1, max_value=3000))
    source = draw(st.sampled_from(["real", "whole", "k/256", "0.1", "float"]))
    if source == "real":
        step = draw(st.sampled_from(["b2", "b4", "n3"]))
        work = dataclasses.replace(real_uniform_steps()[step], n_tuples=n)
    else:
        value = {
            "whole": st.integers(min_value=0, max_value=10**6).map(float),
            "k/256": st.integers(min_value=0, max_value=10**6).map(lambda k: k / 256),
            "0.1": st.just(0.1),
            "float": st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        }[source]
        work = PerTupleWork(n_tuples=n, instructions=draw(value))
    proxy = (float(work.instructions) + 10.0 * float(work.random_accesses)
             + 5.0 * float(work.global_atomics))
    return work, proxy


class TestStepDefinitions:
    def test_catalogue_names(self):
        assert [s.name for s in BUILD_STEPS] == ["b1", "b2", "b3", "b4"]
        assert [s.name for s in PROBE_STEPS] == ["p1", "p2", "p3", "p4"]
        assert [s.name for s in PARTITION_STEPS] == ["n1", "n2", "n3"]

    def test_step_by_name(self):
        assert step_by_name("p3").phase == "probe"
        with pytest.raises(KeyError):
            step_by_name("q7")


class TestPerTupleWork:
    def test_scalar_and_array_quantities_agree(self):
        scalar = PerTupleWork(n_tuples=100, instructions=5.0)
        array = PerTupleWork(n_tuples=100, instructions=np.full(100, 5.0))
        assert scalar.total_stats().instructions == pytest.approx(
            array.total_stats().instructions
        )

    def test_range_selects_subset(self):
        work = PerTupleWork(n_tuples=10, instructions=np.arange(10, dtype=float))
        stats = work.stats_for_range(2, 5)
        assert stats.tuples == 3
        assert stats.instructions == pytest.approx(2 + 3 + 4)

    def test_out_of_bounds_clamped(self):
        work = PerTupleWork(n_tuples=5, instructions=1.0)
        assert work.stats_for_range(-5, 50).tuples == 5
        assert work.stats_for_range(4, 2).tuples == 0

    def test_grouped_reduces_divergence(self):
        values = np.ones(256)
        values[::64] = 100.0
        work = PerTupleWork(n_tuples=256, instructions=values)
        assert (work.total_stats(grouped=True).divergence
                < work.total_stats(grouped=False).divergence)

    def test_average_profile(self):
        work = PerTupleWork(n_tuples=4, instructions=np.array([1.0, 2.0, 3.0, 4.0]),
                            random_accesses=2.0)
        profile = work.average_profile()
        assert profile.instructions_per_tuple == pytest.approx(2.5)
        assert profile.random_accesses_per_tuple == pytest.approx(2.0)

    def test_mismatched_array_length_rejected(self):
        work = PerTupleWork(n_tuples=5, instructions=np.ones(3))
        with pytest.raises(ValueError):
            work.total_stats()

    @pytest.mark.parametrize("name", QUANTITY_NAMES)
    def test_every_quantity_is_length_checked(self, name):
        # Sums over a short array used to be reported as if it covered every
        # tuple (sequential_bytes and local_atomics were never checked).
        for bad in (np.ones(3), np.ones((5, 1))):
            with pytest.raises(ValueError, match=name):
                PerTupleWork(n_tuples=5, **{"instructions": 1.0, name: bad}).total_stats()
        with pytest.raises(ValueError, match=name):
            PerTupleWork(n_tuples=5, **{name: np.ones(6)}).stats_for_range(2, 2)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(uniform_works(), st.data(), st.booleans(),
           st.sampled_from([1, 16, 63, 64, 65, 256]))
    def test_uniform_step_divergence_matches_the_array(self, work_and_proxy, data, grouped,
                                                       width):
        work, proxy = work_and_proxy
        start = data.draw(st.integers(min_value=0, max_value=work.n_tuples - 1))
        stop = data.draw(st.integers(min_value=start + 1, max_value=work.n_tuples))
        stats = work.stats_for_range(start, stop, wavefront_width=width, grouped=grouped)
        expected = wavefront_divergence(np.full(stop - start, proxy), width).divergence
        assert stats.divergence == expected

    def test_inexact_uniform_step_keeps_its_rounding_divergence(self):
        # 0.1 is not dyadic: six copies sum with rounding, so the array path
        # runs and the step reports the same tiny nonzero divergence.
        work = PerTupleWork(n_tuples=6, instructions=0.1)
        divergence = work.total_stats(wavefront_width=63).divergence
        assert divergence != 0.0
        assert divergence == wavefront_divergence(np.full(6, 0.1), 63).divergence

    def test_uniform_step_rejects_nonpositive_width(self):
        work = PerTupleWork(n_tuples=10, instructions=1.0, random_accesses=1.0)
        for width in (0, -64):
            with pytest.raises(ValueError):
                work.total_stats(wavefront_width=width)

    def test_conflict_ratio_passthrough(self):
        work = PerTupleWork(n_tuples=10, instructions=1.0, global_atomics=1.0)
        stats = work.total_stats(conflict_ratio=0.7)
        assert stats.atomic_conflict_ratio == 0.7

    def test_stats_memo_stays_bounded(self):
        n = STATS_MEMO_ENTRIES + 40
        work = PerTupleWork(n_tuples=n, instructions=np.arange(n, dtype=float),
                            random_accesses=np.arange(n, dtype=float) % 7.0)
        # Two sweeps over more distinct ranges than the cap: the second one
        # asks again for ranges the first sweep's tail evicted.
        for _ in range(2):
            for start in range(n):
                stats = work.stats_for_range(start, n)
                assert len(work._stats_memo) <= STATS_MEMO_ENTRIES
                fresh = dataclasses.replace(work).stats_for_range(start, n)
                assert stats.as_dict() == fresh.as_dict()
        assert len(work._stats_memo) == STATS_MEMO_ENTRIES


class TestStepSeries:
    def _execution(self, name: str, n: int) -> StepExecution:
        return StepExecution(step=step_by_name(name), work=PerTupleWork(n_tuples=n, instructions=1.0))

    def test_series_requires_consistent_lengths(self):
        with pytest.raises(ValueError):
            StepSeries(phase="build", executions=[self._execution("b1", 5),
                                                  self._execution("b2", 6)])

    def test_series_accessors(self):
        series = StepSeries(phase="build", executions=[self._execution("b1", 5),
                                                       self._execution("b2", 5)])
        assert series.n_steps == 2
        assert series.n_tuples == 5
        assert series.step_names == ["b1", "b2"]
        assert series[1].step.name == "b2"

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            StepSeries(phase="build", executions=[])

    def test_conflict_lookup_by_device(self):
        execution = StepExecution(
            step=step_by_name("b2"),
            work=PerTupleWork(n_tuples=5, instructions=1.0),
            conflict_ratio={"cpu": 0.1, "gpu": 0.6},
        )
        assert execution.conflict_for("gpu") == 0.6
        assert execution.conflict_for("cpu") == 0.1
        assert execution.conflict_for("npu") == 0.0


class TestJoinResult:
    def test_equals_is_order_insensitive(self):
        a = JoinResult(build_rids=np.array([1, 2]), probe_rids=np.array([10, 20]))
        b = JoinResult(build_rids=np.array([2, 1]), probe_rids=np.array([20, 10]))
        assert a.equals(b)

    def test_unequal_lengths(self):
        a = JoinResult(build_rids=np.array([1]), probe_rids=np.array([10]))
        assert not a.equals(JoinResult.empty())

    def test_concat(self):
        a = JoinResult(build_rids=np.array([1]), probe_rids=np.array([10]))
        b = JoinResult(build_rids=np.array([2]), probe_rids=np.array([20]))
        merged = JoinResult.concat([a, b])
        assert merged.match_count == 2
        assert merged.as_pair_set() == {(1, 10), (2, 20)}

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            JoinResult(build_rids=np.array([1, 2]), probe_rids=np.array([1]))
