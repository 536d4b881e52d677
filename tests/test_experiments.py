"""Tests for the experiment runners (each paper table / figure at tiny scale)."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.executor import CoProcessingExecutor
from repro.experiments import (
    ExperimentResult,
    improvement,
    run_fig03,
    run_fig04,
    run_fig05,
    run_fig06,
    run_fig07,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig15,
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_fig20,
    run_grouping_study,
    run_headline,
    run_table1,
    run_table3,
)
from repro.hashjoin.steps import PerTupleWork

TINY = 12_000


class TestExperimentResultContainer:
    def test_add_row_and_columns(self):
        result = ExperimentResult("X", "demo")
        result.add_row(a=1, b=2.5)
        result.add_row(a=3, c="z")
        assert result.column_names() == ["a", "b", "c"]
        assert result.column("a") == [1, 3]

    def test_to_text_and_markdown(self):
        result = ExperimentResult("X", "demo")
        result.add_row(metric="time", value=1.234)
        result.add_note("a note")
        text = result.to_text()
        assert "X" in text and "1.234" in text and "a note" in text
        markdown = result.to_markdown()
        assert markdown.startswith("### X") and "| metric | value |" in markdown

    def test_improvement_helper(self):
        assert improvement(2.0, 1.0) == pytest.approx(50.0)
        assert improvement(0.0, 1.0) == 0.0


class TestTableRunners:
    def test_table1_values(self):
        result = run_table1()
        metrics = {row["metric"]: row for row in result.rows}
        assert metrics["# Cores"]["GPU (APU)"] == 400
        assert metrics["Zero copy buffer (MB)"]["CPU (APU)"] == 512

    def test_table3_coarse_slower_with_more_misses(self):
        result = run_table3(build_tuples=TINY)
        rows = {row["variant"]: row for row in result.rows}
        assert rows["PHJ-PL'"]["elapsed_s"] > rows["PHJ-PL"]["elapsed_s"]
        assert rows["PHJ-PL'"]["cache_miss_ratio"] >= rows["PHJ-PL"]["cache_miss_ratio"]


class TestBreakdownAndCalibration:
    def test_fig03_discrete_pays_transfer_and_merge(self):
        result = run_fig03(build_tuples=TINY)
        discrete_dd = next(
            r for r in result.rows
            if r["architecture"] == "discrete" and r["variant"] == "SHJ-DD"
        )
        coupled_dd = next(
            r for r in result.rows
            if r["architecture"] == "coupled" and r["variant"] == "SHJ-DD"
        )
        assert discrete_dd["data_transfer_s"] > 0.0
        assert discrete_dd["merge_s"] > 0.0
        assert coupled_dd["data_transfer_s"] == 0.0
        assert coupled_dd["total_s"] < discrete_dd["total_s"]

    def test_fig04_step_shape(self):
        result = run_fig04(build_tuples=TINY)
        rows = {row["step"]: row for row in result.rows}
        assert rows["b1"]["gpu_speedup"] > 5.0
        assert rows["p1"]["gpu_speedup"] > 5.0
        assert 0.3 < rows["p3"]["gpu_speedup"] < 3.0

    def test_fig05_fig06_ratios_in_range(self):
        for runner in (run_fig05, run_fig06):
            result = runner(build_tuples=TINY)
            assert all(0.0 <= row["cpu_ratio"] <= 1.0 for row in result.rows)
            hash_rows = [r for r in result.rows if r["step"] in ("b1", "p1", "n1")]
            assert all(r["cpu_ratio"] <= 0.2 for r in hash_rows)


class TestModelValidation:
    def test_fig07_estimates_track_measurements(self):
        result = run_fig07(build_tuples=TINY, ratio_step=0.5)
        assert all(row["estimated_s"] > 0 for row in result.rows)
        assert all(row["relative_error_pct"] < 60.0 for row in result.rows)

    def test_fig08_runs(self):
        result = run_fig08(build_tuples=TINY, ratio_step=0.5)
        assert {row["phase"] for row in result.rows} == {"build", "probe"}

    def test_fig09_chosen_close_to_best(self):
        result = run_fig09(build_tuples=8_000, n_samples=30)
        summaries = [r for r in result.rows if r["kind"] == "summary"]
        assert len(summaries) == 2
        for row in summaries:
            assert row["elapsed_s"] <= row["worst_random_s"]
            assert row["elapsed_s"] <= row["best_random_s"] * 1.3

    def test_fig09_rows_equal_a_memo_free_reference(self, monkeypatch):
        """The cached workload proxy leaves every fig09 row bit-identical
        to a run that computes each range's stats on a fresh work copy,
        whose proxy cache starts empty."""
        cached = run_fig09(build_tuples=5_000, n_samples=100).rows
        stats_for_range = PerTupleWork.stats_for_range

        def on_fresh_copy(self, *args, **kwargs):
            return stats_for_range(dataclasses.replace(self), *args, **kwargs)

        monkeypatch.setattr(PerTupleWork, "stats_for_range", on_fresh_copy)
        assert run_fig09(build_tuples=5_000, n_samples=100).rows == cached

    def test_fig09_rows_equal_a_per_row_execute_series_loop(self, monkeypatch):
        """Measuring each Monte Carlo matrix on the ratio grid leaves every
        fig09 row bit-identical to measuring it row by row."""
        grid_rows = run_fig09(build_tuples=5_000, n_samples=100).rows
        calls = []

        def row_loop(self, series, ratio_matrix, pipelined=True):
            calls.append(len(ratio_matrix))
            elapsed = [
                self.execute_series(series, row, pipelined).elapsed_s
                for row in np.asarray(ratio_matrix).tolist()
            ]
            return SimpleNamespace(elapsed_s=np.array(elapsed))

        monkeypatch.setattr(CoProcessingExecutor, "execute_grid", row_loop)
        assert run_fig09(build_tuples=5_000, n_samples=100).rows == grid_rows
        assert calls == [101, 101]


class TestDesignTradeoffs:
    def test_fig10_shared_table_wins(self):
        result = run_fig10(build_tuples=TINY)
        by_key = {(r["variant"], r["hash_table"]): r for r in result.rows}
        for algorithm in ("SHJ-DD", "PHJ-DD"):
            assert (by_key[(algorithm, "shared")]["build_s"]
                    < by_key[(algorithm, "separate")]["build_s"])
            assert by_key[(algorithm, "shared")]["merge_s"] == 0.0

    def test_fig11_lock_overhead_decreases_with_block_size(self):
        result = run_fig11(build_tuples=TINY, block_sizes=(8, 2048), schemes=("DD",))
        rows = {row["block_bytes"]: row for row in result.rows}
        assert rows[2048]["lock_overhead_s"] <= rows[8]["lock_overhead_s"]
        assert rows[2048]["elapsed_s"] <= rows[8]["elapsed_s"]

    def test_fig12_optimised_allocator_wins(self):
        result = run_fig12(build_tuples=TINY, schemes=("DD",))
        by_key = {(r["variant"], r["allocator"]): r["elapsed_s"] for r in result.rows}
        assert by_key[("SHJ-DD", "Ours")] <= by_key[("SHJ-DD", "Basic")]
        assert by_key[("PHJ-DD", "Ours")] <= by_key[("PHJ-DD", "Basic")]

    def test_grouping_study_improves_skewed_run(self):
        result = run_grouping_study(build_tuples=TINY)
        rows = {row["grouping"]: row["elapsed_s"] for row in result.rows}
        assert rows["grouped"] <= rows["ungrouped"] * 1.02


class TestEndToEnd:
    def test_fig13_schemes_ordered(self):
        result = run_fig13(build_sizes=(4_000, 8_000), probe_tuples=TINY)
        for algorithm in ("SHJ", "PHJ"):
            for size in (4_000, 8_000):
                rows = {
                    r["scheme"]: r["elapsed_s"]
                    for r in result.rows
                    if r["algorithm"] == algorithm and r["build_tuples"] == size
                }
                assert rows["PL"] <= rows["CPU-only"]
                assert rows["DD"] <= rows["CPU-only"]

    def test_fig15_probe_grows_with_selectivity(self):
        result = run_fig15(build_tuples=TINY, selectivities=(0.125, 1.0))
        dd_rows = sorted(
            (r for r in result.rows if r["scheme"] == "DD"),
            key=lambda r: r["selectivity_pct"],
        )
        assert dd_rows[0]["probe_s"] <= dd_rows[-1]["probe_s"]
        assert dd_rows[0]["matches"] < dd_rows[-1]["matches"]

    def test_fig16_pl_beats_basicunit(self):
        result = run_fig16(build_tuples=TINY)
        rows = {row["variant"]: row["elapsed_s"] for row in result.rows}
        assert rows["SHJ-PL"] < rows["BasicUnit (SHJ)"]
        assert rows["PHJ-PL"] < rows["BasicUnit (PHJ)"]

    def test_fig17_fig18_ratio_rows(self):
        shj = run_fig17(build_tuples=TINY)
        phj = run_fig18(build_tuples=TINY)
        assert {row["phase"] for row in shj.rows} == {"build", "probe"}
        assert {row["phase"] for row in phj.rows} == {"partition", "build", "probe"}
        for row in shj.rows + phj.rows:
            assert 0.0 <= row["cpu_ratio_pct"] <= 100.0

    def test_fig19_copy_time_only_when_out_of_buffer(self):
        result = run_fig19(sizes=(5_000, 40_000), buffer_bytes=256 * 1024,
                           chunk_tuples=10_000)
        small = [r for r in result.rows if r["tuples_per_relation"] == 5_000]
        large = [r for r in result.rows if r["tuples_per_relation"] == 40_000]
        assert all(r["fits_in_buffer"] for r in small)
        assert all(not r["fits_in_buffer"] for r in large)
        assert all(r["data_copy_s"] > 0 for r in large)

    def test_fig20_contention_falls_with_array_size(self):
        result = run_fig20(array_sizes=(1, 4_096), total_increments=100_000)
        for device in ("cpu", "gpu"):
            rows = {
                r["n_integers"]: r["elapsed_s"]
                for r in result.rows
                if r["device"] == device and r["distribution"] == "uniform"
            }
            assert rows[4_096] < rows[1]

    def test_headline_pl_wins(self):
        result = run_headline(build_tuples=TINY)
        rows = {(r["algorithm"], r["scheme"]): r["elapsed_s"] for r in result.rows}
        for algorithm in ("SHJ", "PHJ"):
            assert rows[(algorithm, "PL")] <= rows[(algorithm, "CPU-only")]
            assert rows[(algorithm, "PL")] <= rows[(algorithm, "GPU-only")]
            assert rows[(algorithm, "PL")] <= rows[(algorithm, "DD")] * 1.001
