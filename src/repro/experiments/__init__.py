"""Experiment runners: one per table / figure of the paper's evaluation."""

from .common import DEFAULT_TUPLES, PAPER_TUPLES, ExperimentResult, improvement
from .fig03_breakdown import run_fig03
from .fig04_unit_costs import calibrate_phj_steps, run_fig04
from .fig05_06_ratios import run_fig05, run_fig06
from .fig07_08_model import run_fig07, run_fig08
from .fig09_montecarlo import run_fig09
from .fig10_sharing import run_fig10
from .fig11_12_allocator import DEFAULT_BLOCK_SIZES, PAPER_BLOCK_SIZES, run_fig11, run_fig12
from .fig13_15_endtoend import (
    DEFAULT_SIZE_SWEEP,
    ENDTOEND_SCHEMES,
    run_fig13,
    run_fig14,
    run_fig15,
)
from .fig16_18_basicunit import run_fig16, run_fig17, run_fig18
from .fig19_external import run_fig19, small_buffer_machine
from .fig20_latch import latch_benchmark_time, run_fig20
from .headline import run_grouping_study, run_headline
from .table1_hardware import run_table1
from .table3_granularity import run_table3

#: All experiment runners keyed by their paper artefact.
ALL_EXPERIMENTS = {
    "table1": run_table1,
    "fig03": run_fig03,
    "fig04": run_fig04,
    "fig05": run_fig05,
    "fig06": run_fig06,
    "fig07": run_fig07,
    "fig08": run_fig08,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "table3": run_table3,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "fig19": run_fig19,
    "fig20": run_fig20,
    "headline": run_headline,
    "grouping": run_grouping_study,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "DEFAULT_BLOCK_SIZES",
    "DEFAULT_SIZE_SWEEP",
    "DEFAULT_TUPLES",
    "ENDTOEND_SCHEMES",
    "ExperimentResult",
    "PAPER_BLOCK_SIZES",
    "PAPER_TUPLES",
    "calibrate_phj_steps",
    "improvement",
    "latch_benchmark_time",
    "run_fig03",
    "run_fig04",
    "run_fig05",
    "run_fig06",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "run_fig17",
    "run_fig18",
    "run_fig19",
    "run_fig20",
    "run_grouping_study",
    "run_headline",
    "run_table1",
    "run_table3",
    "small_buffer_machine",
]
