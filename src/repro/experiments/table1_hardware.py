"""Table 1: hardware configuration of the simulated machines.

The structural values (core counts, frequencies, buffer and cache sizes) come
straight from the spec constants in :mod:`repro.hardware.specs`, which in turn
are taken from the paper's Table 1 for the AMD A8-3870K APU and the discrete
Radeon HD 7970 reference GPU.
"""

from __future__ import annotations

from ..hardware.specs import table1_rows
from .common import ExperimentResult


def run_table1() -> ExperimentResult:
    """Regenerate Table 1 from the spec constants."""
    result = ExperimentResult(
        experiment="Table 1",
        description="Configuration of the AMD A8-3870K APU (and discrete HD 7970 reference)",
    )
    for row in table1_rows():
        result.add_row(**row)
    result.add_note(
        "The timing parameters of the simulator (latencies, bandwidths, atomic costs) "
        "are calibration constants documented in hardware/specs.py, not part of Table 1."
    )
    return result
