"""End-to-end and per-layer benchmark of the whole system.

``python -m bench run`` times joins, the fig09 Monte Carlo regeneration and
the plan server on six seeded workloads, checks every output, and with
``--trace`` splits the time into named layers; ``python -m bench compare``
judges two sets of result files against the bounds in ``BENCHMARK.json``.
See ``bench/README.md``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

#: Taken before the package under test is imported, so a workload's
#: ``setup_s`` includes the import.
PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The program under test is imported from the checkout's source tree.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
