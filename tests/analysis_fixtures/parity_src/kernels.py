"""Seeded kernel-parity contracts (see tests/test_analysis.py).

``covered_join`` and ``CoveredTable`` are exercised with explicit toggles by
``parity_tests/checks_kernels.py``; ``uncovered_join`` (SEED) and
``UncoveredTable`` (SEED) are not — the checker must flag exactly those two,
and ``implicit_join`` too: the fixture test calls it but relies on the
toggle default instead of pinning it.
"""


def covered_join(keys, use_bulk: bool = True):
    return keys if use_bulk else list(keys)


def uncovered_join(keys, fused: bool = True):  # SEED: no parity test
    return keys if fused else list(keys)


def implicit_join(keys, use_batch: bool = True):  # SEED: toggle never passed
    return keys if use_batch else list(keys)


def _private_join(keys, use_batch: bool = True):
    # Private helpers are exempt: their caller's parity test covers them.
    return keys


class CoveredTable:
    def __init__(self, use_kernels: bool = True):
        self.use_kernels = use_kernels


class UncoveredTable:
    def __init__(self, use_batch: bool = True):  # SEED: no parity test
        self.use_batch = use_batch
