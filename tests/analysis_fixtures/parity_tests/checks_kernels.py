"""Fixture 'test suite' scanned by the kernel-parity checker.

Not named ``test_*.py`` on purpose: pytest must not collect it — it only
exists as AST input for the checker's coverage scan.
"""

from parity_src.kernels import CoveredTable, covered_join, implicit_join


def check_covered_join_parity():
    fast = covered_join([1, 2], use_bulk=True)
    slow = covered_join([1, 2], use_bulk=False)
    assert fast == slow


def check_covered_table_parity():
    assert CoveredTable(use_kernels=False).use_kernels is False
    assert CoveredTable(use_kernels=True).use_kernels is True


def check_implicit_join_runs():
    # Calls the function but never pins `use_batch=` — must NOT count as
    # parity coverage.
    assert implicit_join([1, 2]) == [1, 2]
