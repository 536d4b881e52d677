"""Kernel-parity contract checker (cross-file pass).

The repro's performance story is "vectorized kernels, bit-matched against a
scalar reference": every fast path ships behind a toggle keyword
(``use_batch=``, ``use_bulk=``, ``use_kernels=``, ``fused=``,
``parallel=``) whose ``False`` side is the slow, obviously-correct twin,
and a parity test drives both sides and compares them exactly.  The contract this
checker enforces is the *other* half of that bargain: a toggle without a
parity test is a fast path nobody is comparing against its reference
anymore.

Mechanics:

* **Toggle discovery** (``src/``) — every ``def``/``async def`` whose
  signature contains one of the known toggle parameter names exports a
  contract ``(callable_name, toggle)``.  Toggles declared on ``__init__``
  are attributed to the *class* (callers write ``PartitionedHashJoin(...,
  use_kernels=False)``, not ``__init__``).
* **Coverage discovery** (``tests/``) — a contract is satisfied when any
  test module contains a call whose callee name matches the callable (bare
  ``Name`` or trailing ``Attribute`` part) and which passes the toggle
  *explicitly by keyword*.  Relying on the default does not count: the whole
  point of a parity test is pinning both sides.
* Anything unmatched is reported at the ``def`` site in ``src/`` with a
  stable ``callable.toggle`` key.

This is deliberately name-based, not import-resolved — the test suite is
small and flat enough that a trailing-name match is unambiguous, and keeping
the matcher dumb means a reader can predict what it will do.
"""

from __future__ import annotations

import ast

from .core import Checker, Finding, Project, SourceFile, register

__all__ = ["KernelParityChecker", "TOGGLES"]

#: Reference-toggle parameter names that establish a parity contract.
TOGGLES = frozenset({"use_batch", "use_bulk", "use_kernels", "fused", "parallel"})


def _signature_toggles(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = {arg.arg for arg in fn.args.args}
    names.update(arg.arg for arg in fn.args.kwonlyargs)
    names.update(arg.arg for arg in fn.args.posonlyargs)
    return names & TOGGLES


def _callee_names(call: ast.Call) -> set[str]:
    """Names under which a call site might refer to the contract callable."""
    func = call.func
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    return set()


class _Contract:
    __slots__ = ("name", "toggle", "source", "node")

    def __init__(
        self,
        name: str,
        toggle: str,
        source: SourceFile,
        node: ast.AST,
    ) -> None:
        self.name = name
        self.toggle = toggle
        self.source = source
        self.node = node


@register
class KernelParityChecker(Checker):
    id = "kernel-parity"
    description = (
        "every function exposing a reference toggle (use_batch/use_bulk/"
        "use_kernels/fused/parallel) must have a tests/ call that passes "
        "that toggle explicitly — fast paths stay bit-matched to their "
        "scalar references only while something compares them"
    )
    severity = "error"

    def check_project(self, project: Project) -> list[Finding]:
        contracts = self._collect_contracts(project)
        if not contracts:
            return []
        covered = self._collect_coverage(project)
        findings: list[Finding] = []
        for contract in contracts:
            if (contract.name, contract.toggle) in covered:
                continue
            findings.append(
                self.finding(
                    contract.source,
                    contract.node,
                    f"`{contract.name}` exposes the reference toggle "
                    f"`{contract.toggle}=` but no test in tests/ calls it "
                    f"with `{contract.toggle}=` passed explicitly; add a "
                    "parity test pinning both the kernel and the reference "
                    "path",
                    key_context=f"{contract.name}.{contract.toggle}",
                )
            )
        return findings

    # ------------------------------------------------------------------
    @staticmethod
    def _collect_contracts(project: Project) -> list[_Contract]:
        contracts: list[_Contract] = []
        for source in project.src_files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if (
                            isinstance(
                                item, (ast.FunctionDef, ast.AsyncFunctionDef)
                            )
                            and item.name == "__init__"
                        ):
                            for toggle in sorted(_signature_toggles(item)):
                                contracts.append(
                                    _Contract(node.name, toggle, source, node)
                                )
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name.startswith("_"):
                        continue  # internal helpers inherit their caller's test
                    for toggle in sorted(_signature_toggles(node)):
                        contracts.append(
                            _Contract(node.name, toggle, source, node)
                        )
        return contracts

    @staticmethod
    def _collect_coverage(project: Project) -> set[tuple[str, str]]:
        covered: set[tuple[str, str]] = set()
        for source in project.test_files:
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                passed = {
                    kw.arg for kw in node.keywords if kw.arg in TOGGLES
                }
                if not passed:
                    continue
                for name in _callee_names(node):
                    for toggle in passed:
                        covered.add((name, toggle))
        return covered
