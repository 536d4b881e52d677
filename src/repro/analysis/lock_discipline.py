"""Lock-discipline checker: a lightweight static race detector.

The shared serving state — :class:`~repro.costmodel.batch.SharedEstimateCache`,
:class:`~repro.service.service.PlanService`'s counters — is guarded by
``threading`` locks by *convention*: every public entry point wraps its work
in ``with self._lock:``.  Nothing enforced that convention, so a new public
method (or an inherited one the thread-safe subclass forgot to override)
could read half-updated counters without anyone noticing.

The checker works per class:

1. **Lock discovery** — a class *owns* a lock when one of its methods
   assigns ``self.<attr> = threading.Lock()`` / ``threading.RLock()`` or
   ``self.<attr> = make_lock(...)`` (the shared helper in
   :mod:`repro.locking`).  Classes without a lock are skipped entirely —
   single-threaded classes are free to do whatever they like.
2. **Guard inference** — every ``self.X`` read or write that appears inside
   a ``with self.<lock>:`` body (in any of the class's own methods) marks
   ``X`` as lock-guarded.  The guarded set is *inferred*, not declared: the
   locked bodies are the ground truth of what the author considers shared.
3. **Violation scan** — every *public* method of the class's effective
   surface (its own methods plus any method inherited from a same-file base
   class and not overridden) is walked; an access to a guarded attribute
   outside any ``with self.<lock>:`` block is a finding.  This catches the
   classic thread-safe-subclass hole: a base-class property like
   ``hit_rate`` that reads two counters unlocked and is *not* shadowed by a
   locked override.

Conventions the checker understands (and that the codebase follows):

* ``__init__``/``__post_init__``/``__new__`` are exempt — construction
  happens-before publication to other threads.
* Private methods (leading ``_``, not dunder) are exempt: the codebase
  convention is *public surface takes the lock, private helpers assume the
  caller holds it* (``EstimateCache._evict`` is only ever reached from
  locked wrappers).  Dunder methods are public surface (``__len__`` on a
  shared cache is called by arbitrary threads) and are checked.
* Method *calls* (``self.foo(...)``) are dispatch, not state access, and
  are not treated as attribute reads.

ISSUE 9 adds a second, simpler rule: **raw lock construction**.  Every
lock must be created through :func:`repro.locking.make_lock` so it carries
a name — the node id the runtime lock-order sanitizer files it under.  A
direct ``threading.Lock()`` / ``RLock()`` / ``Condition`` / ``Semaphore``
call anywhere outside the module that *defines* ``make_lock`` is a
finding: the sanitizer could never wrap that lock, so its orderings would
go unchecked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .core import (
    Checker,
    Finding,
    SourceFile,
    is_self_attribute,
    iter_methods,
    register,
)

__all__ = ["LockDisciplineChecker"]

#: Call targets recognised as creating a lock.
_LOCK_FACTORIES = {"Lock", "RLock", "make_lock"}
#: Raw ``threading`` constructors that must go through ``make_lock``.
_RAW_LOCK_NAMES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
#: Methods exempt from the violation scan (construction happens-before).
_CONSTRUCTION = {"__init__", "__post_init__", "__new__", "__init_subclass__"}


def _is_lock_factory(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    return False


def _locked_attr(item: ast.withitem) -> str | None:
    """The lock attribute name when a with-item is ``self.<attr>``."""
    return is_self_attribute(item.context_expr)


@dataclass
class _ClassInfo:
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    guarded: set[str] = field(default_factory=set)
    method_names: set[str] = field(default_factory=set)
    base_names: list[str] = field(default_factory=list)


def _collect_class(node: ast.ClassDef) -> _ClassInfo:
    info = _ClassInfo(node=node)
    for base in node.bases:
        if isinstance(base, ast.Name):
            info.base_names.append(base.id)
    for method in iter_methods(node):
        info.method_names.add(method.name)
        for stmt in ast.walk(method):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                value = stmt.value
                if isinstance(value, ast.Call) and _is_lock_factory(value):
                    for target in targets:
                        attr = is_self_attribute(target)
                        if attr is not None:
                            info.lock_attrs.add(attr)
    if not info.lock_attrs:
        return info
    for method in iter_methods(node):
        for stmt in ast.walk(method):
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                locks = {_locked_attr(item) for item in stmt.items}
                if locks & info.lock_attrs:
                    _collect_guarded(stmt, info)
    info.guarded -= info.lock_attrs
    info.guarded -= info.method_names
    return info


def _collect_guarded(with_stmt: ast.With | ast.AsyncWith, info: _ClassInfo) -> None:
    call_funcs = {
        id(node.func)
        for body_stmt in with_stmt.body
        for node in ast.walk(body_stmt)
        if isinstance(node, ast.Call)
    }
    for body_stmt in with_stmt.body:
        for node in ast.walk(body_stmt):
            attr = is_self_attribute(node)
            if attr is not None and id(node) not in call_funcs:
                info.guarded.add(attr)


class _MethodScanner(ast.NodeVisitor):
    """Find guarded-attribute accesses outside any lock in one method."""

    def __init__(self, lock_attrs: set[str], guarded: set[str]) -> None:
        self.lock_attrs = lock_attrs
        self.guarded = guarded
        self.lock_depth = 0
        self.hits: list[tuple[ast.Attribute, str]] = []
        self._call_funcs: set[int] = set()

    def scan(self, method: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._call_funcs = {
            id(node.func)
            for node in ast.walk(method)
            if isinstance(node, ast.Call)
        }
        for stmt in method.body:
            self.visit(stmt)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        locks = {_locked_attr(item) for item in node.items}
        takes_lock = bool(locks & self.lock_attrs)
        for item in node.items:
            self.visit(item)
        if takes_lock:
            self.lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if takes_lock:
            self.lock_depth -= 1

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = is_self_attribute(node)
        if (
            attr is not None
            and attr in self.guarded
            and self.lock_depth == 0
            and id(node) not in self._call_funcs
        ):
            self.hits.append((node, attr))
        self.generic_visit(node)


def _is_public_surface(name: str) -> bool:
    if name in _CONSTRUCTION:
        return False
    if name.startswith("__") and name.endswith("__"):
        return True  # dunders are public surface (len(), repr(), ...)
    return not name.startswith("_")


@register
class LockDisciplineChecker(Checker):
    id = "lock-discipline"
    description = (
        "public methods of lock-owning classes must access lock-guarded "
        "attributes under the lock (guards inferred from `with self._lock:` "
        "bodies; same-file inherited methods are checked too)"
    )
    severity = "error"

    def check_file(self, source: SourceFile) -> list[Finding]:
        classes: dict[str, _ClassInfo] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = _collect_class(node)

        findings: list[Finding] = self._raw_lock_findings(source)
        for info in classes.values():
            if not info.lock_attrs:
                continue
            findings.extend(self._check_class(source, info, classes))
        return findings

    # ------------------------------------------------------------------
    def _raw_lock_findings(self, source: SourceFile) -> list[Finding]:
        """Flag raw ``threading.Lock()``-family construction sites.

        The module that defines ``make_lock`` is exempt — it is the one
        place raw constructors are supposed to live.
        """
        tree = source.tree
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "make_lock"
            ):
                return []
        from_threading = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "threading"
            for alias in node.names
            if alias.name in _RAW_LOCK_NAMES
        }
        findings: list[Finding] = []

        def scan(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                child_scope = scope
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    child_scope = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.Call):
                    raw = self._raw_lock_kind(child, from_threading)
                    if raw is not None:
                        findings.append(
                            self.finding(
                                source,
                                child,
                                f"raw `threading.{raw}()` construction; use "
                                f"`make_lock(name)` from repro.locking so the "
                                f"runtime lock-order sanitizer sees a named "
                                f"lock",
                                key_context=f"raw-lock:{scope or '<module>'}",
                            )
                        )
                scan(child, child_scope)

        scan(tree, "")
        return findings

    @staticmethod
    def _raw_lock_kind(call: ast.Call, from_threading: set[str]) -> str | None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
            and func.attr in _RAW_LOCK_NAMES
        ):
            return func.attr
        if isinstance(func, ast.Name) and func.id in from_threading:
            return func.id
        return None

    # ------------------------------------------------------------------
    def _check_class(
        self,
        source: SourceFile,
        info: _ClassInfo,
        classes: dict[str, _ClassInfo],
    ) -> list[Finding]:
        surface: dict[str, tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = {}
        # Same-file base classes first (nearest-ancestor wins), own last.
        for ancestor in reversed(self._ancestry(info, classes)):
            for method in iter_methods(ancestor.node):
                surface[method.name] = (ancestor.node.name, method)
        findings: list[Finding] = []
        for name, (owner, method) in sorted(surface.items()):
            if not _is_public_surface(name):
                continue
            scanner = _MethodScanner(info.lock_attrs, info.guarded)
            scanner.scan(method)
            for node, attr in scanner.hits:
                where = (
                    f"{owner}.{name}"
                    if owner == info.node.name
                    else f"{owner}.{name} (inherited by {info.node.name})"
                )
                lock = sorted(info.lock_attrs)[0]
                findings.append(
                    self.finding(
                        source,
                        node,
                        f"`self.{attr}` is guarded by `self.{lock}` elsewhere "
                        f"in {info.node.name} but accessed without the lock "
                        f"in {where}; wrap the access in `with self.{lock}:` "
                        f"(or override the method with a locked version)",
                        key_context=f"{info.node.name}.{name}.{attr}",
                    )
                )
        return findings

    @staticmethod
    def _ancestry(
        info: _ClassInfo, classes: dict[str, _ClassInfo]
    ) -> list[_ClassInfo]:
        """The class plus its same-file ancestors, nearest first."""
        out: list[_ClassInfo] = []
        seen: set[str] = set()
        stack = [info]
        while stack:
            current = stack.pop(0)
            if current.node.name in seen:
                continue
            seen.add(current.node.name)
            out.append(current)
            for base in current.base_names:
                if base in classes:
                    stack.append(classes[base])
        return out
