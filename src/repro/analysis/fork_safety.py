"""Fork-safety checker: process-global resources must survive ``fork()``.

PRs 7–8 made the repro genuinely multi-process: ``service/pool.py`` forks
pre-fork workers with ``os.fork`` and ``hashjoin/parallel.py`` forks pair
workers through a ``ProcessPoolExecutor``.  A forked child inherits a
byte-copy of the parent — including every module-level lock (possibly held
by a thread that did not survive the fork), every SQLite connection (which
SQLite explicitly forbids using across a fork), every started thread handle
(the thread itself is gone), and every executor (its workers belong to the
parent).  Using any of these in the child is a latent deadlock or
corruption; the only safe patterns are *re-initialise after fork*
(``os.register_at_fork``) or *create post-fork only*.

This cross-file pass enforces that contract over the repo graph:

1. **Fork boundaries** — modules calling ``os.fork``,
   ``ProcessPoolExecutor``, ``multiprocessing.get_context`` /
   ``Process`` / ``Pool``.
2. **Reachability** — the transitive import closure of each fork module:
   everything in it exists in the parent at fork time and is inherited by
   the child.  (An under-approximation of "any loaded module", which keeps
   findings actionable.)
3. **Resources** — in every module of the closure:

   * *module-level resources*: names assigned (at top level, or via
     ``global`` in a function) from a resource factory — ``make_lock`` /
     ``threading.Lock``-family, ``sqlite3.connect``, ``socket.socket``,
     ``threading.Thread``, ``ProcessPoolExecutor``, ``asyncio`` loop
     constructors, ``np.random.default_rng`` — or from a *resource-owning
     class*, or module-level containers that functions fill with such
     values (``_POOLS[key] = PairPool(...)``).
   * *fork-hostile classes*: classes whose methods store a fork-hostile
     resource (SQLite connection, socket, thread, pool, loop, open file)
     on ``self`` — instances alive at fork time cross the boundary.  Locks
     and RNGs owned by instances are *not* flagged: per-instance state is
     the owner's problem and flagging every lock-owning class would bury
     the signal.  ``self.<attr> = self.<helper>()`` stores a resource when
     the helper returns a factory call, directly or through a local; the
     pass follows such helpers one level deep.

4. **Clearing** — a resource is fine when its module registers an
   ``os.register_at_fork`` hook that (for module-level names) references
   the name directly or through a registered local handler, or (for
   classes) exists at all in the defining module; or when the fork module
   itself touches it in the statically recognisable child branch
   (``pid = os.fork()`` … ``if pid == 0:``) — closing inherited listeners
   in the child is exactly the right move and must not be flagged.

Everything unknown resolves to *no finding*: the pass under-approximates
reachability and resolution, so every finding it does emit is worth
reading.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .core import Checker, Finding, Project, SourceFile, dotted_name, register
from .graph import ModuleGraph, ModuleInfo

__all__ = ["ForkSafetyChecker", "resource_kind_of"]

#: Fully qualified factory -> resource kind.  Matching is done on the
#: alias-resolved dotted target (``np.random.default_rng`` resolves through
#: ``import numpy as np``); the bare-name fallbacks cover from-imports.
_FACTORY_KINDS: dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "repro.locking.make_lock": "lock",
    "make_lock": "lock",
    "sqlite3.connect": "sqlite3.Connection",
    "socket.socket": "socket",
    "socket.socketpair": "socket",
    "socket.create_connection": "socket",
    "threading.Thread": "thread",
    "concurrent.futures.ProcessPoolExecutor": "process pool",
    "ProcessPoolExecutor": "process pool",
    "multiprocessing.Pool": "process pool",
    "concurrent.futures.ThreadPoolExecutor": "thread pool",
    "ThreadPoolExecutor": "thread pool",
    "asyncio.new_event_loop": "event loop",
    "asyncio.get_event_loop": "event loop",
    "numpy.random.default_rng": "numpy RNG",
    "numpy.random.Generator": "numpy RNG",
    "open": "open file",
}

#: Resource kinds that make a *class* fork-hostile when stored on ``self``.
#: Locks/RNGs owned by instances are deliberately excluded (see module doc).
_HOSTILE_CLASS_KINDS = frozenset(
    {"sqlite3.Connection", "socket", "thread", "process pool", "thread pool",
     "event loop", "open file"}
)

#: Call targets that establish a fork boundary in a module.
_FORK_CALLS = frozenset(
    {
        "os.fork",
        "os.forkpty",
        "concurrent.futures.ProcessPoolExecutor",
        "ProcessPoolExecutor",
        "multiprocessing.get_context",
        "multiprocessing.Process",
        "multiprocessing.Pool",
    }
)


def resource_kind_of(graph: ModuleGraph, info: ModuleInfo, call: ast.Call) -> str | None:
    """The resource kind a call constructs, or ``None``."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    target = graph.resolve_target(info, dotted)
    kind = _FACTORY_KINDS.get(target)
    if kind is not None:
        return kind
    return _FACTORY_KINDS.get(dotted)


def _is_fork_call(graph: ModuleGraph, info: ModuleInfo, call: ast.Call) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    target = graph.resolve_target(info, dotted)
    return target in _FORK_CALLS or dotted in _FORK_CALLS


@dataclass
class _Resource:
    """One flagged-or-cleared process-global resource."""

    module: ModuleInfo
    name: str  # module-level name, or ``Class.attr`` for class resources
    kind: str
    node: ast.AST
    is_class: bool = False


@dataclass
class _ModuleFacts:
    fork_sites: list[ast.Call] = field(default_factory=list)
    resources: list[_Resource] = field(default_factory=list)
    #: Names referenced by ``os.register_at_fork`` handlers in this module.
    atfork_names: set[str] = field(default_factory=set)
    has_atfork: bool = False
    #: Names / ``self.attr`` strings referenced inside ``if pid == 0:``
    #: child branches of this module's own fork sites.
    child_branch_names: set[str] = field(default_factory=set)


class ForkSafetyChecker(Checker):
    id = "fork-safety"
    description = (
        "process-global resources (locks, SQLite connections, sockets, "
        "threads, pools, loops, RNGs) reachable across a fork boundary "
        "must have an os.register_at_fork re-init path or be created "
        "post-fork"
    )
    severity = "error"

    def check_project(self, project: Project) -> list[Finding]:
        graph = project.graph()
        facts = {info.name: self._scan_module(graph, info) for info in graph.iter_modules()}

        fork_modules = [name for name, f in facts.items() if f.fork_sites]
        if not fork_modules:
            return []
        reachable = graph.closure(fork_modules)
        fork_rels = sorted(
            graph.modules[name].source.rel for name in fork_modules
        )

        findings: list[Finding] = []
        for module_name in sorted(reachable):
            info = graph.modules[module_name]
            f = facts[module_name]
            for resource in f.resources:
                if self._is_cleared(resource, f, facts, fork_modules):
                    continue
                findings.append(self._finding_for(resource, fork_rels))
        return findings

    # ------------------------------------------------------------------
    # Clearing rules.
    # ------------------------------------------------------------------
    def _is_cleared(
        self,
        resource: _Resource,
        own: _ModuleFacts,
        facts: dict[str, _ModuleFacts],
        fork_modules: list[str],
    ) -> bool:
        if resource.is_class:
            # A class-level resource is cleared by any at-fork registration
            # in its defining module (the registered handler is that
            # module's re-init story), or by the fork module touching the
            # attribute in its child branch.
            if own.has_atfork:
                return True
            attr = resource.name.split(".", 1)[1] if "." in resource.name else ""
            for fork_module in fork_modules:
                if f"self.{attr}" in facts[fork_module].child_branch_names:
                    return True
            return False
        if resource.name in own.atfork_names:
            return True
        for fork_module in fork_modules:
            if resource.name in facts[fork_module].child_branch_names:
                return True
        return False

    def _finding_for(self, resource: _Resource, fork_rels: list[str]) -> Finding:
        where = ", ".join(fork_rels)
        if resource.is_class:
            message = (
                f"class `{resource.name.split('.', 1)[0]}` stores a "
                f"{resource.kind} on `self.{resource.name.split('.', 1)[1]}`; "
                f"instances alive when {where} forks are inherited by the "
                f"child with a dead/shared {resource.kind} — register an "
                f"`os.register_at_fork` re-init path in this module or "
                f"guarantee post-fork construction"
            )
        else:
            message = (
                f"module-level {resource.kind} `{resource.name}` is "
                f"inherited across the fork boundary in {where} without an "
                f"`os.register_at_fork` re-init path; a child forked while "
                f"another thread uses it inherits unusable state"
            )
        return self.finding(
            resource.module.source,
            resource.node,
            message,
            key_context=resource.name,
        )

    # ------------------------------------------------------------------
    # Per-module scan.
    # ------------------------------------------------------------------
    def _scan_module(self, graph: ModuleGraph, info: ModuleInfo) -> _ModuleFacts:
        facts = _ModuleFacts()
        tree = info.source.tree

        # Pass A: fork sites + at-fork registrations (anywhere in module).
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_fork_call(graph, info, node):
                facts.fork_sites.append(node)
            dotted = dotted_name(node.func)
            if dotted is not None and graph.resolve_target(info, dotted) in (
                "os.register_at_fork",
            ):
                facts.has_atfork = True
                facts.atfork_names.update(self._atfork_referenced(info, node))

        # Pass B: module-level resource assignments.
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                self._record_assignment(graph, info, facts, targets, value, None)

        # Pass C: class resources + function bodies (global assignments,
        # container stores, child branches).
        class_kinds = {
            cls.name: self._class_resource_kinds(graph, info, cls)
            for cls in info.classes.values()
        }
        # Record class resources as findings-to-be (anchor: the assignment).
        for cls in info.classes.values():
            for attr, (kind, node) in self._class_resource_attrs(
                graph, info, cls
            ).items():
                if kind in _HOSTILE_CLASS_KINDS:
                    facts.resources.append(
                        _Resource(info, f"{cls.name}.{attr}", kind, node, is_class=True)
                    )

        for fn in self._all_functions(tree):
            self._scan_function(graph, info, facts, fn, class_kinds)

        return facts

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _all_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _record_assignment(
        self,
        graph: ModuleGraph,
        info: ModuleInfo,
        facts: _ModuleFacts,
        targets: list[ast.expr],
        value: ast.expr | None,
        class_kinds: dict[str, set[str]] | None,
    ) -> None:
        if not isinstance(value, ast.Call):
            return
        kind = resource_kind_of(graph, info, value)
        if kind is None and class_kinds is not None:
            kind = self._instantiated_class_kind(graph, info, value, class_kinds)
        if kind is None:
            kind = self._instantiated_resource_class(graph, info, value)
        if kind is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                facts.resources.append(_Resource(info, target.id, kind, value))

    def _instantiated_class_kind(
        self,
        graph: ModuleGraph,
        info: ModuleInfo,
        call: ast.Call,
        class_kinds: dict[str, set[str]],
    ) -> str | None:
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        kinds = class_kinds.get(dotted)
        if kinds:
            return sorted(kinds)[0]
        return None

    def _instantiated_resource_class(
        self, graph: ModuleGraph, info: ModuleInfo, call: ast.Call
    ) -> str | None:
        """Kind when a call instantiates a project class owning resources."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        resolved = graph.resolve_symbol(info, dotted)
        if resolved is None:
            return None
        owner, node = resolved
        if not isinstance(node, ast.ClassDef):
            return None
        kinds = self._class_resource_kinds(graph, owner, node)
        if kinds:
            return sorted(kinds)[0]
        return None

    def _class_resource_kinds(
        self, graph: ModuleGraph, info: ModuleInfo, cls: ast.ClassDef
    ) -> set[str]:
        return {
            kind
            for kind, _ in self._class_resource_attrs(graph, info, cls).values()
        }

    def _returned_resource_kind(
        self,
        graph: ModuleGraph,
        info: ModuleInfo,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> str | None:
        """Kind a helper method returns from a resource factory, or ``None``.

        ``return sqlite3.connect(...)`` counts, and so does returning a local
        assigned from one (``conn = sqlite3.connect(...)`` ... ``return
        conn``).  A helper returning another helper's result is not followed.
        """
        locals_: dict[str, str] = {}
        returned: list[ast.expr] = []
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                node.value, ast.Call
            ):
                kind = resource_kind_of(graph, info, node.value)
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if kind is not None and isinstance(target, ast.Name):
                        locals_[target.id] = kind
            elif isinstance(node, ast.Return) and node.value is not None:
                returned.append(node.value)
        for value in returned:
            if isinstance(value, ast.Call):
                kind = resource_kind_of(graph, info, value)
                if kind is not None:
                    return kind
            elif isinstance(value, ast.Name) and value.id in locals_:
                return locals_[value.id]
        return None

    @staticmethod
    def _self_helper_kind(call: ast.Call, helper_kinds: dict[str, str]) -> str | None:
        """Kind of ``self.<helper>()`` when the helper returns a resource."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return helper_kinds.get(func.attr)
        return None

    def _class_resource_attrs(
        self, graph: ModuleGraph, info: ModuleInfo, cls: ast.ClassDef
    ) -> dict[str, tuple[str, ast.AST]]:
        """``attr -> (kind, node)`` for resources stored on ``self``.

        ``self.<attr> = self.<helper>()`` counts when the helper, a method of
        the same class, returns a resource (see
        :meth:`_returned_resource_kind`).
        """
        helper_kinds: dict[str, str] = {}
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = self._returned_resource_kind(graph, info, method)
                if kind is not None:
                    helper_kinds[method.name] = kind
        out: dict[str, tuple[str, ast.AST]] = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            locals_: dict[str, tuple[str, ast.AST]] = {}
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    value = node.value
                    if not isinstance(value, ast.Call):
                        continue
                    kind = resource_kind_of(graph, info, value)
                    if kind is None:
                        kind = self._self_helper_kind(value, helper_kinds)
                    if kind is None:
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            out[target.attr] = (kind, value)
                        elif isinstance(target, ast.Name):
                            locals_[target.id] = (kind, value)
                # Container store: ``self.<attr>.append(local)`` or
                # ``self.<attr>[k] = local`` where local holds a resource.
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in ("append", "add")
                        and isinstance(func.value, ast.Attribute)
                        and isinstance(func.value.value, ast.Name)
                        and func.value.value.id == "self"
                        and len(node.args) == 1
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in locals_
                    ):
                        kind, value = locals_[node.args[0].id]
                        out[func.value.attr] = (kind, value)
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Attribute)
                            and isinstance(target.value.value, ast.Name)
                            and target.value.value.id == "self"
                            and isinstance(node.value, ast.Name)
                            and node.value.id in locals_
                        ):
                            kind, value = locals_[node.value.id]
                            out[target.value.attr] = (kind, value)
        return out

    def _scan_function(
        self,
        graph: ModuleGraph,
        info: ModuleInfo,
        facts: _ModuleFacts,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        class_kinds: dict[str, set[str]],
    ) -> None:
        global_names = {
            name
            for node in ast.walk(fn)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        locals_: dict[str, tuple[str, ast.AST]] = {}
        fork_result_names: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                if isinstance(value, ast.Call):
                    if _is_fork_call(graph, info, value):
                        for target in targets:
                            if isinstance(target, ast.Name):
                                fork_result_names.add(target.id)
                    kind = resource_kind_of(graph, info, value)
                    if kind is None:
                        kind = self._instantiated_class_kind(
                            graph, info, value, class_kinds
                        )
                    if kind is None:
                        kind = self._instantiated_resource_class(graph, info, value)
                    if kind is not None:
                        for target in targets:
                            if isinstance(target, ast.Name):
                                if target.id in global_names:
                                    facts.resources.append(
                                        _Resource(info, target.id, kind, value)
                                    )
                                else:
                                    locals_[target.id] = (kind, value)
                # Module-level container store from a function body:
                # ``_POOLS[key] = pool``.
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in info.module_level_names
                        and isinstance(node.value, ast.Name)
                        and node.value.id in locals_
                    ):
                        kind, value = locals_[node.value.id]
                        facts.resources.append(
                            _Resource(info, target.value.id, kind, value)
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("append", "add")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in info.module_level_names
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in locals_
                ):
                    kind, value = locals_[node.args[0].id]
                    facts.resources.append(
                        _Resource(info, func.value.id, kind, value)
                    )
            elif isinstance(node, ast.If) and fork_result_names:
                if self._is_child_branch_test(node.test, fork_result_names):
                    for child in node.body:
                        for sub in ast.walk(child):
                            name = self._referenced_name(sub)
                            if name is not None:
                                facts.child_branch_names.add(name)

    @staticmethod
    def _is_child_branch_test(test: ast.expr, fork_names: set[str]) -> bool:
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id in fork_names
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == 0
        )

    @staticmethod
    def _referenced_name(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        return None

    def _atfork_referenced(self, info: ModuleInfo, call: ast.Call) -> set[str]:
        """Module-level names an at-fork registration re-initialises.

        Direct ``Name``/attribute arguments count; when an argument names a
        same-module function, every module-level name that function's body
        references (reads, writes, or declares ``global``) counts too — the
        handler *is* the re-init path.
        """
        names: set[str] = set()
        args: list[ast.expr] = list(call.args)
        args.extend(kw.value for kw in call.keywords)
        for arg in args:
            dotted = dotted_name(arg)
            if dotted is None:
                continue
            names.add(dotted.split(".", 1)[0])
            handler = info.functions.get(dotted.split(".", 1)[0])
            if handler is not None:
                for node in ast.walk(handler):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Global):
                        names.update(node.names)
        return names


register(ForkSafetyChecker)
