"""Repo-graph phase: module identity, imports, and symbol resolution.

ISSUE 6's checkers were either per-file or did dumb name matching across
the project.  The ``fork-safety`` pass needs real whole-program structure:
which module a file *is*, which modules it (transitively) imports, and what
a dotted name used in one module resolves to in another.
:class:`ModuleGraph` computes all of that once per lint run —
:meth:`repro.analysis.core.Project.graph` caches it.

Module naming: a file's dotted module name is its lint-relative path with a
leading ``src/`` stripped, ``/`` replaced by ``.``, and ``__init__``
collapsed onto its package (``src/repro/hashjoin/parallel.py`` →
``repro.hashjoin.parallel``).  Fixture projects built from bare relative
paths get the same treatment, so test fixtures exercise the identical
resolution machinery.

Resolution is deliberately *static and partial*: only imports of modules
that exist in the project resolve; everything else (stdlib, numpy) is kept
as an opaque dotted target so callers can still classify e.g.
``threading.Lock`` by name.  ``None`` answers mean "unknown", and every
pass built on this graph treats unknown as not-a-finding — the graph under-
approximates, the checkers stay precise.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import SourceFile

__all__ = ["ModuleGraph", "ModuleInfo", "module_name_for"]


def module_name_for(rel: str) -> str:
    """Dotted module name for a lint-relative posix path."""
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ModuleInfo:
    """One project module: its source, imports, and top-level symbols."""

    def __init__(self, source: SourceFile, name: str) -> None:
        self.source = source
        self.name = name
        self.package = name.rsplit(".", 1)[0] if "." in name else ""
        #: Project-internal modules this module imports (anywhere, including
        #: function-local imports — worker entry points import lazily).
        self.imports: set[str] = set()
        #: Local binding -> fully dotted target ("np" -> "numpy",
        #: "make_lock" -> "repro.locking.make_lock").
        self.aliases: dict[str, str] = {}
        #: Top-level defs and classes by name.
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        #: Names assigned at module level (targets of top-level Assign /
        #: AnnAssign, plus names declared ``global`` inside functions).
        self.module_level_names: set[str] = set()
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.module_level_names.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                self.module_level_names.add(element.id)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Global):
                self.module_level_names.update(node.names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModuleInfo({self.name!r})"


class ModuleGraph:
    """Import edges and symbol resolution over a set of project files."""

    def __init__(self, files: Iterable[SourceFile]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_rel: dict[str, ModuleInfo] = {}
        for source in files:
            info = ModuleInfo(source, module_name_for(source.rel))
            self.modules[info.name] = info
            self.by_rel[source.rel] = info
        for info in self.modules.values():
            self._link_imports(info)

    # ------------------------------------------------------------------
    # Import linking.
    # ------------------------------------------------------------------
    def _link_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        info.aliases[head] = head
                    self._add_edge(info, alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    info.aliases[bound] = target
                    # ``from pkg import module`` imports a module, not a
                    # symbol; link the edge to whichever exists.
                    if target in self.modules:
                        self._add_edge(info, target)
                    else:
                        self._add_edge(info, base)

    def _from_base(self, info: ModuleInfo, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or ""
        # Relative import: climb ``level`` packages from this module.
        anchor = info.name.split(".")
        if not self._is_package(info):
            anchor = anchor[:-1]
        climb = node.level - 1
        if climb > len(anchor):
            return None
        base = anchor[: len(anchor) - climb]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def _is_package(self, info: ModuleInfo) -> bool:
        return info.source.rel.endswith("__init__.py")

    def _add_edge(self, info: ModuleInfo, target: str) -> None:
        # Record only project-internal edges; walk up the dotted chain so
        # ``import repro.hashjoin.parallel`` links the leaf module.
        name = target
        while name:
            if name in self.modules and name != info.name:
                info.imports.add(name)
                return
            name = name.rsplit(".", 1)[0] if "." in name else ""

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def closure(self, roots: Iterable[str]) -> set[str]:
        """Project modules transitively imported by ``roots`` (inclusive)."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.modules]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.modules[name].imports - seen)
        return seen

    def resolve_target(self, info: ModuleInfo, dotted: str) -> str:
        """Fully qualified dotted target for a name used inside ``info``.

        ``np.random.default_rng`` → ``numpy.random.default_rng``;
        ``make_lock`` (from-imported) → ``repro.locking.make_lock``; names
        with no known alias come back unchanged.
        """
        head, _, rest = dotted.partition(".")
        target = info.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_symbol(
        self, info: ModuleInfo, dotted: str
    ) -> tuple[ModuleInfo, ast.AST] | None:
        """The defining module and AST node for a dotted use, when internal.

        Handles same-module symbols, from-imported symbols, and attribute
        access through an imported module (``partition.join_partition_pair``).
        Returns ``None`` for anything the project does not define.
        """
        head = dotted.split(".", 1)[0]
        if head not in info.aliases:
            node = self._top_level(info, dotted)
            return (info, node) if node is not None else None
        target = self.resolve_target(info, dotted)
        # Longest project-module prefix of the target owns the symbol.
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            module_name = ".".join(parts[:cut])
            if module_name in self.modules:
                owner = self.modules[module_name]
                remainder = ".".join(parts[cut:])
                if not remainder:
                    return None  # the target IS a module, not a symbol
                node = self._top_level(owner, remainder)
                return (owner, node) if node is not None else None
        return None

    @staticmethod
    def _top_level(info: ModuleInfo, dotted: str) -> ast.AST | None:
        name = dotted.split(".", 1)[0]
        if name in info.functions:
            return info.functions[name]
        if name in info.classes:
            return info.classes[name]
        return None

    def iter_modules(self) -> Iterator[ModuleInfo]:
        yield from self.modules.values()
