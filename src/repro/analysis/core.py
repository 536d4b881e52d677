"""Core of the ``repro lint`` static-analysis framework (ISSUE 6 tentpole).

Five PRs of vectorized kernels and a concurrent serving tier left the
repro's correctness resting on *conventions*: every kernel keeps a
bit-matched scalar reference behind a toggle, every shared cache attribute
is only touched under its lock.  This package checks those conventions
statically.

The pieces:

* :class:`Finding` — one structured diagnostic: checker id, severity,
  ``file:line:col`` location, message, and a *stable key* (derived from the
  enclosing symbol, never from line numbers) used by the allowlist so a
  grandfathered finding survives unrelated edits to the file.
* :class:`SourceFile` — a parsed module plus its comment-derived metadata:
  inline ``# repro: ignore[checker-id]`` suppressions, the module-level
  ``# repro: kernel`` marker, and per-function ``# repro: reference``
  markers (scalar reference implementations are exempt from the NumPy
  hygiene rules — keeping a deliberately scalar twin is the whole point of
  the kernel-parity contract).
* :class:`Checker` — the visitor-registry base: subclasses declare an
  ``id``/``description`` and implement :meth:`check_file` (per-file pass)
  and/or :meth:`check_project` (cross-file pass, e.g. matching kernel
  toggles in ``src/`` against parity tests in ``tests/``).

Suppression syntax (documented in ``docs/static-analysis.md``)::

    self.hits += 1  # repro: ignore[lock-discipline] counter is advisory
    # repro: ignore-file[numpy-hygiene]

An ignore comment suppresses matching findings reported *on its line*;
``ignore-file`` suppresses a checker for the whole module.  ``ignore[*]``
suppresses every checker.  Suppressed findings are counted (and shown with
``--show-suppressed``) so a gate can audit them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .graph import ModuleGraph

__all__ = [
    "Checker",
    "Finding",
    "Project",
    "SourceFile",
    "all_checkers",
    "get_checker",
    "register",
]

#: ``# repro: ignore[id, id2]`` — suppress findings on this line.
_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore\[([\w\-*,\s]+)\]")
#: ``# repro: ignore-file[id]`` — suppress a checker for the whole module.
_IGNORE_FILE_RE = re.compile(r"#\s*repro:\s*ignore-file\[([\w\-*,\s]+)\]")
#: ``# repro: kernel`` — mark a module as a vectorized kernel (enables the
#: NumPy hygiene rules).
_KERNEL_RE = re.compile(r"#\s*repro:\s*kernel\b")
#: ``# repro: reference`` — mark a function as a deliberately scalar
#: reference implementation (exempt from NumPy hygiene).
_REFERENCE_RE = re.compile(r"#\s*repro:\s*reference\b")


@dataclass(frozen=True)
class Finding:
    """One structured diagnostic emitted by a checker."""

    checker: str
    severity: str  # "error" | "warning"
    path: str  # posix-relative to the lint root
    line: int
    col: int
    message: str
    #: Stable identity for allowlisting: ``checker:path:symbol-context``.
    #: Never derived from line numbers, so entries survive unrelated edits.
    key: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        return {
            "checker": self.checker,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "key": self.key,
        }


class SourceFile:
    """A parsed Python module plus its lint-relevant comment metadata."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self._line_ignores: dict[int, set[str]] = {}
        self._file_ignores: set[str] = set()
        self.is_kernel = False
        self._reference_lines: set[int] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _IGNORE_FILE_RE.search(line)
            if match:
                self._file_ignores.update(_split_ids(match.group(1)))
            else:
                match = _IGNORE_RE.search(line)
                if match:
                    self._line_ignores[lineno] = _split_ids(match.group(1))
            if _KERNEL_RE.search(line):
                self.is_kernel = True
            if _REFERENCE_RE.search(line):
                self._reference_lines.add(lineno)

    # ------------------------------------------------------------------
    def is_suppressed(self, finding: Finding) -> bool:
        """Whether an inline/file ignore comment covers this finding."""
        if self._matches(self._file_ignores, finding.checker):
            return True
        ids = self._line_ignores.get(finding.line)
        return ids is not None and self._matches(ids, finding.checker)

    @staticmethod
    def _matches(ids: set[str], checker: str) -> bool:
        return "*" in ids or checker in ids

    def is_reference(self, node: ast.AST) -> bool:
        """Whether a function is marked ``# repro: reference``.

        The marker may sit on the ``def`` line itself, on the line directly
        above it, or on a decorator line.
        """
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        candidates = {node.lineno, node.lineno - 1}
        for decorator in node.decorator_list:
            candidates.add(decorator.lineno)
            candidates.add(decorator.lineno - 1)
        return bool(candidates & self._reference_lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SourceFile({self.rel!r})"


def _split_ids(raw: str) -> set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


@dataclass
class Project:
    """Everything a cross-file pass may look at."""

    src_files: list[SourceFile] = field(default_factory=list)
    test_files: list[SourceFile] = field(default_factory=list)
    _graph: object = field(default=None, repr=False, compare=False)

    def all_files(self) -> Iterator[SourceFile]:
        yield from self.src_files
        yield from self.test_files

    def graph(self) -> "ModuleGraph":
        """The repo graph (imports + symbol tables) over ``src`` modules.

        Built once per lint run and shared by every cross-file pass — the
        "repo-graph phase" of ISSUE 9.  Only ``src`` files participate:
        the whole-program passes reason about production modules, and test
        modules routinely do things (fixtures, monkeypatching) the passes
        would misread as hazards.
        """
        if self._graph is None:
            from .graph import ModuleGraph

            self._graph = ModuleGraph(self.src_files)
        graph: ModuleGraph = self._graph  # type: ignore[assignment]
        return graph


class Checker:
    """Base class of the visitor registry.

    Subclasses set ``id``/``description``/``severity`` and override
    :meth:`check_file` (called once per ``src`` file) and/or
    :meth:`check_project` (called once with the whole :class:`Project`,
    for contracts that span files).
    """

    id: str = ""
    description: str = ""
    severity: str = "error"

    def check_file(self, source: SourceFile) -> list[Finding]:
        return []

    def check_project(self, project: Project) -> list[Finding]:
        return []

    # ------------------------------------------------------------------
    def finding(
        self,
        source: SourceFile,
        node: ast.AST | None,
        message: str,
        key_context: str,
        severity: str | None = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            checker=self.id,
            severity=severity or self.severity,
            path=source.rel,
            line=line,
            col=col + 1,
            message=message,
            key=f"{self.id}:{source.rel}:{key_context}",
        )


_REGISTRY: dict[str, Checker] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker (by its ``id``) to the registry."""
    if not cls.id:
        raise ValueError(f"checker {cls.__name__} needs a non-empty id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate checker id {cls.id!r}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_checkers() -> dict[str, Checker]:
    """Registered checkers by id (registration order preserved)."""
    return dict(_REGISTRY)


def get_checker(checker_id: str) -> Checker:
    try:
        return _REGISTRY[checker_id]
    except KeyError:
        raise KeyError(
            f"unknown checker {checker_id!r}; available: {sorted(_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# Shared AST helpers used by several checkers.
# ---------------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_self_attribute(node: ast.AST) -> str | None:
    """The attribute name for a ``self.X`` access, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_methods(
    class_def: ast.ClassDef,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in class_def.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
