"""``repro lint``: AST-based invariant analysis for the repro codebase.

Five codebase-specific checkers guard the conventions the kernels and the
serving tier rely on (see ``docs/static-analysis.md``):

========================  ==================================================
``lock-discipline``       lock-guarded attributes only touched under the
                          lock; no raw ``threading.Lock()`` outside
                          ``repro/locking.py``
``kernel-parity``         every reference toggle has an explicit parity test
``numpy-hygiene``         ``# repro: kernel`` modules stay vectorized/narrow
``async-blocking``        no blocking calls inside ``async def`` bodies
``fork-safety``           process-global resources crossing a fork boundary
                          have an ``os.register_at_fork`` re-init path
========================  ==================================================

``fork-safety`` is a *whole-program* pass built on the repo graph
(:mod:`repro.analysis.graph`, cached on the
:class:`~repro.analysis.core.Project`).  Lock ordering is checked at run
time instead, by the sanitizer in :mod:`repro.locking` behind
``REPRO_LOCK_SANITIZER=1``.

Importing this package registers all checkers; :mod:`repro.analysis.runner`
drives them and the ``repro lint`` CLI subcommand renders the result.
"""

from __future__ import annotations

from .core import Checker, Finding, Project, SourceFile, all_checkers, get_checker

# Importing the checker modules registers them (order = report order).
from . import lock_discipline as _lock_discipline  # noqa: F401
from . import kernel_parity as _kernel_parity  # noqa: F401
from . import numpy_hygiene as _numpy_hygiene  # noqa: F401
from . import async_blocking as _async_blocking  # noqa: F401
from . import fork_safety as _fork_safety  # noqa: F401

from .runner import (
    LintConfigError,
    LintResult,
    load_allowlist,
    load_project,
    render_json,
    render_text,
    run_lint,
)

__all__ = [
    "Checker",
    "Finding",
    "LintConfigError",
    "LintResult",
    "Project",
    "SourceFile",
    "all_checkers",
    "get_checker",
    "load_allowlist",
    "load_project",
    "render_json",
    "render_text",
    "run_lint",
]
