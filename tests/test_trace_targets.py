"""The benchmark's traced layers still name entry points of the package.

``python -m bench run --trace 1`` wraps every entry point that
``bench.trace.JOIN_LAYERS`` and ``bench.trace.SERVE_LAYERS`` name, and wraps
``repro.service.pool.run_worker`` in the forked pool workers.  A deletion or
a rename under ``src/`` that leaves one of them dangling fails here, in the
unit suite, instead of in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import trace  # noqa: E402


def test_every_traced_entry_point_resolves():
    unresolved = []
    for layer in (*trace.JOIN_LAYERS, *trace.SERVE_LAYERS):
        try:
            owner, attribute = trace._resolve(layer.target)
            raw = inspect.getattr_static(owner, attribute)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{layer.name}: {layer.target} ({exc})")
            continue
        if not (isinstance(raw, classmethod) or callable(raw)):
            unresolved.append(f"{layer.name}: {layer.target} is not callable")
    assert not unresolved, unresolved
    assert callable(importlib.import_module("repro.service.pool").run_worker)
