"""Run ``repro serve`` with switchable layer wrappers (the traced server).

    python -m bench.launch SPANS_FILE serve --unix PATH [--workers N ...]

Each SIGUSR1 switches the :data:`bench.trace.SERVE_LAYERS` wrappers on or
off; they start off.  Forked pool workers inherit the handler, and the
benchmark signals the server's whole process group, so one server process
is measured both without and with tracing.  The rest of the command line
goes to ``repro.cli.main``.  The server's spans are written to
``SPANS_FILE`` when it stops, and each forked pool worker writes its own
next to it.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from typing import Any, Callable

from . import trace


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    recorder = trace.SpanRecorder()
    uninstall: Callable[[], None] | None = None

    def toggle(signum: int, frame: Any) -> None:
        nonlocal uninstall
        if uninstall is None:
            uninstall = trace.install(recorder, trace.SERVE_LAYERS)
        else:
            uninstall()
            uninstall = None

    signal.signal(signal.SIGUSR1, toggle)
    trace.install_worker_dump(recorder, spans_path)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
