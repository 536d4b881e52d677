"""Span recorder and the runtime wrappers that time each layer.

Nothing under ``src/`` is edited to trace it.  :func:`install` replaces the
public entry point of every layer named in :data:`JOIN_LAYERS` or
:data:`SERVE_LAYERS` with a wrapper that opens a span, calls the original and
closes the span; the returned callable puts every original back.  A wrapper
returns and raises exactly what it wraps.

A span is ``(name, start_ns, end_ns, parent, thread, attrs)``: the clock is
``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux, so spans recorded in
the server process line up with the load generator's clock), ``parent`` is
the index of the enclosing span on the same thread's stack (-1 at the root)
and ``attrs`` holds what the boundary can see: the op index, the tuples,
rows or requests it handled, the ids of the requests a batch served.
Spans stay in memory and are written as JSON lines when the run ends.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

Attrs = Callable[[tuple, dict, Any], dict]


class SpanRecorder:
    """Per-thread span stacks over one shared, append-only span list."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                threading.get_ident(), attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if attrs:
            span[5] = {**(span[5] or {}), **attrs}
        self._stack().pop()

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        self._local = threading.local()

    def records(self) -> list[dict]:
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "thread": thread, "attrs": attrs or {}}
            for name, start, end, parent, thread, attrs in self.spans
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def load_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module:Qual.name`` timed as span ``name``."""

    name: str
    target: str
    attrs: Attrs | None = None


def _first_len(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"tuples": len(args[0])}


def _requests(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"requests": len(result), "ids": [response.request_id for response in result]}


def _mixed_rows(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": int(len(result))}


#: Layers of a join (``run_join``) and of a fig09 regeneration.  The build
#: and probe kernels are wrapped both where ``repro.hashjoin.simple`` calls
#: them (SHJ) and where ``repro.hashjoin.partition`` imported them (PHJ's
#: per-pair loop); ``optimize_pl`` likewise where ``repro.core.schemes`` and
#: the fig09 runner imported it.
JOIN_LAYERS: tuple[Layer, ...] = (
    Layer("core.joins", "repro.core.joins:HashJoinVariant.execute"),
    Layer("hashjoin.simple.run", "repro.hashjoin.simple:SimpleHashJoin.run"),
    Layer("hashjoin.simple.build", "repro.hashjoin.simple:execute_build", _first_len),
    Layer("hashjoin.simple.probe", "repro.hashjoin.simple:execute_probe", _first_len),
    Layer("hashjoin.partition.run", "repro.hashjoin.partition:PartitionedHashJoin.run"),
    Layer("hashjoin.partition.phase", "repro.hashjoin.partition:execute_partition_phase"),
    Layer("hashjoin.partition.split",
          "repro.hashjoin.partition:PartitionSet.partitions_with_hashes"),
    Layer("hashjoin.partition.pair", "repro.hashjoin.partition:join_partition_pair"),
    Layer("hashjoin.simple.build", "repro.hashjoin.partition:execute_build", _first_len),
    Layer("hashjoin.simple.probe", "repro.hashjoin.partition:execute_probe", _first_len),
    Layer("hashjoin.partition.concat", "repro.hashjoin.partition:concat_step_series"),
    Layer("costmodel.calibration.from_series",
          "repro.costmodel.calibration:CalibrationTable.from_series"),
    Layer("core.schemes.plan_ratios", "repro.core.joins:plan_ratios"),
    Layer("costmodel.optimizer.optimize_pl", "repro.core.schemes:optimize_pl"),
    Layer("costmodel.optimizer.optimize_pl",
          "repro.experiments.fig09_montecarlo:optimize_pl"),
    Layer("core.executor.execute_series",
          "repro.core.executor:CoProcessingExecutor.execute_series"),
    Layer("costmodel.montecarlo.run", "repro.experiments.fig09_montecarlo:run_monte_carlo"),
    Layer("data.generate", "repro.data.generator:DatasetSpec.generate"),
)

#: Layers of a served request, timed inside the server process.  Decode is
#: ``Envelope.from_json`` plus ``PlanSubmit.from_envelope``; encode is
#: ``PlanResult.envelope`` plus ``Envelope.to_bytes``.
SERVE_LAYERS: tuple[Layer, ...] = (
    Layer("service.protocol.decode", "repro.service.protocol:Envelope.from_json"),
    Layer("service.protocol.decode", "repro.service.protocol:PlanSubmit.from_envelope"),
    Layer("service.protocol.encode", "repro.service.protocol:PlanResult.envelope"),
    Layer("service.protocol.encode", "repro.service.protocol:Envelope.to_bytes"),
    Layer("service.service.plan_many", "repro.service.service:PlanService.plan_many",
          _requests),
    Layer("costmodel.batch.mixed", "repro.service.service:batch_totals_mixed", _mixed_rows),
    Layer("costmodel.batch.cache_totals",
          "repro.costmodel.batch:SharedEstimateCache.totals_mixed"),
    Layer("costmodel.batch.estimate", "repro.costmodel.batch:SharedEstimateCache.estimate"),
)


def _wrap(fn: Callable, name: str, recorder: SpanRecorder, attrs: Attrs | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.start(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(index, {"raised": True})
            raise
        recorder.end(index, attrs(args, kwargs, result) if attrs else None)
        return result

    return wrapper


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def install(recorder: SpanRecorder, layers: Iterable[Layer]) -> Callable[[], None]:
    """Wrap every layer's entry point; returns the function that unwraps."""
    restore: list[tuple[Any, str, Any]] = []
    for layer in layers:
        owner, attribute = _resolve(layer.target)
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_wrap(raw.__func__, layer.name, recorder, layer.attrs))
        else:
            wrapped = _wrap(raw, layer.name, recorder, layer.attrs)
        restore.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def uninstall() -> None:
        for owner, attribute, raw in reversed(restore):
            setattr(owner, attribute, raw)

    return uninstall


def install_worker_dump(recorder: SpanRecorder, base: Path) -> None:
    """Make each forked pool worker write its own spans when it drains.

    Forked workers leave through ``os._exit``, which skips every exit hook,
    so the dump runs in a wrapper around ``repro.service.pool.run_worker``
    (looked up by ``worker_main`` at call time).
    """
    pool = importlib.import_module("repro.service.pool")
    original = pool.run_worker

    @functools.wraps(original)
    async def run_worker(channel: Any, config: Any, index: int, **kwargs: Any) -> Any:
        recorder.reset()
        try:
            return await original(channel, config, index, **kwargs)
        finally:
            recorder.dump(base.with_name(f"{base.name}.worker{index}.{os.getpid()}"))

    pool.run_worker = run_worker


# ---------------------------------------------------------------------------
# Self time.
# ---------------------------------------------------------------------------
def self_times(spans: list[dict]) -> list[int]:
    """Self time of every span, in ns: duration minus direct children."""
    own = [span["end_ns"] - span["start_ns"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end_ns"] - span["start_ns"]
    return own


def totals_by_name(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed attrs."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (span["end_ns"] - span["start_ns"]) / 1e9
        entry["self_s"] += own / 1e9
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value
    return out
