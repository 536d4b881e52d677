"""The six workloads, their input sizes, and the join / fig09 runners.

Every input is a function of ``--seed``: the relations, the fig09 study and
(in ``bench.serve``) the request streams and arrival times.  The program
under test only ever receives those generated inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import PROCESS_START, ROOT
from . import trace as tracing


@dataclass(frozen=True)
class Scale:
    """Input sizes and repetition counts; ``full`` is the benchmark proper."""

    join_tuples: int
    fig09_tuples: int
    fig09_samples: int
    #: Timed operations run for ``--seconds`` but at least ``min_ops`` and,
    #: when set, at most ``max_ops``.
    min_ops: int
    max_ops: int | None
    #: Set-ups per join or fig09 run; the median is ``setup_s``.
    setups: int
    #: Servers per serve run: each is set up (its median is ``setup_s``)
    #: and runs an equal share of the timed stages.
    servers: int
    #: Warm-up requests per server of serve-unique (a fingerprint library
    #: warms with each of its questions once).
    warmup_requests: int
    sample_replies: int
    #: Serve stages: a fixed closed-loop request count and fixed open-loop
    #: stage length, or ``None`` to split ``--seconds`` between the stages.
    closed_requests: int | None
    stage_seconds: float | None
    #: Replaces every serve workload's (low, high) rates when set.
    rates: tuple[float, float] | None


SCALES = {
    "full": Scale(
        join_tuples=1_000_000, fig09_tuples=50_000, fig09_samples=1000,
        min_ops=5, max_ops=None, setups=3, servers=5, warmup_requests=500,
        sample_replies=1000, closed_requests=None, stage_seconds=None, rates=None,
    ),
    "smoke": Scale(
        join_tuples=20_000, fig09_tuples=5_000, fig09_samples=50,
        min_ops=2, max_ops=2, setups=1, servers=1, warmup_requests=100,
        sample_replies=200, closed_requests=500, stage_seconds=1.0, rates=(50.0, 100.0),
    ),
}


@dataclass(frozen=True)
class JoinSpec:
    algorithm: str
    scheme: str
    architecture: str
    skew: str


@dataclass(frozen=True)
class Fig09Spec:
    pass


@dataclass(frozen=True)
class ServeSpec:
    unique: bool
    workers: int
    low_rps: float
    high_rps: float


WORKLOADS: dict[str, JoinSpec | Fig09Spec | ServeSpec] = {
    "join-phj-uniform": JoinSpec("PHJ", "PL", "coupled", "uniform"),
    "join-shj-skew": JoinSpec("SHJ", "DD", "discrete", "high-skew"),
    "fig09-montecarlo": Fig09Spec(),
    "serve-zipf": ServeSpec(unique=False, workers=1, low_rps=200.0, high_rps=1000.0),
    "serve-unique": ServeSpec(unique=True, workers=1, low_rps=200.0, high_rps=600.0),
    "serve-zipf-pool": ServeSpec(unique=False, workers=2, low_rps=200.0, high_rps=1000.0),
}


def probe_setup(workload: str, seed: int, scale: str) -> float:
    """One more set-up in a fresh process, so import-time and first-call
    work show in ``setup_s`` exactly as a user pays it."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------------------
# Joins and the fig09 regeneration: one op = one public library call.
# ---------------------------------------------------------------------------
#: Stride between the data seeds tried for a skewed join (see below).
SKEW_SEED_STRIDE = 1_000_003


def _skewed_workload(preset: str, n: int, seed: int) -> tuple[Any, int]:
    """The skewed relations for ``seed``, with the probe's hot key held once.

    The generator aims the probe side's hot key at a random build key; about
    one seed in four hits a *duplicated* build key, which doubles the match
    count (~7.6M instead of ~3.8M at 1M tuples) and the join's cost.  That
    is another workload, so the data seed is the first of ``seed, seed +
    stride, ...`` whose hot key the build side holds exactly once.
    """
    from repro import JoinWorkload

    data_seed = seed
    while True:
        workload = JoinWorkload.skewed(preset, n, n, seed=data_seed)
        values, counts = np.unique(workload.probe.keys[:4096], return_counts=True)
        hot = values[np.argmax(counts)]
        if np.count_nonzero(workload.build.keys == hot) == 1:
            return workload, data_seed
        data_seed += SKEW_SEED_STRIDE


def _join_op(spec: JoinSpec, seed: int, scale: Scale) -> tuple[Callable[[], Any], Callable[[Any], list[str]], dict]:
    from repro import JoinWorkload, coupled_machine, discrete_machine, run_join

    n = scale.join_tuples
    if spec.skew == "uniform":
        workload, data_seed = JoinWorkload.uniform(n, n, seed=seed), seed
    else:
        workload, data_seed = _skewed_workload(spec.skew, n, seed)
    expected = workload.expected_matches()
    make_machine = coupled_machine if spec.architecture == "coupled" else discrete_machine

    def op() -> Any:
        return run_join(spec.algorithm, spec.scheme, workload.build, workload.probe,
                        machine=make_machine(), parallel=False)

    reference: list[float] = []

    def check(timing: Any) -> list[str]:
        errors = []
        if timing.result.match_count != expected:
            errors.append(f"match_count {timing.result.match_count} != oracle {expected}")
        # Simulated seconds are model outputs: they must repeat bit for bit.
        if not reference:
            reference.append(timing.total_s)
        elif timing.total_s != reference[0]:
            errors.append(f"simulated total_s {timing.total_s!r} != first run {reference[0]!r}")
        return errors

    sizes = {"build_tuples": n, "probe_tuples": n, "data_seed": data_seed,
             "expected_matches": expected,
             "algorithm": spec.algorithm, "scheme": spec.scheme,
             "architecture": spec.architecture, "skew": spec.skew}
    return op, check, sizes


def _fig09_op(seed: int, scale: Scale) -> tuple[Callable[[], Any], Callable[[Any], list[str]], dict]:
    from repro.experiments.fig09_montecarlo import run_fig09

    def op() -> Any:
        return run_fig09(build_tuples=scale.fig09_tuples, n_samples=scale.fig09_samples,
                         seed=seed)

    reference: list[str] = []

    def check(result: Any) -> list[str]:
        rows = json.dumps(result.rows, sort_keys=True)
        if not reference:
            reference.append(rows)
        return [] if rows == reference[0] else ["rows differ from the first regeneration"]

    sizes = {"build_tuples": scale.fig09_tuples, "n_samples": scale.fig09_samples}
    return op, check, sizes


#: Per-layer shares reported for join-like workloads: metric -> span whose
#: self time it is, as a share of the traced ops' summed wall time.
OP_SHARES = {
    "hashjoin.partition.phase.share": "hashjoin.partition.phase",
    "hashjoin.partition.split.share": "hashjoin.partition.split",
    "hashjoin.partition.pair_self.share": "hashjoin.partition.pair",
    "hashjoin.partition.concat.share": "hashjoin.partition.concat",
    "hashjoin.partition.run_self.share": "hashjoin.partition.run",
    "hashjoin.simple.build.share": "hashjoin.simple.build",
    "hashjoin.simple.probe.share": "hashjoin.simple.probe",
    "hashjoin.simple.run_self.share": "hashjoin.simple.run",
    "costmodel.calibration.from_series.share": "costmodel.calibration.from_series",
    "core.schemes.plan_ratios.share": "core.schemes.plan_ratios",
    "costmodel.optimizer.optimize_pl.share": "costmodel.optimizer.optimize_pl",
    "core.executor.execute_series.share": "core.executor.execute_series",
    "costmodel.montecarlo.run_self.share": "costmodel.montecarlo.run",
    "data.generate.share": "data.generate",
    "core.joins.self.share": "core.joins",
}


def _op_layer_metrics(spans: list[dict], n_ops: int, overhead: float) -> tuple[dict, list]:
    totals = tracing.totals_by_name(spans)
    op_wall = totals["op"]["total_s"]

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def rate(name: str) -> float:
        entry = totals.get(name)
        return entry["tuples"] / entry["total_s"] if entry and entry["total_s"] else 0.0

    values = {metric: self_s(span) / op_wall for metric, span in OP_SHARES.items()}
    values["hashjoin.partition.pairs"] = totals.get("hashjoin.partition.pair", {}).get("calls", 0) / n_ops
    values["hashjoin.simple.build.tuples_per_s"] = rate("hashjoin.simple.build")
    values["hashjoin.simple.probe.tuples_per_s"] = rate("hashjoin.simple.probe")
    values["core.executor.calls"] = totals.get("core.executor.execute_series", {}).get("calls", 0) / n_ops
    values["trace.unattributed_frac"] = self_s("op") / op_wall
    values["trace.overhead_frac"] = overhead
    table = sorted(
        ({"layer": name, "ms": 1e3 * entry["self_s"] / n_ops, "share": entry["self_s"] / op_wall}
         for name, entry in totals.items()),
        key=lambda row: -row["ms"],
    )
    for row in table:
        if row["layer"] == "op":
            row["layer"] = "(unattributed)"
    return values, table


def run_ops(workload: str, spec: JoinSpec | Fig09Spec, seed: int, seconds: float,
            trace: bool, scale_name: str, probe: bool, spans_path: Path) -> dict[str, Any]:
    """Set up, warm up, then time back-to-back ops for ``seconds``."""
    scale = SCALES[scale_name]
    if isinstance(spec, JoinSpec):
        op, check, sizes = _join_op(spec, seed, scale)
    else:
        op, check, sizes = _fig09_op(seed, scale)
    failures = [f"warm-up op: {'; '.join(errors)}" for errors in [check(op())] if errors]
    setup_s = time.perf_counter() - PROCESS_START
    if probe:
        return {"setup_s": setup_s}
    setups = [setup_s]
    if not trace:
        setups += [probe_setup(workload, seed, scale_name) for _ in range(scale.setups - 1)]

    recorder = tracing.SpanRecorder()
    times: dict[bool, list[float]] = {False: [], True: []}
    attempted = 1
    deadline = time.perf_counter() + seconds
    while True:
        done = len(times[trace])
        if done >= scale.min_ops and (time.perf_counter() >= deadline or done == scale.max_ops):
            break
        # A traced run alternates untraced and traced ops, so the overhead
        # compares like with like under the same machine state.
        for traced_op in (False, True) if trace else (False,):
            uninstall = tracing.install(recorder, tracing.JOIN_LAYERS) if traced_op else None
            span = recorder.start("op", {"op": attempted}) if traced_op else -1
            t0 = time.perf_counter()
            output = op()
            times[traced_op].append(time.perf_counter() - t0)
            if uninstall is not None:
                recorder.end(span)
                uninstall()
            errors = check(output)
            if errors:
                failures.append(f"op {attempted}: {'; '.join(errors)}")
            attempted += 1

    plain, traced = times[False], times[True]
    outcome: dict[str, Any] = {
        "attempted": attempted, "failures": failures, "sizes": sizes,
        "setup_samples_s": setups,
        "diagnostics": {"op_s": plain, "traced_op_s": traced,
                        "op_ms_p50": 1e3 * percentile(plain, 50),
                        "op_ms_p90": 1e3 * percentile(plain, 90)},
    }
    if trace:
        overhead = float(np.median(traced) / np.median(plain) - 1.0)
        outcome["layers"], outcome["layer_table"] = _op_layer_metrics(
            recorder.records(), len(traced), overhead
        )
        outcome["layer_basis"] = f"mean over {len(traced)} traced ops"
        recorder.dump(spans_path)
    else:
        # Other tenants of a shared machine only ever add time to an op, and
        # they come in bursts longer than a run: the fastest op is the one
        # statistic of a run that they cannot move.
        fastest = min(plain)
        outcome["e2e"] = {
            "setup_s": float(np.median(setups)),
            "op_ms": 1e3 * fastest,
            "ops_per_s": 1.0 / fastest,
        }
    return outcome
