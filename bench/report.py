"""Metric declarations, result files, machine context and ``compare``.

``BENCHMARK.json`` at the repository root is the single declaration of the
workloads, the end-to-end metrics with their bounds and the per-layer
metrics; everything here reads it instead of repeating it.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any

from . import ROOT


def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(benchmark: dict[str, Any], trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run in this mode must emit, in order."""
    declared = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


# ---------------------------------------------------------------------------
# Machine context and provenance.
# ---------------------------------------------------------------------------
def _git(*args: str) -> str | None:
    # Only a checkout that is itself a git work tree is asked; git must not
    # walk up into some enclosing repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_context(loadavg_start: list[float]) -> dict[str, Any]:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": loadavg_start,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------
def result_line(result: dict[str, Any]) -> str:
    """The last line of a run's standard output: the result in four keys."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def write_result(result: dict[str, Any], out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    mode = "trace" if result["trace"] else "e2e"
    path = out / f"{result['workload']}-s{result['seed']}-{mode}-{time.time_ns()}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def print_metrics(result: dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        print(f"{result['workload']} {name} {metric['value']:.6g} {metric['unit']}")


def print_layer_table(result: dict[str, Any]) -> None:
    """The traced run's self-time table: absolute per op and share."""
    table = result.get("layer_table") or []
    if not table:
        return
    print(f"{result['workload']}: self time per layer ({result['layer_basis']})")
    width = max(len(row["layer"]) for row in table)
    for row in table:
        print(f"  {row['layer']:<{width}}  {row['ms']:10.3f} ms  {100 * row['share']:6.2f}%")


def load_results(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Untraced result files under ``directory``, grouped by workload."""
    grouped: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(data, dict) and data.get("kind") == "bench-result" and not data["trace"]:
            grouped.setdefault(data["workload"], []).append(data)
    return grouped


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` of ``after`` against ``before``.

    ``worsening`` is the change of the median as a share of ``before``'s
    median, positive when worse.  A metric whose quartile distance over
    median exceeds its bound on either side is ``unresolved``, unless every
    run of one side beats every run of the other.
    """
    q1a, mid_a, q3a = _quartiles(before)
    q1b, mid_b, q3b = _quartiles(after)
    change = (mid_b - mid_a) / mid_a
    worsening = change if better == "lower" else -change
    spread = max((q3a - q1a) / mid_a, (q3b - q1b) / mid_b)
    separated = max(after) < min(before) or min(after) > max(before)
    if spread > bound and not separated:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def _cell(values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(a_dir: Path, b_dir: Path) -> int:
    """Print each workload x metric of B against A; 1 if anything regressed."""
    benchmark = load_benchmark()
    before, after = load_results(a_dir), load_results(b_dir)
    counts = {"ok": 0, "regressed": 0, "unresolved": 0, "missing": 0}
    row = "{:<18} {:<12} {:>32} {:>32} {:>8} {:>6}  {}"
    print(row.format("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
                     "worse", "bound", "verdict"))
    for workload in [w["name"] for w in benchmark["workloads"]]:
        runs_a, runs_b = before.get(workload, []), after.get(workload, [])
        if not runs_a or not runs_b:
            counts["missing"] += 1
            print(f"{workload:<18} (no runs in {'A' if not runs_a else 'B'})")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in runs_a if name in run["metrics"]]
            b = [run["metrics"][name]["value"] for run in runs_b if name in run["metrics"]]
            if len(a) < len(runs_a) or len(b) < len(runs_b):
                counts["missing"] += 1
                print(row.format(workload, name, "", "", "", "", "missing"))
                continue
            outcome, worsening = verdict(a, b, metric["better"], metric["bound"])
            counts[outcome] += 1
            print(row.format(workload, name, _cell(a), _cell(b), f"{100 * worsening:.2f}%",
                             f"{100 * metric['bound']:.0f}%", outcome))
        # Failures have an absolute bound of zero: any failed op in B that
        # A did not have is a regression.
        frac_a = max(run["fail_frac"] for run in runs_a)
        frac_b = max(run["fail_frac"] for run in runs_b)
        outcome = "regressed" if frac_b > frac_a else "ok"
        counts[outcome] += 1
        print(row.format(workload, "fail_frac", f"{frac_a:.5g}", f"{frac_b:.5g}", "", "+0", outcome))
    print(" ".join(f"{key}={value}" for key, value in counts.items()))
    return 1 if counts["regressed"] or counts["missing"] else 0
