"""Command line: ``python -m bench run`` and ``python -m bench compare``.

    python -m bench run --seed S [--workload W] [--seconds N] [--trace]
                        [--scale full|smoke] [--out DIR]
    python -m bench compare A/ B/

Without ``--workload``, ``run`` runs every workload of ``BENCHMARK.json``,
each in a fresh process, so process-wide caches and pools cannot leak from
one workload into the next and peak RSS is per workload.  With it, the
workload runs in this process and the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  Every run
also writes a result file with the machine context under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from . import ROOT
from . import report


def _peak_rss_mb(served: bool) -> float:
    """Largest resident set of the system under test, in MiB.

    ``ru_maxrss`` is in KiB on Linux; the children's figure is the largest
    waited-for descendant (set-up probes, or the servers and their forked
    workers).  A serve workload's own process is the load generator, so
    only its children count.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if served:
        return children / 1024.0
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children) / 1024.0


def run_workload(args: argparse.Namespace) -> int:
    from .workloads import WORKLOADS, ServeSpec, run_ops

    loadavg_start = list(os.getloadavg())
    spec = WORKLOADS[args.workload]
    out = Path(args.out)
    trace = bool(args.trace)
    spans_path = out / "spans" / f"{args.workload}-s{args.seed}-{time.time_ns()}.jsonl"
    if args.probe_setup:
        outcome = run_ops(args.workload, spec, args.seed, 0.0, False, args.scale, True, spans_path)
        print(json.dumps(outcome))
        return 0
    if isinstance(spec, ServeSpec):
        from .serve import run_serve

        outcome = run_serve(args.workload, spec, args.seed, args.seconds, trace, args.scale,
                            out, spans_path)
    else:
        outcome = run_ops(args.workload, spec, args.seed, args.seconds, trace, args.scale,
                          False, spans_path)

    units = report.metric_units(report.load_benchmark(), trace)
    if trace:
        # Layers a workload never enters read 0 (e.g. the partition phase
        # of a simple hash join, or the codec of a join).
        values = {name: outcome["layers"].get(name, 0.0) for name in units}
    else:
        values = {**outcome["e2e"], "peak_rss_mb": _peak_rss_mb(isinstance(spec, ServeSpec))}
    failures = outcome["failures"]
    result = {
        "kind": "bench-result",
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "context": report.machine_context(loadavg_start),
        "sizes": outcome["sizes"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
        "attempted": outcome["attempted"],
        "failed": len(failures),
        "fail_frac": len(failures) / outcome["attempted"],
        "correct": not failures,
        "failures": failures,
        "setup_samples_s": outcome["setup_samples_s"],
        "diagnostics": outcome["diagnostics"],
        "layer_table": outcome.get("layer_table"),
        "layer_basis": outcome.get("layer_basis"),
        "spans_file": str(spans_path) if trace else None,
    }
    path = report.write_result(result, out)
    for failure in failures:
        print(f"FAIL {args.workload}: {failure}")
    report.print_metrics(result)
    print(f"{args.workload} fail_frac {result['fail_frac']:.6g} fraction")
    report.print_layer_table(result)
    print(f"{args.workload}: result file {path}")
    print(report.result_line(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    names = [workload["name"] for workload in report.load_benchmark()["workloads"]]
    failed = []
    for name in names:
        command = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale, "--out", str(args.out)]
        if subprocess.run(command, cwd=ROOT).returncode != 0:
            failed.append(name)
    print(f"{len(names) - len(failed)}/{len(names)} workloads passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload or all of them")
    run.add_argument("--workload", default=None,
                     choices=[w["name"] for w in report.load_benchmark()["workloads"]])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     default=float(report.load_benchmark()["run_seconds"]),
                     help="measured time per workload (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="per-layer run: wrap each layer and report self times")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--out", default=str(ROOT / ".bench_out"),
                     help="directory for result files, spans and server logs")
    run.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    compare = commands.add_parser("compare", help="judge result set B against result set A")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return report.compare(args.a, args.b)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
