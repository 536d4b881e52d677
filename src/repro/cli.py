"""Command-line interface for running the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro list
    python -m repro run fig04 --tuples 200000
    python -m repro run headline --tuples 256000 --format markdown
    python -m repro report --tuples 100000 --output report.md
    python -m repro join --algorithm PHJ --scheme PL --tuples 500000
    python -m repro plan workload.json --format json
    cat workload.json | python -m repro plan - --format json
    python -m repro serve --unix /tmp/plan.sock

``run`` executes a single experiment runner (see ``list`` for the names),
``report`` executes every runner and writes one combined markdown report,
``join`` runs a single co-processed join and prints its breakdown,
``plan`` feeds a JSON workload of optimisation/what-if requests (from a file
or stdin) through the multi-query plan service, and ``serve`` runs the
long-lived asyncio plan server — versioned JSON-lines protocol,
micro-batching scheduler, per-client weighted fairness (see
``docs/protocol.md``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Callable, Sequence

from .core.joins import run_join
from .core.schemes import Scheme
from .data.workload import JoinWorkload
from .experiments import ALL_EXPERIMENTS, ExperimentResult
from .hardware.machine import coupled_machine, discrete_machine
from .service import (
    PlanService,
    SharedEstimateCache,
    WorkloadError,
    load_workload,
)


def _supports_argument(runner: Callable, name: str) -> bool:
    return name in inspect.signature(runner).parameters


def _invoke_runner(runner: Callable, tuples: int | None) -> ExperimentResult:
    kwargs = {}
    if tuples is not None and _supports_argument(runner, "build_tuples"):
        kwargs["build_tuples"] = tuples
    return runner(**kwargs)


def _scheme_arg(value: str) -> Scheme:
    """argparse ``type=`` for ``--scheme``: a bad name is a usage error."""
    try:
        return Scheme.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tuples_arg(value: str) -> int:
    """argparse ``type=`` for ``--tuples``: a negative size is a usage error."""
    try:
        tuples = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if tuples < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {tuples}")
    return tuples


def _format_result(result: ExperimentResult, fmt: str) -> str:
    if fmt == "markdown":
        return result.to_markdown()
    return result.to_text()


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    print("Available experiments:")
    for name, runner in ALL_EXPERIMENTS.items():
        doc = (runner.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:10s} {summary}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'python -m repro list'",
              file=sys.stderr)
        return 2
    result = _invoke_runner(ALL_EXPERIMENTS[args.experiment], args.tuples)
    print(_format_result(result, args.format))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    sections: list[str] = ["# Reproduction report", ""]
    for name, runner in ALL_EXPERIMENTS.items():
        if args.only and name not in args.only:
            continue
        result = _invoke_runner(runner, args.tuples)
        sections.append(result.to_markdown())
        print(f"[done] {name}", file=sys.stderr)
    report = "\n".join(sections)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report)
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    workload = (
        JoinWorkload.skewed(args.skew, args.tuples, args.tuples, seed=args.seed)
        if args.skew != "uniform"
        else JoinWorkload.uniform(args.tuples, args.tuples, seed=args.seed)
    )
    machine = discrete_machine() if args.architecture == "discrete" else coupled_machine()
    timing = run_join(args.algorithm, args.scheme, workload.build, workload.probe,
                      machine=machine)
    print(f"variant      : {timing.variant} ({timing.architecture})")
    print(f"matches      : {timing.result.match_count}")
    print(f"elapsed (sim): {timing.total_s:.6f} s")
    print(f"estimated    : {timing.estimated_s:.6f} s")
    for key, value in timing.breakdown().items():
        print(f"  {key:16s} {value:.6f}")
    for phase, ratios in timing.ratios_by_phase().items():
        print(f"  ratios[{phase:9s}] {[round(r, 2) for r in ratios]}")
    return 0


def _format_plans(responses, stats, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"plans": [r.to_dict() for r in responses], "stats": stats}, indent=2
        )
    if fmt == "markdown":
        lines = [
            "### Batch plan",
            "",
            "| id | scheme | total_s | evaluations | group | ratios |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for r in responses:
            ratios = " ".join(f"{x:.2f}" for x in r.ratios)
            lines.append(
                f"| {r.request_id} | {r.scheme} | {r.total_s:.6f} | "
                f"{r.evaluations} | {r.group_size} | {ratios} |"
            )
        cache = stats["cache"]
        lines += [
            "",
            f"cache: {cache['hits']} hits / {cache['misses']} misses "
            f"({cache['hit_rate']:.1%} hit rate), "
            f"{stats['requests_deduplicated']} of {stats['requests_served']} "
            "requests deduplicated",
        ]
        return "\n".join(lines)
    lines = []
    for r in responses:
        ratios = [round(x, 2) for x in r.ratios]
        lines.append(
            f"{r.request_id:12s} scheme={r.scheme:8s} total={r.total_s:.6f} s  "
            f"evaluations={r.evaluations:<6d} group={r.group_size}  ratios={ratios}"
        )
    cache = stats["cache"]
    lines.append(
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['hit_rate']:.1%} hit rate), "
        f"{stats['requests_deduplicated']} of {stats['requests_served']} "
        "requests deduplicated"
    )
    return "\n".join(lines)


def cmd_plan(args: argparse.Namespace) -> int:
    try:
        if args.workload == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.workload, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except OSError as exc:
        print(f"cannot read workload: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"workload is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        requests = load_workload(payload)
    except WorkloadError as exc:
        print(f"invalid workload: {exc}", file=sys.stderr)
        return 2

    service = PlanService(cache=SharedEstimateCache())
    responses = service.plan_many(requests)
    text = _format_plans(responses, service.stats(), args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"cannot write plans: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis suite (see ``docs/static-analysis.md``).

    Exit codes follow ``repro plan``: 0 clean, 1 findings, 2 config errors
    (unknown checker, unparseable source, unreadable allowlist, unwritable
    ``--output``).
    """
    from .analysis import (
        LintConfigError,
        all_checkers,
        load_allowlist,
        load_project,
        render_json,
        render_text,
        run_lint,
    )

    if args.list_checkers:
        for checker in all_checkers().values():
            print(f"{checker.id:16s} {checker.description}")
        return 0

    try:
        project = load_project(args.root, src=args.src, tests=args.tests)
        allowlist = load_allowlist(args.allowlist) if args.allowlist else set()
        result = run_lint(project, checker_ids=args.checker, allowlist=allowlist)
    except LintConfigError as exc:
        print(f"lint configuration error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = render_json(result, show_suppressed=args.show_suppressed)
    else:
        text = render_text(result, show_suppressed=args.show_suppressed)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"cannot write lint report: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0 if result.clean else 1


def _parse_weights(entries: Sequence[str]) -> dict[str, float]:
    """Parse repeated ``--weight client=N`` flags into a weight map."""
    import math

    weights: dict[str, float] = {}
    for entry in entries:
        client, sep, raw = entry.partition("=")
        if not sep or not client:
            raise ValueError(f"expected CLIENT=WEIGHT, got {entry!r}")
        weight = float(raw)
        # isfinite: NaN passes a plain `<= 0` check and would silently void
        # the fair queuing the flag exists to configure.
        if not (math.isfinite(weight) and weight > 0.0):
            raise ValueError(f"weight for {client!r} must be positive and finite")
        weights[client] = weight
    return weights


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .service.pool import (
        PoolConfig,
        WorkerPool,
        build_worker_server,
        install_stop_signals,
    )

    if not args.unix and not args.port:
        print("serve needs --unix PATH and/or --port PORT", file=sys.stderr)
        return 2
    try:
        weights = _parse_weights(args.weight or [])
    except ValueError as exc:
        print(f"invalid --weight: {exc}", file=sys.stderr)
        return 2
    if args.rate is not None and args.rate <= 0:
        print("--rate must be positive", file=sys.stderr)
        return 2
    if args.burst is not None and args.burst <= 0:
        print("--burst must be positive", file=sys.stderr)
        return 2
    if args.burst is not None and args.rate is None:
        print("--burst requires --rate (admission control is rate-based)",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if args.fault_plan:
        from . import faults

        # Installed (and exported) *before* any worker forks so every
        # process of the pool sees the same plan; the export also covers a
        # router that re-execs or respawns workers later.
        try:
            if args.fault_plan.lstrip().startswith("{"):
                plan = faults.FaultPlan.from_json(args.fault_plan)
            else:
                plan = faults.FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"invalid --fault-plan: {exc}", file=sys.stderr)
            return 2
        faults.install_plan(plan)
        os.environ[faults.FAULT_PLAN_ENV] = plan.to_json()
        print(f"fault injection armed: {len(plan.faults)} fault(s)"
              + (f", seed {plan.seed}" if plan.seed is not None else ""),
              file=sys.stderr)

    config = PoolConfig(
        workers=args.workers,
        unix_path=args.unix or None,
        tcp_host=args.host,
        tcp_port=args.port or None,
        window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        weights=weights,
        admission_rate=args.rate,
        admission_burst=args.burst,
        default_timeout_s=args.default_timeout,
    )

    if args.workers > 1:
        try:
            pool = WorkerPool(config)
        except ValueError as exc:
            print(f"invalid serve configuration: {exc}", file=sys.stderr)
            return 2

        def _announce(ready: WorkerPool) -> None:
            if args.rate is not None:
                # The pool keeps the shared admission table in a transient
                # database for the run (WorkerPool.run_forever).
                print(f"admission control across {args.workers} workers needs "
                      f"shared state; using transient admission store "
                      f"{ready.config.cache_store}", file=sys.stderr)
            if ready.unix_path is not None:
                print(f"plan server listening on unix:{ready.unix_path} "
                      f"({args.workers} workers)", file=sys.stderr)
            if ready.tcp_address is not None:
                print(f"plan server listening on "
                      f"tcp:{ready.tcp_address[0]}:{ready.tcp_address[1]} "
                      f"({args.workers} workers)", file=sys.stderr)

        try:
            pool.run_forever(on_ready=_announce)
        except KeyboardInterrupt:
            pass
        print("plan server stopped", file=sys.stderr)
        return 0

    try:
        server, _ = build_worker_server(config)  # no cache_store: no store
    except ValueError as exc:
        print(f"invalid serve configuration: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        # SIGTERM from a supervisor/container must drain exactly like ^C:
        # structured shutdown errors for queued work and the socket file
        # unlinked — not an abrupt death mid-batch.
        installed = install_stop_signals(loop, shutdown)
        if args.unix:
            await server.start_unix(args.unix)
            print(f"plan server listening on unix:{args.unix}", file=sys.stderr)
        if args.port:
            await server.start_tcp(args.host, args.port)
            assert server.tcp_address is not None
            print(
                f"plan server listening on "
                f"tcp:{server.tcp_address[0]}:{server.tcp_address[1]}",
                file=sys.stderr,
            )
        try:
            await shutdown.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("plan server stopped", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Revisiting Co-Processing for Hash Joins on the "
                    "Coupled CPU-GPU Architecture' (VLDB 2013)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub_list = subparsers.add_parser("list", help="list the available experiments")
    sub_list.set_defaults(func=cmd_list)

    sub_run = subparsers.add_parser("run", help="run one experiment and print its rows")
    sub_run.add_argument("experiment", help="experiment name (see 'list')")
    sub_run.add_argument("--tuples", type=_tuples_arg, default=None,
                         help="build-relation size (default: the runner's default)")
    sub_run.add_argument("--format", choices=("text", "markdown"), default="text")
    sub_run.set_defaults(func=cmd_run)

    sub_report = subparsers.add_parser("report", help="run every experiment into one report")
    sub_report.add_argument("--tuples", type=_tuples_arg, default=None)
    sub_report.add_argument("--output", default=None, help="write markdown to this file")
    sub_report.add_argument("--only", nargs="*", default=None,
                            help="restrict to these experiment names")
    sub_report.set_defaults(func=cmd_report)

    sub_join = subparsers.add_parser("join", help="run a single co-processed join")
    sub_join.add_argument("--algorithm", choices=("SHJ", "PHJ"), default="PHJ")
    sub_join.add_argument("--scheme", type=_scheme_arg, default="PL",
                          help="CPU-only, GPU-only, OL, DD or PL (default PL)")
    sub_join.add_argument("--tuples", type=_tuples_arg, default=200_000)
    sub_join.add_argument("--skew", choices=("uniform", "low-skew", "high-skew"),
                          default="uniform")
    sub_join.add_argument("--architecture", choices=("coupled", "discrete"),
                          default="coupled")
    sub_join.add_argument("--seed", type=int, default=42)
    sub_join.set_defaults(func=cmd_join)

    sub_plan = subparsers.add_parser(
        "plan",
        help="answer a JSON workload of optimisation/what-if requests through "
             "the multi-query plan service",
    )
    sub_plan.add_argument("workload",
                          help="path to a JSON workload file, or '-' to read "
                               "the workload from stdin")
    sub_plan.add_argument("--format", choices=("text", "markdown", "json"),
                          default="text")
    sub_plan.add_argument("--output", default=None, help="write the plans to this file")
    sub_plan.set_defaults(func=cmd_plan)

    sub_lint = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant checkers (lock-discipline, "
             "kernel-parity, numpy-hygiene, async-blocking, fork-safety) "
             "over src/ and tests/",
    )
    sub_lint.add_argument("--root", default=".",
                          help="repository root to lint (default: cwd)")
    sub_lint.add_argument("--src", default="src",
                          help="source tree relative to --root (default: src)")
    sub_lint.add_argument("--tests", default="tests",
                          help="test tree relative to --root (default: tests)")
    sub_lint.add_argument("--format", choices=("text", "json"), default="text",
                          help="output format (default text)")
    sub_lint.add_argument("--output", default=None,
                          help="write the report to this file")
    sub_lint.add_argument("--checker", action="append", metavar="ID",
                          help="run only this checker (repeatable; "
                               "default: all)")
    sub_lint.add_argument("--allowlist", default=None, metavar="FILE",
                          help="file of grandfathered finding keys "
                               "(one per line, # comments)")
    sub_lint.add_argument("--show-suppressed", action="store_true",
                          help="also list suppressed and allowlisted findings")
    sub_lint.add_argument("--list-checkers", action="store_true",
                          help="list registered checkers and exit")
    sub_lint.set_defaults(func=cmd_lint)

    sub_serve = subparsers.add_parser(
        "serve",
        help="run the asyncio plan server (JSON-lines protocol, micro-batching "
             "scheduler with per-client fairness) over TCP and/or a unix socket",
    )
    sub_serve.add_argument("--unix", default=None, metavar="PATH",
                           help="listen on a unix domain socket at PATH")
    sub_serve.add_argument("--workers", type=int, default=1,
                           help="pre-fork worker processes (default 1 = "
                                "serve in-process; N>1 runs a router that "
                                "hands accepted connections to N forked "
                                "workers)")
    sub_serve.add_argument("--host", default="127.0.0.1",
                           help="TCP bind address (default 127.0.0.1)")
    sub_serve.add_argument("--port", type=int, default=0,
                           help="TCP port to listen on (0 = disabled)")
    sub_serve.add_argument("--window-ms", type=float, default=2.0,
                           help="micro-batching coalescing window in ms "
                                "(default 2.0; 0 disables coalescing)")
    sub_serve.add_argument("--max-batch", type=int, default=64,
                           help="max requests per plan_many micro-batch "
                                "(default 64)")
    sub_serve.add_argument("--weight", action="append", metavar="CLIENT=W",
                           help="fair-queuing weight for a client id "
                                "(repeatable; default weight 1)")
    sub_serve.add_argument("--rate", type=float, default=None,
                           help="token-bucket admission: sustained requests/s "
                                "per client, shared by all workers "
                                "(default: unlimited)")
    sub_serve.add_argument("--burst", type=float, default=None,
                           help="token-bucket burst capacity per client "
                                "(default: equal to --rate)")
    sub_serve.add_argument("--default-timeout", type=float, default=None,
                           help="default per-request deadline in seconds for "
                                "submissions that do not set their own")
    sub_serve.add_argument("--fault-plan", default=None, metavar="PLAN",
                           help="staging drills: install a deterministic "
                                "fault-injection plan (a JSON file path, or "
                                "inline JSON starting with '{'); forked "
                                "workers inherit it — see "
                                "docs/fault-injection.md")
    sub_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
