"""Tests for the command-line interface."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.costmodel import StepCost, estimate_series, optimize_scheme


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run(self):
        args = build_parser().parse_args(["run", "fig04", "--tuples", "1000"])
        assert args.experiment == "fig04"
        assert args.tuples == 1000

    def test_parses_join_defaults(self):
        args = build_parser().parse_args(["join"])
        assert args.algorithm == "PHJ"
        assert args.scheme == "PL"
        assert args.architecture == "coupled"

    def test_lint_help_names_every_registered_checker(self, capsys, monkeypatch):
        from repro.analysis import all_checkers

        monkeypatch.setenv("COLUMNS", "1000")  # one help line per command
        with pytest.raises(SystemExit):
            main(["--help"])
        (lint_help,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] == ["lint"]
        ]
        for checker_id in all_checkers():
            assert checker_id in lint_help
        assert "wire" not in lint_help


class TestCommands:
    def test_list_outputs_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig03", "fig13", "headline", "table3"):
            assert name in out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "# Cores" in out

    def test_run_with_tuples_and_markdown(self, capsys):
        assert main(["run", "fig04", "--tuples", "8000", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("### Figure 4")
        assert "| step |" in out

    def test_join_command(self, capsys):
        assert main(["join", "--algorithm", "SHJ", "--scheme", "DD",
                     "--tuples", "5000"]) == 0
        out = capsys.readouterr().out
        assert "SHJ-DD" in out
        assert "matches      : 5000" in out

    def test_join_discrete_architecture(self, capsys):
        assert main(["join", "--tuples", "4000", "--architecture", "discrete"]) == 0
        assert "(discrete)" in capsys.readouterr().out

    def test_join_unknown_scheme_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--scheme", "BOGUS", "--tuples", "1000"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--scheme" in err and "'BOGUS'" in err
        assert "Traceback" not in err

    def test_join_empty_relations(self, capsys):
        assert main(["join", "--tuples", "0"]) == 0
        assert "matches      : 0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["join", "run fig04", "report"])
    @pytest.mark.parametrize("tuples", ["-5", "many"])
    def test_bad_tuples_is_a_usage_error(self, capsys, command, tuples):
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), "--tuples", tuples])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--tuples" in err and "usage:" in err
        assert "Traceback" not in err

    def test_report_subset_to_file(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert main(["report", "--tuples", "6000", "--only", "table1", "fig04",
                     "--output", str(output)]) == 0
        text = output.read_text()
        assert "# Reproduction report" in text
        assert "Figure 4" in text
        assert "Table 1" in text


def _steps_payload():
    return [
        {"name": "build", "n_tuples": 80_000, "cpu_unit_s": 1.2e-8,
         "gpu_unit_s": 6e-9},
        {"name": "probe", "n_tuples": 120_000, "cpu_unit_s": 9e-9,
         "gpu_unit_s": 1.1e-8},
    ]


def _steps():
    return [
        StepCost(s["name"], s["n_tuples"], cpu_unit_s=s["cpu_unit_s"],
                 gpu_unit_s=s["gpu_unit_s"])
        for s in _steps_payload()
    ]


def _workload(tmp_path, payload) -> str:
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestPlanCommand:
    def test_json_round_trip_matches_optimizers(self, tmp_path, capsys):
        """JSON workload in -> JSON plans out, equal to per-request answers."""
        workload = _workload(tmp_path, {
            "requests": [
                {"id": "q-pl", "scheme": "PL", "steps": _steps_payload()},
                {"id": "q-dd", "scheme": "DD", "steps": _steps_payload()},
                {"id": "q-wi", "scheme": "WHAT-IF", "ratios": [0.5, 0.25],
                 "steps": _steps_payload()},
            ]
        })
        assert main(["plan", workload, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        plans = {p["id"]: p for p in payload["plans"]}
        assert set(plans) == {"q-pl", "q-dd", "q-wi"}

        for scheme, plan_id in (("PL", "q-pl"), ("DD", "q-dd")):
            reference = optimize_scheme(scheme, _steps())
            assert plans[plan_id]["ratios"] == pytest.approx(reference.ratios)
            assert plans[plan_id]["total_s"] == pytest.approx(reference.total_s)
        what_if = estimate_series(_steps(), [0.5, 0.25])
        assert plans["q-wi"]["total_s"] == pytest.approx(what_if.total_s)
        assert payload["stats"]["requests_served"] == 3

    def test_output_file_and_delta_default(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "delta": 0.25,
            "requests": [{"id": "a", "scheme": "DD", "steps": _steps_payload()}],
        })
        output = tmp_path / "plans.json"
        assert main(["plan", workload, "--format", "json",
                     "--output", str(output)]) == 0
        assert "wrote" in capsys.readouterr().err
        plan = json.loads(output.read_text())["plans"][0]
        reference = optimize_scheme("DD", _steps(), 0.25)
        assert plan["ratios"] == pytest.approx(reference.ratios)

    def test_text_and_markdown_format_parity(self, tmp_path, capsys):
        """--format accepts the run/report choices and renders every plan."""
        workload = _workload(tmp_path, {
            "requests": [
                {"id": "q0", "scheme": "OL", "steps": _steps_payload()},
                {"id": "q1", "scheme": "GPU", "steps": _steps_payload()},
            ]
        })
        assert main(["plan", workload]) == 0
        text = capsys.readouterr().out
        assert "q0" in text and "q1" in text
        assert "scheme=OL" in text
        assert "cache:" in text

        assert main(["plan", workload, "--format", "markdown"]) == 0
        markdown = capsys.readouterr().out
        assert markdown.lstrip().startswith("### Batch plan")
        assert "| id | scheme |" in markdown
        assert "| q0 | OL |" in markdown

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["plan", str(tmp_path / "nope.json")]) == 2
        assert "cannot read workload" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["plan", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_workloads_exit_2(self, tmp_path, capsys):
        for payload in (
            {},  # missing 'requests'
            {"requests": []},  # empty workload
            {"requests": [{"scheme": "PL"}]},  # request without steps
            {"requests": [{"scheme": "TURBO", "steps": _steps_payload()}]},
            {"requests": [{"scheme": "WHAT-IF", "steps": _steps_payload()}]},
            {"requests": [{"scheme": "PL", "delta": 0,
                           "steps": _steps_payload()}]},
            {"requests": [{"scheme": "PL", "steps": [
                {"name": "bad", "n_tuples": 10, "cpu_unit_s": -1,
                 "gpu_unit_s": 1e-9}]}]},
        ):
            assert main(["plan", _workload(tmp_path, payload)]) == 2, payload
            assert "invalid workload" in capsys.readouterr().err

    def test_parses_plan_defaults(self):
        args = build_parser().parse_args(["plan", "w.json"])
        assert args.format == "text"
        assert args.output is None


class TestPlanCommandErrorPaths:
    """Every failure mode exits 2 with a diagnostic on stderr (and prints
    nothing on stdout) — the contract scripted callers rely on."""

    def test_malformed_json_diagnostic_names_the_problem(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"requests": [{]}')
        assert main(["plan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not valid JSON" in captured.err

    def test_workload_path_is_a_directory(self, tmp_path, capsys):
        assert main(["plan", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read workload" in captured.err

    def test_unknown_scheme_diagnostic_names_the_scheme(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "requests": [{"scheme": "TURBO", "steps": _steps_payload()}],
        })
        assert main(["plan", workload]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid workload" in captured.err
        assert "TURBO" in captured.err

    def test_empty_request_list_variants(self, tmp_path, capsys):
        for payload in ([], {"requests": []}):
            assert main(["plan", _workload(tmp_path, payload)]) == 2, payload
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no requests" in captured.err

    def test_top_level_scalar_workload(self, tmp_path, capsys):
        assert main(["plan", _workload(tmp_path, 42)]) == 2
        assert "invalid workload" in capsys.readouterr().err

    def test_requests_not_a_list(self, tmp_path, capsys):
        assert main(["plan", _workload(tmp_path, {"requests": "q0"})]) == 2
        assert "invalid workload" in capsys.readouterr().err

    def test_bad_top_level_delta(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "delta": "fast",
            "requests": [{"scheme": "DD", "steps": _steps_payload()}],
        })
        assert main(["plan", workload]) == 2
        assert "delta" in capsys.readouterr().err

    def test_non_numeric_ratios(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "requests": [{"scheme": "WHAT-IF", "ratios": ["half", 0.5],
                          "steps": _steps_payload()}],
        })
        assert main(["plan", workload]) == 2
        assert "invalid workload" in capsys.readouterr().err

    def test_diagnostic_carries_request_position(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "requests": [
                {"scheme": "DD", "steps": _steps_payload()},
                {"scheme": "PL"},  # second entry is the broken one
            ],
        })
        assert main(["plan", workload]) == 2
        assert "request #1" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "requests": [{"scheme": "DD", "steps": _steps_payload()}],
        })
        output = tmp_path / "missing-dir" / "plans.json"
        assert main(["plan", workload, "--output", str(output)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write plans" in captured.err


class TestPlanStdin:
    """`repro plan -` reads the workload from stdin (scripted pipelines)."""

    def _feed(self, monkeypatch, text: str) -> None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_stdin_workload_matches_file_workload(self, tmp_path, monkeypatch, capsys):
        payload = {"requests": [
            {"id": "q0", "scheme": "DD", "steps": _steps_payload()},
        ]}
        assert main(["plan", _workload(tmp_path, payload), "--format", "json"]) == 0
        from_file = json.loads(capsys.readouterr().out)

        self._feed(monkeypatch, json.dumps(payload))
        assert main(["plan", "-", "--format", "json"]) == 0
        from_stdin = json.loads(capsys.readouterr().out)
        assert from_stdin["plans"] == from_file["plans"]

    def test_stdin_invalid_json_exits_2(self, monkeypatch, capsys):
        self._feed(monkeypatch, "{broken")
        assert main(["plan", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not valid JSON" in captured.err

    def test_stdin_malformed_workload_exits_2(self, monkeypatch, capsys):
        self._feed(monkeypatch, json.dumps({"requests": []}))
        assert main(["plan", "-"]) == 2
        assert "no requests" in capsys.readouterr().err


class TestDuplicateRequestIds:
    """load_workload rejects duplicate ids instead of letting two payloads
    silently collapse under one answer key."""

    def test_duplicate_ids_distinct_payloads_rejected(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "requests": [
                {"id": "q", "scheme": "PL", "steps": _steps_payload()},
                {"id": "q", "scheme": "DD", "steps": _steps_payload()},
            ],
        })
        assert main(["plan", workload]) == 2
        err = capsys.readouterr().err
        assert "duplicate request id 'q'" in err
        assert "request #1" in err
        assert "request #0" in err
        assert "a different question" in err

    def test_duplicate_ids_identical_payloads_rejected_too(self, tmp_path, capsys):
        entry = {"id": "q", "scheme": "PL", "steps": _steps_payload()}
        workload = _workload(tmp_path, {"requests": [entry, dict(entry)]})
        assert main(["plan", workload]) == 2
        assert "the same question" in capsys.readouterr().err

    def test_unique_ids_still_load(self, tmp_path, capsys):
        workload = _workload(tmp_path, {
            "requests": [
                {"id": "a", "scheme": "PL", "steps": _steps_payload()},
                {"id": "b", "scheme": "PL", "steps": _steps_payload()},
            ],
        })
        assert main(["plan", workload, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Identical questions under distinct ids still share one solve.
        assert {p["id"] for p in payload["plans"]} == {"a", "b"}
        assert payload["stats"]["requests_deduplicated"] == 1

    def test_load_workload_names_duplicate_directly(self):
        from repro.service import WorkloadError, load_workload

        steps = [{"name": "s", "n_tuples": 10, "cpu_unit_s": 1e-9,
                  "gpu_unit_s": 1e-9}]
        with pytest.raises(WorkloadError, match="duplicate request id"):
            load_workload([
                {"id": "x", "scheme": "PL", "steps": steps},
                {"id": "x", "scheme": "OL", "steps": steps},
            ])


class TestServeCommand:
    def test_parses_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--unix", "/tmp/p.sock"])
        assert args.unix == "/tmp/p.sock"
        assert args.port == 0
        assert args.window_ms == 2.0
        assert args.max_batch == 64
        assert args.rate is None
        assert args.weight is None

    def test_parses_serve_full_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "9999", "--host", "0.0.0.0",
            "--window-ms", "5", "--max-batch", "32",
            "--weight", "alpha=4", "--weight", "beta=1.5",
            "--rate", "100", "--burst", "200", "--default-timeout", "2.5",
        ])
        assert args.port == 9999
        assert args.weight == ["alpha=4", "beta=1.5"]
        assert args.default_timeout == 2.5

    def test_serve_without_endpoint_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "--unix" in capsys.readouterr().err

    def test_serve_bad_weight_exits_2(self, capsys):
        for weight in ("alpha", "alpha=", "=4", "alpha=zero", "alpha=-1"):
            assert main(["serve", "--unix", "/tmp/p.sock",
                         "--weight", weight]) == 2, weight
            assert "invalid --weight" in capsys.readouterr().err

    def test_serve_bad_rate_exits_2(self, capsys):
        assert main(["serve", "--unix", "/tmp/p.sock", "--rate", "0"]) == 2
        assert "--rate" in capsys.readouterr().err

    def test_serve_bad_burst_exits_2(self, capsys):
        assert main(["serve", "--unix", "/tmp/p.sock", "--rate", "10",
                     "--burst", "-5"]) == 2
        assert "--burst" in capsys.readouterr().err

    def test_serve_burst_without_rate_exits_2(self, capsys):
        assert main(["serve", "--unix", "/tmp/p.sock", "--burst", "10"]) == 2
        assert "requires --rate" in capsys.readouterr().err

    def test_serve_nan_flags_exit_2(self, capsys):
        assert main(["serve", "--unix", "/tmp/p.sock",
                     "--weight", "a=nan"]) == 2
        assert "invalid --weight" in capsys.readouterr().err
        assert main(["serve", "--unix", "/tmp/p.sock", "--rate", "nan"]) == 2
        assert "invalid serve configuration" in capsys.readouterr().err

    def test_serve_bad_scheduler_knobs_exit_2(self, capsys):
        """Misconfiguration is a startup diagnostic, not a traceback (and
        never a per-request internal-error on a server that booted)."""
        assert main(["serve", "--unix", "/tmp/p.sock",
                     "--window-ms", "-1"]) == 2
        assert "invalid serve configuration" in capsys.readouterr().err
        assert main(["serve", "--unix", "/tmp/p.sock",
                     "--max-batch", "0"]) == 2
        assert "invalid serve configuration" in capsys.readouterr().err


class TestServePoolFlags:
    def test_parses_workers(self):
        args = build_parser().parse_args(
            ["serve", "--unix", "/tmp/p.sock", "--workers", "4"]
        )
        assert args.workers == 4

    def test_workers_default_to_single_process(self):
        args = build_parser().parse_args(["serve", "--unix", "/tmp/p.sock"])
        assert args.workers == 1

    def test_zero_workers_exit_2(self, capsys):
        assert main(["serve", "--unix", "/tmp/p.sock", "--workers", "0"]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err


class TestServeSigterm:
    """ISSUE 7 satellite: a supervisor's SIGTERM must drain the server —
    clean exit 0, 'plan server stopped' on stderr, socket file unlinked —
    not an abrupt death mid-batch."""

    @staticmethod
    def _spawn_python(*argv, tmpdir=None):
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        if tmpdir is not None:
            env["TMPDIR"] = str(tmpdir)
        return subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )

    @classmethod
    def _spawn(cls, sock_path, *extra, tmpdir=None):
        return cls._spawn_python(
            "-m", "repro", "serve", "--unix", sock_path, *extra, tmpdir=tmpdir
        )

    @staticmethod
    def _await_socket(proc, sock_path, timeout_s=20.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if os.path.exists(sock_path):
                return
            if proc.poll() is not None:
                raise AssertionError(
                    f"server died during startup: {proc.stderr.read()}"
                )
            time.sleep(0.05)
        proc.kill()
        raise AssertionError("server never bound its unix socket")

    def test_sigterm_drains_single_process_server(self, tmp_path):
        sock_path = os.path.join(tmp_path, "serve.sock")
        proc = self._spawn(sock_path)
        try:
            self._await_socket(proc, sock_path)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "plan server stopped" in err
        assert not os.path.exists(sock_path)  # unlinked on close

    def test_sigterm_drains_worker_pool_after_serving(self, tmp_path):
        sock_path = os.path.join(tmp_path, "pool.sock")
        proc = self._spawn(sock_path, "--workers", "2")
        try:
            self._await_socket(proc, sock_path)

            # Prove the pool actually serves before it is told to die.
            async def drive():
                from repro.service import PlanRequest, connect_plan_client
                from repro.costmodel import StepCost

                client = await connect_plan_client(path=sock_path)
                try:
                    steps = (StepCost("s0", 50_000, cpu_unit_s=2e-8,
                                      gpu_unit_s=1e-8),
                             StepCost("s1", 80_000, cpu_unit_s=1e-8,
                                      gpu_unit_s=3e-8))
                    result = await client.submit(
                        PlanRequest(steps=steps, scheme="PL", request_id="q0")
                    )
                    return result.response.request_id
                finally:
                    await client.close()

            assert asyncio.run(drive()) == "q0"
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "(2 workers)" in err
        assert "plan server stopped" in err
        assert not os.path.exists(sock_path)

    def test_sigterm_removes_the_transient_admission_store(self, tmp_path):
        sock_path = os.path.join(tmp_path, "pool.sock")
        proc = self._spawn(sock_path, "--workers", "2", "--rate", "1000",
                           tmpdir=tmp_path)
        try:
            # Wait for the listening line, so the SIGTERM drains a pool that
            # is serving (test_sigterm_during_startup_* covers start-up).
            head = ""
            while "listening on" not in head:
                line = proc.stderr.readline()
                assert line, f"server died during startup: {head}"
                head += line
            # The workers share a transient admission database while serving.
            assert len(list(tmp_path.glob("repro-serve-*"))) == 1
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, head + err
        assert list(tmp_path.glob("repro-serve-*")) == []

    def test_sigterm_during_startup_drains_and_cleans_up(self, tmp_path):
        """A SIGTERM after the router binds but before its loop installs
        the handler — sent here by the router to itself just before its
        first fork — must drain like one that comes later."""
        sock_path = os.path.join(tmp_path, "pool.sock")
        script = (
            "import os, signal, sys\n"
            "from repro.cli import main\n"
            "from repro.service.pool import WorkerPool\n"
            "spawn = WorkerPool._spawn_worker\n"
            "def sigterm_then_spawn(self, index):\n"
            "    if not self._workers:\n"
            "        os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return spawn(self, index)\n"
            "WorkerPool._spawn_worker = sigterm_then_spawn\n"
            f"sys.exit(main(['serve', '--unix', {sock_path!r},"
            " '--workers', '2', '--rate', '10']))\n"
        )
        proc = self._spawn_python("-c", script, tmpdir=tmp_path)
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "plan server stopped" in err
        assert not os.path.exists(sock_path)
        assert list(tmp_path.glob("repro-serve-*")) == []

    def test_sigterm_right_after_the_admission_directory_is_made(self, tmp_path):
        """A SIGTERM sent the moment the transient admission directory
        exists must drain the pool and remove the directory."""
        sock_path = os.path.join(tmp_path, "pool.sock")
        script = (
            "import os, signal, sys, tempfile\n"
            "from repro.cli import main\n"
            "mkdtemp = tempfile.mkdtemp\n"
            "def mkdtemp_then_sigterm(*args, **kwargs):\n"
            "    path = mkdtemp(*args, **kwargs)\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return path\n"
            "tempfile.mkdtemp = mkdtemp_then_sigterm\n"
            f"sys.exit(main(['serve', '--unix', {sock_path!r},"
            " '--workers', '2', '--rate', '10']))\n"
        )
        proc = self._spawn_python("-c", script, tmpdir=tmp_path)
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "plan server stopped" in err
        assert not os.path.exists(sock_path)
        assert list(tmp_path.glob("repro-serve-*")) == []
