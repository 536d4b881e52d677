"""Tests for the ``repro lint`` static-analysis suite (ISSUE 6).

Every checker is proven live against seeded violations in
``tests/analysis_fixtures/`` — and proven quiet against each fixture's
clean twin.  The CLI round-trips (text/json formats, exit codes 0/1/2,
``--output`` failure handling) are exercised through ``repro.cli.main``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfigError,
    Project,
    SourceFile,
    all_checkers,
    get_checker,
    load_project,
    run_lint,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).parents[1]


def fixture_source(rel: str) -> SourceFile:
    path = FIXTURES / rel
    return SourceFile(path=path, rel=rel, text=path.read_text(encoding="utf-8"))


def check_file(checker_id: str, rel: str):
    return get_checker(checker_id).check_file(fixture_source(rel))


# ---------------------------------------------------------------------------
# Framework basics
# ---------------------------------------------------------------------------
class TestFramework:
    def test_five_checkers_registered(self):
        assert list(all_checkers()) == [
            "lock-discipline",
            "kernel-parity",
            "numpy-hygiene",
            "async-blocking",
            "fork-safety",
        ]

    def test_finding_keys_are_symbol_based_not_line_based(self):
        findings = check_file("lock-discipline", "lock_bad.py")
        assert findings
        for finding in findings:
            assert str(finding.line) not in finding.key.split(":")[-1]
            assert finding.key.startswith("lock-discipline:lock_bad.py:")

    def test_inline_suppression_moves_finding_to_suppressed(self, tmp_path):
        text = (
            "from repro.locking import make_lock\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = make_lock('c')\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def peek(self):\n"
            "        return self.n  # repro: ignore[lock-discipline] advisory read\n"
        )
        path = tmp_path / "mod.py"
        path.write_text(text)
        project = Project(src_files=[SourceFile(path, "mod.py", text)])
        result = run_lint(project, checker_ids=["lock-discipline"])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_file_level_suppression(self, tmp_path):
        text = (
            "# repro: ignore-file[lock-discipline]\n"
            "from repro.locking import make_lock\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = make_lock('c')\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def peek(self):\n"
            "        return self.n\n"
        )
        path = tmp_path / "mod.py"
        path.write_text(text)
        project = Project(src_files=[SourceFile(path, "mod.py", text)])
        result = run_lint(project, checker_ids=["lock-discipline"])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_allowlist_grandfathers_by_stable_key(self):
        source = fixture_source("lock_bad.py")
        project = Project(src_files=[source])
        baseline = run_lint(project, checker_ids=["lock-discipline"])
        keys = {f.key for f in baseline.findings}
        replay = run_lint(project, checker_ids=["lock-discipline"], allowlist=keys)
        assert replay.findings == []
        assert len(replay.allowlisted) == len(baseline.findings)

    def test_unknown_checker_is_config_error(self):
        project = Project(src_files=[fixture_source("lock_clean.py")])
        with pytest.raises(LintConfigError):
            run_lint(project, checker_ids=["does-not-exist"])


# ---------------------------------------------------------------------------
# Checker: lock-discipline
# ---------------------------------------------------------------------------
class TestLockDiscipline:
    def test_catches_seeded_violations(self):
        findings = check_file("lock-discipline", "lock_bad.py")
        contexts = sorted(f.key.split(":", 2)[-1] for f in findings)
        assert contexts == [
            "Counter.__repr__.count",
            "Counter.read_unlocked.count",
            "SharedChild.peek.value",
            "raw-lock:Counter.__init__",
            "raw-lock:SharedChild.__init__",
        ]

    def test_clean_twin_is_quiet(self):
        assert check_file("lock-discipline", "lock_clean.py") == []


# ---------------------------------------------------------------------------
# Checker: kernel-parity (cross-file)
# ---------------------------------------------------------------------------
class TestKernelParity:
    def project(self) -> Project:
        return Project(
            src_files=[fixture_source("parity_src/kernels.py")],
            test_files=[fixture_source("parity_tests/checks_kernels.py")],
        )

    def test_flags_exactly_the_uncovered_toggles(self):
        findings = get_checker("kernel-parity").check_project(self.project())
        contexts = sorted(f.key.rsplit(":", 1)[-1] for f in findings)
        assert contexts == [
            "UncoveredTable.use_batch",
            "implicit_join.use_batch",
            "uncovered_join.fused",
        ]

    def test_explicit_toggle_call_counts_as_coverage(self):
        findings = get_checker("kernel-parity").check_project(self.project())
        covered = {"covered_join.use_bulk", "CoveredTable.use_kernels"}
        assert not covered & {f.key.rsplit(":", 1)[-1] for f in findings}


# ---------------------------------------------------------------------------
# Checker: numpy-hygiene
# ---------------------------------------------------------------------------
class TestNumpyHygiene:
    def test_catches_seeded_violations(self):
        findings = check_file("numpy-hygiene", "hygiene_bad.py")
        contexts = sorted(f.key.rsplit(":", 1)[-1] for f in findings)
        assert contexts == [
            "concat_parts.alloc-in-loop.concatenate",
            "sum_rows.loop-over-array.matrix",
            "widen.dtype-widening.column",
        ]

    def test_reference_marker_exempts_scalar_twin(self):
        findings = check_file("numpy-hygiene", "hygiene_bad.py")
        assert not any("reference_sum" in f.key for f in findings)

    def test_clean_twin_is_quiet(self):
        assert check_file("numpy-hygiene", "hygiene_clean.py") == []

    def test_unmarked_module_is_skipped(self):
        source = fixture_source("hygiene_bad.py")
        unmarked = SourceFile(
            path=source.path,
            rel=source.rel,
            text=source.text.replace("# repro: kernel", "# plain module"),
        )
        assert get_checker("numpy-hygiene").check_file(unmarked) == []


# ---------------------------------------------------------------------------
# Checker: async-blocking
# ---------------------------------------------------------------------------
class TestAsyncBlocking:
    def test_catches_seeded_violations(self):
        findings = check_file("async-blocking", "async_bad.py")
        contexts = sorted(f.key.rsplit(":", 1)[-1] for f in findings)
        assert contexts == ["fetch.subprocess.run", "load.open", "tick.time.sleep"]

    def test_clean_twin_is_quiet(self):
        assert check_file("async-blocking", "async_clean.py") == []


# ---------------------------------------------------------------------------
# The repo graph (ISSUE 9 whole-program phase)
# ---------------------------------------------------------------------------
class TestModuleGraph:
    def test_module_names_strip_src_and_collapse_init(self):
        from repro.analysis.graph import module_name_for

        assert module_name_for("src/repro/hashjoin/parallel.py") == (
            "repro.hashjoin.parallel"
        )
        assert module_name_for("src/repro/analysis/__init__.py") == "repro.analysis"
        assert module_name_for("forksafety_src/boundary.py") == (
            "forksafety_src.boundary"
        )

    def test_closure_follows_relative_imports(self):
        project = Project(
            src_files=[
                fixture_source("forksafety_src/boundary.py"),
                fixture_source("forksafety_src/resources.py"),
            ]
        )
        graph = project.graph()
        closure = graph.closure(["forksafety_src.boundary"])
        assert closure == {
            "forksafety_src.boundary",
            "forksafety_src.resources",
        }

    def test_alias_resolution_expands_import_as(self, tmp_path):
        text = "import numpy as np\nimport os\n"
        path = tmp_path / "m.py"
        path.write_text(text)
        project = Project(src_files=[SourceFile(path, "m.py", text)])
        graph = project.graph()
        info = graph.by_rel["m.py"]
        assert graph.resolve_target(info, "np.random.default_rng") == (
            "numpy.random.default_rng"
        )
        assert graph.resolve_target(info, "os.fork") == "os.fork"

    def test_graph_is_cached_on_the_project(self):
        project = Project(src_files=[fixture_source("lock_clean.py")])
        assert project.graph() is project.graph()


# ---------------------------------------------------------------------------
# Checker: fork-safety (cross-file)
# ---------------------------------------------------------------------------
class TestForkSafety:
    def project(self, kind: str) -> Project:
        return Project(
            src_files=[
                fixture_source(f"forksafety_{kind}/boundary.py"),
                fixture_source(f"forksafety_{kind}/resources.py"),
            ]
        )

    def test_catches_seeded_violations(self):
        findings = get_checker("fork-safety").check_project(self.project("src"))
        contexts = sorted(f.key.split(":", 2)[-1] for f in findings)
        assert contexts == [
            "DB",
            "GUARD",
            "HelperStore._conn",
            "POOLS",
            "StoreLike._conn",
            "StoreLike._worker",
        ]
        assert all("fork boundary" in f.message or "forks" in f.message
                   for f in findings)

    def test_clean_twin_is_quiet(self):
        findings = get_checker("fork-safety").check_project(self.project("clean"))
        assert findings == []

    @staticmethod
    def forked_project(tmp_path, resources_text: str) -> Project:
        """``resources_text`` as ``pkg/resources.py``, imported by a module
        that forks."""
        boundary_text = (
            "import os\n"
            "from . import resources\n"
            "def serve():\n"
            "    return os.fork()\n"
        )
        files = []
        for rel, text in (("pkg/boundary.py", boundary_text),
                          ("pkg/resources.py", resources_text)):
            path = tmp_path / rel
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            files.append(SourceFile(path, rel, text))
        return Project(src_files=files)

    def test_helper_returning_a_factory_call_is_followed(self, tmp_path):
        # Plain assignment, helper returning the factory call directly.
        text = (
            "import socket\n"
            "class Listener:\n"
            "    def __init__(self):\n"
            "        self._sock = self._bind()\n"
            "    def _bind(self):\n"
            "        return socket.socket()\n"
        )
        findings = get_checker("fork-safety").check_project(
            self.forked_project(tmp_path, text)
        )
        assert [f.key.split(":", 2)[-1] for f in findings] == ["Listener._sock"]

    def test_admission_store_is_seen_through_its_helper(self, tmp_path):
        # The admission store opens its SQLite connection in
        # ``_open_connection``; without the module's at-fork hook the pass
        # must flag it, and with the hook it must clear it.
        source = (REPO_ROOT / "src/repro/service/admission.py").read_text(encoding="utf-8")
        hook = "os.register_at_fork(after_in_child=_reopen_stores_after_fork)\n"
        assert source.count(hook) == 1
        checker = get_checker("fork-safety")
        assert checker.check_project(self.forked_project(tmp_path, source)) == []
        unhooked = checker.check_project(
            self.forked_project(tmp_path, source.replace(hook, ""))
        )
        assert [f.key.split(":", 2)[-1] for f in unhooked] == ["AdmissionStore._conn"]

    def test_no_fork_boundary_means_no_findings(self, tmp_path):
        # Module-level resources with no fork boundary anywhere in the
        # project must be silent: resources are only hazards when a fork
        # boundary can reach them.
        text = (
            "import sqlite3\n"
            "import threading\n"
            "GUARD = threading.Lock()\n"
            "DB = sqlite3.connect(':memory:')\n"
        )
        path = tmp_path / "m.py"
        path.write_text(text)
        project = Project(src_files=[SourceFile(path, "m.py", text)])
        assert get_checker("fork-safety").check_project(project) == []


# ---------------------------------------------------------------------------
# The repo itself must lint clean (the CI gate's contract)
# ---------------------------------------------------------------------------
class TestRepoIsClean:
    def test_repo_lints_clean_with_all_checkers(self):
        result = run_lint(load_project(REPO_ROOT))
        assert result.findings == [], "\n".join(
            f"{f.location()}: [{f.checker}] {f.message}" for f in result.findings
        )
        assert result.checkers == list(all_checkers())


# ---------------------------------------------------------------------------
# CLI round trips
# ---------------------------------------------------------------------------
def seed_mini_repo(tmp_path: Path, violation: bool) -> Path:
    src = tmp_path / "src"
    src.mkdir()
    peek_body = (
        "        return self.n\n"
        if violation
        else "        with self._lock:\n            return self.n\n"
    )
    (src / "mod.py").write_text(
        "from repro.locking import make_lock\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = make_lock('mini')\n"
        "        self.n = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n"
        "    def peek(self):\n" + peek_body
    )
    (tmp_path / "tests").mkdir()
    return tmp_path


class TestCli:
    def test_clean_repo_exits_0(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=False)
        assert main(["lint", "--root", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1_with_locations(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=True)
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "src/mod.py:10" in out
        assert "lock-discipline" in out

    def test_json_format_round_trips(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=True)
        assert main(["lint", "--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "findings"
        (finding,) = payload["findings"]
        assert finding["checker"] == "lock-discipline"
        assert finding["path"] == "src/mod.py"
        assert finding["line"] == 10
        assert finding["key"] == "lock-discipline:src/mod.py:C.peek.n"

    def test_json_per_checker_counts_and_suppression_inventory(
        self, tmp_path, capsys
    ):
        # The machine-readable artifact CI uploads (LINT_9.json) needs
        # per-checker counts and the suppression inventory on every run.
        root = seed_mini_repo(tmp_path, violation=True)
        main(["lint", "--root", str(root), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_checker"]["lock-discipline"]["findings"] == 1
        assert payload["per_checker"]["fork-safety"]["findings"] == 0
        assert payload["suppressions"] == []

    def test_allowlist_file_grandfathers_finding(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=True)
        allowlist = tmp_path / "lint-allowlist.txt"
        allowlist.write_text(
            "# grandfathered pre-existing violations\n"
            "lock-discipline:src/mod.py:C.peek.n\n"
        )
        code = main(
            ["lint", "--root", str(root), "--allowlist", str(allowlist)]
        )
        assert code == 0
        assert "1 allowlisted" in capsys.readouterr().out

    def test_unknown_checker_exits_2(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=False)
        assert main(["lint", "--root", str(root), "--checker", "nope"]) == 2
        assert "unknown checker" in capsys.readouterr().err

    def test_unparseable_source_exits_2(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=False)
        (root / "src" / "broken.py").write_text("def oops(:\n")
        assert main(["lint", "--root", str(root)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_output_write_failure_exits_2(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=False)
        target = tmp_path / "no-such-dir" / "report.txt"
        code = main(["lint", "--root", str(root), "--output", str(target)])
        assert code == 2
        assert "cannot write lint report" in capsys.readouterr().err

    def test_output_writes_report_file(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=True)
        target = tmp_path / "report.json"
        code = main(
            [
                "lint",
                "--root",
                str(root),
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert code == 1
        payload = json.loads(target.read_text())
        assert payload["status"] == "findings"

    def test_checker_selection_runs_subset(self, tmp_path, capsys):
        root = seed_mini_repo(tmp_path, violation=True)
        code = main(
            ["lint", "--root", str(root), "--checker", "async-blocking"]
        )
        assert code == 0  # the seeded violation is a lock one
        out = capsys.readouterr().out
        assert "1 checkers: async-blocking" in out

    def test_list_checkers(self, capsys):
        assert main(["lint", "--list-checkers"]) == 0
        out = capsys.readouterr().out
        for checker_id in all_checkers():
            assert checker_id in out
