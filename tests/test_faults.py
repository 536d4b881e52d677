"""Unit tests for the deterministic fault-injection plane (ISSUE 10).

The chaos suite (``test_chaos.py``) trusts this module for one thing:
*determinism*.  Same plan, same event order, same faults — so everything
about spec validation, trigger windows, selector matching, JSON transport
and the env-var activation path is pinned here, without any serving stack.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------
class TestFaultSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="router.teleport")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="pool.route", action="explode")

    @pytest.mark.parametrize("after", [-1, 0.5, "3"])
    def test_bad_after_rejected(self, after):
        with pytest.raises(ValueError, match="after"):
            FaultSpec(site="pool.route", after=after)

    @pytest.mark.parametrize("count", [0, -2, 1.5])
    def test_bad_count_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            FaultSpec(site="pool.route", count=count)

    def test_negative_selector_rejected(self):
        with pytest.raises(ValueError, match="worker selector"):
            FaultSpec(site="pool.route", worker=-1)

    @pytest.mark.parametrize("latency_s", [-0.1, float("nan"), float("inf")])
    def test_bad_latency_rejected(self, latency_s):
        with pytest.raises(ValueError, match="latency_s"):
            FaultSpec(site="scheduler.dispatch", latency_s=latency_s)

    def test_latency_action_requires_positive_delay(self):
        with pytest.raises(ValueError, match="latency action requires"):
            FaultSpec(site="scheduler.dispatch", action="latency")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"site": "pool.route", "sight": "typo"})

    def test_from_dict_requires_site(self):
        with pytest.raises(ValueError, match="requires a site"):
            FaultSpec.from_dict({"action": "kill"})

    def test_selector_matching(self):
        spec = FaultSpec(site="pool.route", action="kill", worker=1)
        assert spec.matches({"worker": 1})
        assert not spec.matches({"worker": 0})
        # A selector the call site did not pass never matches: sites
        # always pass the selectors they support.
        assert not spec.matches({})
        assert FaultSpec(site="pool.route").matches({"worker": 7})


# ---------------------------------------------------------------------------
# Plan transport: JSON, files, the environment variable
# ---------------------------------------------------------------------------
class TestFaultPlanTransport:
    def plan(self) -> FaultPlan:
        return FaultPlan(
            faults=(
                FaultSpec(site="pool.route", action="kill", worker=1, after=3),
                FaultSpec(site="worker.start", worker=0, count=2, message="blip"),
                FaultSpec(
                    site="scheduler.dispatch", action="latency", latency_s=0.25
                ),
            ),
            seed=77,
        )

    def test_json_round_trip(self):
        plan = self.plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(self.plan().to_json(), encoding="utf-8")
        assert FaultPlan.from_file(path) == self.plan()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("not json", "not valid JSON"),
            ("[]", "must be a JSON object"),
            ('{"faults": "kill"}', "must be a list"),
            ('{"faults": [], "seed": "x"}', "seed must be an int"),
        ],
    )
    def test_bad_json_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.from_json(text)

    def test_install_from_env_unset_is_noop(self):
        assert faults.install_from_env({}) is None
        assert faults.active_plan() is None

    def test_install_from_env_inline_json(self):
        plan = self.plan()
        injector = faults.install_from_env({FAULT_PLAN_ENV: plan.to_json()})
        assert injector is not None
        assert faults.active_plan() == plan

    def test_install_from_env_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(self.plan().to_json(), encoding="utf-8")
        faults.install_from_env({FAULT_PLAN_ENV: str(path)})
        assert faults.active_plan() == self.plan()

    def test_install_from_env_broken_plan_fails_loudly(self, tmp_path):
        with pytest.raises(ValueError):
            faults.install_from_env({FAULT_PLAN_ENV: '{"faults": "nope"}'})
        with pytest.raises(OSError):
            faults.install_from_env({FAULT_PLAN_ENV: str(tmp_path / "missing")})


# ---------------------------------------------------------------------------
# Trigger windows and the module-level hooks
# ---------------------------------------------------------------------------
class TestInjector:
    def test_after_count_window(self):
        spec = FaultSpec(site="server.reply", after=2, count=2)
        injector = FaultInjector(FaultPlan(faults=(spec,)))
        armed = [bool(injector.fire("server.reply")) for _ in range(6)]
        assert armed == [False, False, True, True, False, False]
        assert injector.stats()["fired"] == {"server.reply": 2}

    def test_selector_scopes_the_event_count(self):
        spec = FaultSpec(site="pool.route", action="kill", worker=1, after=1)
        injector = FaultInjector(FaultPlan(faults=(spec,)))
        # Events on worker 0 do not advance worker 1's window.
        assert injector.fire("pool.route", worker=0) == []
        assert injector.fire("pool.route", worker=1) == []
        assert injector.fire("pool.route", worker=0) == []
        assert injector.fire("pool.route", worker=1) == [spec]

    def test_reset_restarts_the_windows(self):
        spec = FaultSpec(site="server.reply")
        injector = FaultInjector(FaultPlan(faults=(spec,)))
        assert injector.fire("server.reply") == [spec]
        assert injector.fire("server.reply") == []
        injector.reset()
        assert injector.fire("server.reply") == [spec]

    def test_module_hooks_are_noops_without_a_plan(self):
        assert faults.fire("pool.route", worker=0) == []
        faults.check("worker.start", worker=0)  # does not raise
        assert faults.latency("scheduler.dispatch") == 0.0

    def test_check_raises_fault_error_for_raise_specs_only(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(site="worker.start", message="startup blip"),
                FaultSpec(site="pool.route", action="kill"),
            )
        )
        with faults.inject(plan):
            with pytest.raises(FaultError, match="startup blip"):
                faults.check("worker.start", worker=0)
            faults.check("pool.route", worker=0)  # kill is the caller's job

    def test_fault_error_is_an_os_error(self):
        # Production recovery paths catch OSError; the injected fault must
        # take exactly those paths.
        assert issubclass(FaultError, OSError)

    def test_latency_sums_concurrent_specs(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="scheduler.dispatch", action="latency", latency_s=0.2
                ),
                FaultSpec(
                    site="scheduler.dispatch", action="latency", latency_s=0.05
                ),
                FaultSpec(site="scheduler.dispatch", action="raise"),
            )
        )
        with faults.inject(plan):
            # The raise spec is armed too, but latency() only sums delays.
            assert faults.latency("scheduler.dispatch") == pytest.approx(0.25)

    def test_inject_uninstalls_on_exit(self):
        plan = FaultPlan(faults=(FaultSpec(site="worker.start"),))
        with faults.inject(plan) as injector:
            assert faults.active_injector() is injector
        assert faults.active_plan() is None

    def test_install_plan_replaces_previous(self):
        first = FaultPlan(faults=(FaultSpec(site="worker.start"),))
        second = FaultPlan(faults=(FaultSpec(site="pool.route"),))
        faults.install_plan(first)
        faults.install_plan(second)
        assert faults.active_plan() == second


# ---------------------------------------------------------------------------
# Seeded random plans: the chaos suite's foundation
# ---------------------------------------------------------------------------
class TestRandomPlans:
    def test_same_seed_same_plan(self):
        for seed in range(40):
            assert FaultPlan.random(seed) == FaultPlan.random(seed)

    def test_plans_vary_across_seeds(self):
        plans = {FaultPlan.random(seed).to_json() for seed in range(40)}
        assert len(plans) > 1

    def test_random_plans_are_valid_and_bounded(self):
        for seed in range(40):
            plan = FaultPlan.random(seed, workers=3, events=10, max_faults=5)
            assert 1 <= len(plan.faults) <= 5
            assert plan.seed == seed
            for spec in plan.faults:
                assert spec.site in faults.SITES
                assert spec.action in faults.ACTIONS
                if spec.worker is not None:
                    assert 0 <= spec.worker < 3
            # And the plan survives the wire.
            assert FaultPlan.from_json(plan.to_json()) == plan
