"""Deterministic, seedable fault injection for the serving tier (ISSUE 10).

The chaos suite needs failures that are *reproducible*: the same seed must
kill the same worker after the same number of routed connections, reset
the same replies and break the same process-pool chunk, run after run.
This module is the single source of those failures:

* :class:`FaultSpec` — one scheduled fault: a *site* (a named hook threaded
  through the production code), an *action* (``raise`` an :class:`OSError`,
  ``kill`` a worker, ``reset`` a client socket, add ``latency``), and a
  trigger window (skip the first ``after`` matching events, then fire for
  the next ``count``).
* :class:`FaultPlan` — an ordered tuple of specs plus the seed that produced
  it; JSON round-trippable so plans travel through ``REPRO_FAULT_PLAN`` (a
  path or inline JSON) and ``repro serve --fault-plan``.
* :class:`FaultInjector` — the process-global arming state: per-spec match
  counters behind a lock, so every ``fire()`` sequence is deterministic for
  a fixed plan and event order.

Production code calls the module-level helpers, which are no-ops (a single
``None`` check) when no plan is installed — the hooks cost nothing in the
fault-free fast path:

``fire(site, **ctx)``
    Return the specs armed for this event (selector-matched, inside their
    trigger window).  Callers interpret actions that need site-specific
    mechanics (``kill``, ``reset``).
``check(site, **ctx)``
    Raise :class:`FaultError` (an ``OSError``) if a ``raise`` spec fires —
    the one-liner used by sites such as ``worker.start``.
``latency(site, **ctx)``
    Sum of injected delays for this event; async callers sleep with
    ``asyncio.sleep``, never ``time.sleep``.

Fork semantics: the plan itself is inherited by forked children (workers
must see specs installed before the fork), but match counters and the
guard lock are reset in the child via ``os.register_at_fork`` so each
process counts its own events from zero and no lock is inherited in a
possibly-held state.
"""

from __future__ import annotations

import json
import os
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .locking import make_lock

__all__ = [
    "ACTIONS",
    "FAULT_PLAN_ENV",
    "SITES",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "active_injector",
    "active_plan",
    "check",
    "clear_plan",
    "fire",
    "inject",
    "install_from_env",
    "install_plan",
    "kill_self",
    "latency",
]

#: Environment variable holding a fault plan: a path to a JSON file, or the
#: JSON text itself (detected by a leading ``{``).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Hook sites threaded through the production code.  Adding a site here is
#: the contract that some caller fires it; specs naming unknown sites are
#: rejected at plan-parse time so typos fail loudly.
SITES = (
    "pool.route",  # router: fires after each connection is shipped to a worker
    "worker.start",  # worker serve loop: fires once at startup (crash-loop drills)
    "server.reply",  # per-connection writer: fires before each reply frame
    "scheduler.dispatch",  # micro-batch scheduler: fires per dispatched batch
    "parallel.chunk",  # pair pool: fires as each chunk payload is submitted
)

#: What an armed spec does.  ``raise``/``latency`` are generic (handled by
#: :func:`check` / :func:`latency`); ``kill`` and ``reset`` need mechanics
#: only the call site has (a pid to SIGKILL, a transport to abort) and are
#: interpreted by the caller from :func:`fire`'s return value.
ACTIONS = ("raise", "kill", "reset", "latency")


class FaultError(OSError):
    """The injected I/O error.  A subclass of :class:`OSError` so production
    ``except OSError`` recovery paths treat it exactly like the disk/socket
    failures it stands in for, while tests can still assert the failure was
    the injected one."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Trigger window: among the events at ``site`` whose context matches the
    ``worker``/``chunk`` selectors, skip the first ``after`` and fire for
    the next ``count``.  Counters live in the installed
    :class:`FaultInjector`, per process.
    """

    site: str
    action: str = "raise"
    after: int = 0
    count: int = 1
    worker: int | None = None
    chunk: int | None = None
    latency_s: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        _require(self.site in SITES, f"unknown fault site {self.site!r}")
        _require(self.action in ACTIONS, f"unknown fault action {self.action!r}")
        _require(
            isinstance(self.after, int) and self.after >= 0,
            "after must be a non-negative int",
        )
        _require(
            isinstance(self.count, int) and self.count >= 1,
            "count must be a positive int",
        )
        for name in ("worker", "chunk"):
            value = getattr(self, name)
            _require(
                value is None or (isinstance(value, int) and value >= 0),
                f"{name} selector must be a non-negative int",
            )
        _require(
            isinstance(self.latency_s, (int, float))
            and self.latency_s >= 0.0
            and self.latency_s == self.latency_s  # not NaN
            and self.latency_s != float("inf"),
            "latency_s must be a finite non-negative number",
        )
        if self.action == "latency":
            _require(self.latency_s > 0.0, "latency action requires latency_s > 0")

    def matches(self, ctx: Mapping[str, Any]) -> bool:
        """Does this spec's selector accept the event context?  A selector
        set on the spec but absent from the context does not match — call
        sites always pass the selectors they support."""
        for name in ("worker", "chunk"):
            wanted = getattr(self, name)
            if wanted is not None and ctx.get(name) != wanted:
                return False
        return True

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site, "action": self.action}
        if self.after:
            out["after"] = self.after
        if self.count != 1:
            out["count"] = self.count
        if self.worker is not None:
            out["worker"] = self.worker
        if self.chunk is not None:
            out["chunk"] = self.chunk
        if self.latency_s:
            out["latency_s"] = self.latency_s
        if self.message:
            out["message"] = self.message
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(raw, Mapping):
            raise ValueError(f"fault spec must be an object, got {type(raw).__name__}")
        known = {
            "site",
            "action",
            "after",
            "count",
            "worker",
            "chunk",
            "latency_s",
            "message",
        }
        unknown = set(raw) - known
        _require(not unknown, f"unknown fault spec fields: {sorted(unknown)}")
        _require("site" in raw, "fault spec requires a site")
        return cls(**{key: raw[key] for key in known & set(raw)})


@dataclass(frozen=True)
class FaultPlan:
    """An ordered schedule of faults plus the seed that produced it (kept for
    reproducibility bookkeeping; the schedule itself is already explicit)."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            _require(isinstance(spec, FaultSpec), "faults must be FaultSpec instances")

    def to_json(self) -> str:
        payload: dict[str, Any] = {"faults": [spec.to_dict() for spec in self.faults]}
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, Mapping):
            raise ValueError("fault plan must be a JSON object")
        faults_raw = raw.get("faults", [])
        if not isinstance(faults_raw, Sequence) or isinstance(faults_raw, (str, bytes)):
            raise ValueError("fault plan 'faults' must be a list")
        seed = raw.get("seed")
        _require(seed is None or isinstance(seed, int), "fault plan seed must be an int")
        return cls(
            faults=tuple(FaultSpec.from_dict(spec) for spec in faults_raw),
            seed=seed,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        workers: int = 2,
        events: int = 12,
        max_faults: int = 4,
    ) -> "FaultPlan":
        """A seeded chaos schedule for the serving tier: worker kills,
        mid-reply socket resets and dispatch latency, with trigger points
        spread over roughly ``events`` request-scale events.  Same seed,
        same plan — the chaos suite's determinism rests on this."""
        _require(workers >= 1, "workers must be >= 1")
        _require(events >= 1, "events must be >= 1")
        _require(max_faults >= 1, "max_faults must be >= 1")
        rng = random.Random(seed)
        faults: list[FaultSpec] = []
        for _ in range(rng.randint(1, max_faults)):
            kind = rng.choice(("kill", "reset", "latency"))
            if kind == "kill":
                faults.append(
                    FaultSpec(
                        site="pool.route",
                        action="kill",
                        worker=rng.randrange(workers),
                        after=rng.randrange(events),
                    )
                )
            elif kind == "reset":
                faults.append(
                    FaultSpec(
                        site="server.reply",
                        action="reset",
                        after=rng.randrange(events),
                        count=rng.randint(1, 2),
                    )
                )
            else:
                faults.append(
                    FaultSpec(
                        site="scheduler.dispatch",
                        action="latency",
                        after=rng.randrange(max(1, events // 2)),
                        count=rng.randint(1, 3),
                        latency_s=round(rng.uniform(0.001, 0.01), 6),
                    )
                )
        return cls(faults=tuple(faults), seed=seed)


class FaultInjector:
    """Arming state for one installed plan: a per-spec counter of matched
    events, advanced under a lock so concurrent sites (router thread, worker
    event loops, pool threads) see one deterministic global order per
    site.  ``fired`` tallies armed events per site for assertions and the
    pool/bench counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = make_lock("fault-injector")
        self._matched = [0] * len(plan.faults)
        self.fired: dict[str, int] = {}

    def fire(self, site: str, **ctx: Any) -> list[FaultSpec]:
        armed: list[FaultSpec] = []
        with self._lock:
            for index, spec in enumerate(self.plan.faults):
                if spec.site != site or not spec.matches(ctx):
                    continue
                seen = self._matched[index]
                self._matched[index] = seen + 1
                if spec.after <= seen < spec.after + spec.count:
                    armed.append(spec)
            if armed:
                self.fired[site] = self.fired.get(site, 0) + len(armed)
        return armed

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "specs": len(self.plan.faults),
                "matched": list(self._matched),
                "fired": dict(self.fired),
            }

    def reset(self) -> None:
        with self._lock:
            self._matched = [0] * len(self.plan.faults)
            self.fired = {}

    def _reinit_after_fork(self) -> None:
        # Fresh lock (the parent's may have been held at fork time) and
        # fresh counters: each process counts its own events from zero.
        self._lock = make_lock("fault-injector")
        self._matched = [0] * len(self.plan.faults)
        self.fired = {}


# ---------------------------------------------------------------------------
# Process-global installation.
# ---------------------------------------------------------------------------
_INJECTOR: FaultInjector | None = None
_INSTALL_GUARD = make_lock("fault-install")


def install_plan(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-wide, replacing any previous plan."""
    global _INJECTOR
    injector = FaultInjector(plan)
    with _INSTALL_GUARD:
        _INJECTOR = injector
    return injector


def clear_plan() -> None:
    global _INJECTOR
    with _INSTALL_GUARD:
        _INJECTOR = None


def active_plan() -> FaultPlan | None:
    injector = _INJECTOR
    return None if injector is None else injector.plan


def active_injector() -> FaultInjector | None:
    return _INJECTOR


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Install ``plan`` for the duration of a ``with`` block (test scaffolding)."""
    global _INJECTOR
    injector = install_plan(plan)
    try:
        yield injector
    finally:
        with _INSTALL_GUARD:
            if _INJECTOR is injector:
                _INJECTOR = None


def install_from_env(environ: Mapping[str, str] | None = None) -> FaultInjector | None:
    """Install the plan named by :data:`FAULT_PLAN_ENV` (a path, or inline
    JSON starting with ``{``).  Returns ``None`` when the variable is unset;
    raises ``ValueError``/``OSError`` for a present-but-broken plan — a
    requested drill that cannot run should fail loudly, not silently serve
    without faults."""
    env = os.environ if environ is None else environ
    raw = env.get(FAULT_PLAN_ENV, "").strip()
    if not raw:
        return None
    if raw.startswith("{"):
        plan = FaultPlan.from_json(raw)
    else:
        plan = FaultPlan.from_file(raw)
    return install_plan(plan)


# ---------------------------------------------------------------------------
# Hook helpers — the only calls production code makes.
# ---------------------------------------------------------------------------
def fire(site: str, **ctx: Any) -> list[FaultSpec]:
    """Armed specs for this event; ``[]`` (no lock, no allocation beyond the
    check) when no plan is installed."""
    injector = _INJECTOR
    if injector is None:
        return []
    return injector.fire(site, **ctx)


def check(site: str, **ctx: Any) -> None:
    """Raise :class:`FaultError` if a ``raise`` spec fires at this event."""
    for spec in fire(site, **ctx):
        if spec.action == "raise":
            raise FaultError(spec.message or f"injected fault at {site}")


def latency(site: str, **ctx: Any) -> float:
    """Total injected delay for this event (0.0 when nothing fires)."""
    total = 0.0
    for spec in fire(site, **ctx):
        if spec.action == "latency":
            total += spec.latency_s
    return total


def kill_self(payload: object = None) -> None:  # pragma: no cover - dies by SIGKILL
    """Process-pool payload that SIGKILLs its own worker — the mechanism
    behind ``parallel.chunk`` ``kill`` specs.  Module-level so it pickles
    for :class:`~concurrent.futures.ProcessPoolExecutor` submission."""
    os.kill(os.getpid(), signal.SIGKILL)


def _reset_after_fork() -> None:
    global _INSTALL_GUARD
    _INSTALL_GUARD = make_lock("fault-install")
    injector = _INJECTOR
    if injector is not None:
        injector._reinit_after_fork()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_reset_after_fork)


# Activate a plan requested via the environment as soon as the package is
# imported, so `REPRO_FAULT_PLAN=... repro serve` drills every process —
# router and forked workers alike — without CLI plumbing in each entry point.
install_from_env()
