"""Named lock construction plus the opt-in runtime lock-order sanitizer.

``make_lock`` started life (ISSUE 6) as the one idiom through which every
lock in the codebase is created, so the ``lock-discipline`` checker could
recognise lock-owning classes.  ISSUE 9 grows it into the anchor of the
lock-order check:

* every ``make_lock(name)`` call registers its **name** — the stable node id
  of the runtime sanitizer's order graph and the id it reports in violation
  messages.  Raw ``threading.Lock()`` construction outside this module is a
  ``lock-discipline`` finding, so the sanitizer sees every lock.
* with ``REPRO_LOCK_SANITIZER=1`` in the environment, ``make_lock`` returns
  a :class:`SanitizedLock` wrapper that records per-thread acquisition
  stacks and a process-global order graph.  Acquiring ``B`` while holding
  ``A`` records the edge ``A -> B``; if the inverse edge was ever observed
  (by any thread), :class:`LockOrderViolation` is raised with both witness
  sites.  The CI ``sanitizer`` job runs the whole test suite this way.

Fork safety: the registry/order guards are process-global locks, so this
module registers an ``os.register_at_fork`` hook replacing them with fresh
locks in the child — another thread may hold a guard at fork time, and the
child (which inherits the locked state but not the thread) would otherwise
deadlock on first use.  The registry and edge *data* survive the fork; a
fork happens between bytecodes, so the dicts are structurally consistent.

Use ``reentrant=True`` when public methods of the owning class call other
public methods that take the same lock; plain mutual exclusion wants the
cheaper non-reentrant lock.  The return type is the context-manager
protocol because ``threading.Lock``/``RLock`` are factory functions, not
types — and ``with self._lock:`` is the dominant operation at call sites.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, ContextManager

__all__ = [
    "LockOrderViolation",
    "SanitizedLock",
    "lock_order_edges",
    "make_lock",
    "registered_locks",
    "reset_lock_order_state",
    "sanitizer_enabled",
]

#: Environment toggle for the runtime sanitizer (checked per make_lock call,
#: so tests can flip it with monkeypatch without reimporting).
SANITIZER_ENV = "REPRO_LOCK_SANITIZER"

# Internal guards are *raw* locks on purpose: the sanitizer must never
# instrument its own bookkeeping (instrumented internals would recurse and
# would pollute the order graph with implementation edges).
_REGISTRY_GUARD = threading.Lock()
#: Creation count per lock name, for tests to introspect.
_REGISTRY: dict[str, int] = {}

_ORDER_GUARD = threading.Lock()
#: Observed acquisition-order edges: ``(held name, acquired name) -> site``.
_EDGES: dict[tuple[str, str], str] = {}

_HELD = threading.local()


class LockOrderViolation(RuntimeError):
    """Two locks were observed acquired in both orders (potential deadlock)."""


def sanitizer_enabled() -> bool:
    """Whether ``REPRO_LOCK_SANITIZER=1`` is set in the environment."""
    return os.environ.get(SANITIZER_ENV, "") == "1"


def registered_locks() -> dict[str, int]:
    """Creation counts per lock name, for every ``make_lock`` call so far."""
    with _REGISTRY_GUARD:
        return dict(_REGISTRY)


def lock_order_edges() -> dict[tuple[str, str], str]:
    """The observed ``(held, acquired) -> site`` edges (sanitizer mode)."""
    with _ORDER_GUARD:
        return dict(_EDGES)


def reset_lock_order_state() -> None:
    """Drop all observed edges (test isolation between sanitizer cases)."""
    with _ORDER_GUARD:
        _EDGES.clear()


def _held_stack() -> list["SanitizedLock"]:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = _HELD.stack = []
    return stack


def _caller_site(depth: int) -> str:
    frame = sys._getframe(depth)
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


class SanitizedLock:
    """A lock wrapper recording per-thread acquisition order.

    Wraps a raw ``threading`` lock and, on every acquisition, records an
    order edge from each lock the acquiring thread already holds to this
    one.  If the inverse of a new edge was ever observed, the acquisition
    raises :class:`LockOrderViolation` *before* touching the raw lock — the
    test run fails at the witness site instead of deadlocking later.
    Re-entering a held reentrant lock records nothing (self-edges are not
    order facts); re-entering a held non-reentrant lock raises immediately
    (the raw lock would deadlock the thread for good).
    """

    __slots__ = ("name", "reentrant", "_raw")

    def __init__(self, name: str, raw: Any, reentrant: bool) -> None:
        self.name = name
        self.reentrant = reentrant
        self._raw = raw

    # -- order bookkeeping ---------------------------------------------
    def _check_order(self, site: str) -> None:
        stack = _held_stack()
        if any(held is self for held in stack):
            if self.reentrant:
                return
            raise LockOrderViolation(
                f"thread re-acquiring non-reentrant lock {self.name!r} at "
                f"{site} (already held by this thread) — this deadlocks"
            )
        if not stack:
            return
        violation: str | None = None
        with _ORDER_GUARD:
            for held in stack:
                if held.name == self.name:
                    continue
                inverse = _EDGES.get((self.name, held.name))
                if inverse is not None:
                    violation = (
                        f"lock-order inversion: acquiring {self.name!r} "
                        f"while holding {held.name!r} at {site}, but the "
                        f"opposite order was observed at {inverse}"
                    )
                    break
                _EDGES.setdefault((held.name, self.name), site)
        if violation is not None:
            raise LockOrderViolation(violation)

    # -- lock protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check_order(_caller_site(2))
        acquired = bool(self._raw.acquire(blocking, timeout))
        if acquired:
            _held_stack().append(self)
        return acquired

    def release(self) -> None:
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._raw.release()

    def locked(self) -> bool:
        return bool(self._raw.locked())

    def __enter__(self) -> bool:
        self._check_order(_caller_site(2))
        acquired = bool(self._raw.__enter__())
        _held_stack().append(self)
        return acquired

    def __exit__(self, *exc_info: Any) -> None:
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._raw.__exit__(*exc_info)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "RLock" if self.reentrant else "Lock"
        return f"SanitizedLock({self.name!r}, {kind})"


def make_lock(name: str = "", *, reentrant: bool = False) -> ContextManager[bool]:
    """A named ``threading`` lock; reentrant when the owner re-enters its API.

    ``name`` is the stable node id under which the runtime sanitizer files
    this lock; an empty name falls back to the caller's ``file:line`` so
    anonymous locks still get a stable, distinct id.  Under
    ``REPRO_LOCK_SANITIZER=1`` the returned object is a
    :class:`SanitizedLock`; otherwise it is the raw ``threading`` lock with
    zero overhead.
    """
    if not name:
        name = _caller_site(2)
    with _REGISTRY_GUARD:
        _REGISTRY[name] = _REGISTRY.get(name, 0) + 1
    raw = threading.RLock() if reentrant else threading.Lock()
    if sanitizer_enabled():
        return SanitizedLock(name, raw, reentrant)
    return raw


def _reset_guards_after_fork() -> None:
    # A forked child inherits the *state* of these guards but not the
    # threads that may hold them; fresh locks make the module usable again.
    # The per-thread held stack of the forking thread stays valid (its locks
    # survived the fork); other threads' stacks died with their threads.
    global _REGISTRY_GUARD, _ORDER_GUARD
    _REGISTRY_GUARD = threading.Lock()
    _ORDER_GUARD = threading.Lock()


os.register_at_fork(after_in_child=_reset_guards_after_fork)
