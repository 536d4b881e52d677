"""Tests for named locks and the runtime lock-order sanitizer (ISSUE 9).

The sanitizer files every lock under its ``make_lock(name)``.  These tests
pin the registry, the off-by-default behaviour and the sanitizer's
inversion/self-deadlock detection — the CI ``sanitizer`` job runs the whole
test suite with it armed.
"""

from __future__ import annotations

import threading

import pytest

from repro.locking import (
    SANITIZER_ENV,
    LockOrderViolation,
    SanitizedLock,
    lock_order_edges,
    make_lock,
    registered_locks,
    reset_lock_order_state,
    sanitizer_enabled,
)


@pytest.fixture()
def sanitizer(monkeypatch):
    monkeypatch.setenv(SANITIZER_ENV, "1")
    reset_lock_order_state()
    yield
    reset_lock_order_state()


class TestRegistry:
    def test_named_lock_is_registered(self):
        make_lock("test-registry-alpha")
        assert registered_locks()["test-registry-alpha"] >= 1

    def test_anonymous_lock_gets_caller_site_name(self):
        before = set(registered_locks())
        make_lock()
        new = set(registered_locks()) - before
        (name,) = new
        assert "test_locking.py:" in name

    def test_repeated_names_count_creations(self):
        make_lock("test-registry-repeat")
        make_lock("test-registry-repeat")
        assert registered_locks()["test-registry-repeat"] >= 2


class TestSanitizerToggle:
    def test_disabled_by_default_returns_raw_lock(self, monkeypatch):
        monkeypatch.delenv(SANITIZER_ENV, raising=False)
        assert not sanitizer_enabled()
        lock = make_lock("test-toggle-off")
        assert not isinstance(lock, SanitizedLock)
        with lock:
            pass  # usable as a plain lock

    def test_enabled_returns_wrapper(self, sanitizer):
        lock = make_lock("test-toggle-on")
        assert isinstance(lock, SanitizedLock)
        assert "test-toggle-on" in repr(lock)


class TestSanitizer:
    def test_nested_acquisition_records_edge(self, sanitizer):
        a = make_lock("test-edge-a")
        b = make_lock("test-edge-b")
        with a:
            with b:
                pass
        assert ("test-edge-a", "test-edge-b") in lock_order_edges()

    def test_inversion_raises_with_witness_sites(self, sanitizer):
        a = make_lock("test-inv-a")
        b = make_lock("test-inv-b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderViolation, match="test-inv-a"):
                with a:
                    pass  # pragma: no cover - never reached

    def test_inversion_detected_across_threads(self, sanitizer):
        # Thread 1 records a->b; the main thread's b->a attempt must raise
        # even though no actual deadlock happened on this interleaving.
        a = make_lock("test-xthread-a")
        b = make_lock("test-xthread-b")

        def order_ab():
            with a:
                with b:
                    pass

        t = threading.Thread(target=order_ab)
        t.start()
        t.join()
        with b:
            with pytest.raises(LockOrderViolation):
                with a:
                    pass  # pragma: no cover - never reached

    def test_reentrant_lock_reenters_quietly(self, sanitizer):
        lock = make_lock("test-reentrant", reentrant=True)
        with lock:
            with lock:
                pass
        # Self re-entry is not an order fact.
        assert ("test-reentrant", "test-reentrant") not in lock_order_edges()

    def test_non_reentrant_reentry_raises_instead_of_deadlocking(self, sanitizer):
        lock = make_lock("test-self-deadlock")
        with lock:
            with pytest.raises(LockOrderViolation, match="deadlock"):
                lock.acquire()

    def test_acquire_release_protocol(self, sanitizer):
        lock = make_lock("test-protocol")
        assert lock.acquire() is True
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_reset_clears_observed_edges(self, sanitizer):
        a = make_lock("test-reset-a")
        b = make_lock("test-reset-b")
        with a:
            with b:
                pass
        reset_lock_order_state()
        # With history gone, the opposite order is recordable again.
        with b:
            with a:
                pass
        assert ("test-reset-b", "test-reset-a") in lock_order_edges()

    def test_distinct_locks_same_name_do_not_self_trip(self, sanitizer):
        # Two instances under one name (e.g. admission-db per store) held
        # together would look like a self-edge; the sanitizer must skip
        # same-name pairs rather than fabricate an inversion.
        first = make_lock("test-same-name")
        second = make_lock("test-same-name")
        with first:
            with second:
                pass
        assert ("test-same-name", "test-same-name") not in lock_order_edges()

