"""Seeded lock-discipline violations (see tests/test_analysis.py).

Expected findings:
  * ``Counter.read_unlocked`` reads ``self.count`` outside the lock.
  * ``Counter.__repr__`` reads ``self.count`` outside the lock.
  * ``SafeBase.peek`` (inherited, not overridden by ``SharedChild``) reads
    ``self.value`` outside the lock.
  * Both ``__init__`` methods construct raw ``threading.Lock()`` instead of
    ``make_lock(name)`` (ISSUE 9 rule: unnamed locks are invisible to the
    runtime lock-order sanitizer).
"""

import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()  # SEED: raw construction
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def read_unlocked(self):
        return self.count  # SEED: guarded attr outside the lock

    def read_locked(self):
        with self._lock:
            return self.count

    def _helper(self):
        # Private: caller-holds-lock convention, must NOT be flagged.
        return self.count

    def __repr__(self):
        return f"Counter({self.count})"  # SEED: dunder outside the lock


class SafeBase:
    def peek(self):
        return self.value  # SEED via inheritance by SharedChild


class SharedChild(SafeBase):
    def __init__(self):
        self._lock = threading.Lock()  # SEED: raw construction
        self.value = 0

    def set(self, v):
        with self._lock:
            self.value = v
