"""Fleet-wide admission store: the SQLite token buckets a pre-fork pool shares.

The properties pinned here:

* the shared table debits one token bucket per client with deterministic
  refill arithmetic, capped at the burst;
* every concurrent first open of one fresh database succeeds — the workers
  of a pool open it at the same moment, and a failed open would silently
  hand that worker private buckets;
* a database that dies under a live server fails *open*, and one that
  cannot be opened at all makes the worker fall back to in-process buckets;
* a forked child never touches the inherited SQLite connection.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import threading
from contextlib import closing

import pytest

from repro.service import AdmissionStore, PoolConfig, build_worker_server
from repro.service import admission


@pytest.fixture
def db_path(tmp_path) -> str:
    return os.path.join(tmp_path, "admission.db")


def write_garbage(path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(b"this is not a sqlite database at all\x00" * 4)


class TestAdmissionStore:
    def test_admission_bucket_refill_and_debit(self, db_path):
        with closing(AdmissionStore(db_path)) as store:
            acquire = lambda now: store.admission_acquire(
                "alice", rate=1.0, burst=2.0, now=now
            )
            assert acquire(100.0) is True  # burst grants two
            assert acquire(100.0) is True
            assert acquire(100.0) is False  # bucket empty
            assert acquire(100.5) is False  # half a token is not one
            assert acquire(101.5) is True  # 1.5s * 1/s refilled past one
            # Buckets are per client: bob's burst is untouched by alice.
            assert store.admission_acquire("bob", rate=1.0, burst=2.0, now=100.0)

    def test_admission_burst_caps_refill(self, db_path):
        with closing(AdmissionStore(db_path)) as store:
            assert store.admission_acquire("c", rate=10.0, burst=1.0, now=0.0)
            assert not store.admission_acquire("c", rate=10.0, burst=1.0, now=0.0)
            # A long idle period refills to burst, not to rate * elapsed.
            assert store.admission_acquire("c", rate=10.0, burst=1.0, now=1000.0)
            assert not store.admission_acquire("c", rate=10.0, burst=1.0, now=1000.0)

    def test_concurrent_first_open_always_succeeds(self, tmp_path):
        # A fresh file's WAL switch answers SQLITE_BUSY at once while
        # another connection converts it; every opener must still succeed.
        n_threads, n_trials = 8, 50
        failed_trials = 0
        for trial in range(n_trials):
            path = os.path.join(tmp_path, f"fresh{trial}.db")
            barrier = threading.Barrier(n_threads)
            stores: list[AdmissionStore] = []
            errors: list[sqlite3.Error] = []

            def open_store() -> None:
                barrier.wait()
                try:
                    stores.append(AdmissionStore(path))
                except sqlite3.Error as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=open_store) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for store in stores:
                store.close()
            failed_trials += bool(errors)
        assert failed_trials == 0, f"{failed_trials} of {n_trials} trials had a failed open"

    def test_concurrent_debits_never_overadmit(self, db_path):
        # Workers race on one client's row; BEGIN IMMEDIATE serialises each
        # refill-and-debit, so a lost update would admit more than the burst.
        n_threads, attempts, burst = 8, 25, 40
        barrier = threading.Barrier(n_threads)
        admitted: list[int] = []

        def debit() -> None:
            with closing(AdmissionStore(db_path)) as store:
                barrier.wait()
                admitted.append(sum(
                    store.admission_acquire("c", rate=1e-9, burst=burst, now=0.0)
                    for _ in range(attempts)
                ))

        threads = [threading.Thread(target=debit) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(admitted) == n_threads
        assert sum(admitted) == burst

    def test_dead_database_fails_open(self, db_path):
        store = AdmissionStore(db_path)
        assert store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0)
        assert not store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0)
        # The table vanishes under a live server: admit rather than reject.
        other = sqlite3.connect(db_path)
        other.execute("DROP TABLE admission")
        other.commit()
        other.close()
        assert store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0) is True
        # So does the connection itself.
        store._conn.close()
        assert store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0) is True
        store.close()
        assert store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0) is True

    def test_corrupt_file_is_refused(self, db_path):
        write_garbage(db_path)
        with pytest.raises(sqlite3.DatabaseError):
            AdmissionStore(db_path)


class TestWorkerAdmission:
    def config(self, db_path: str) -> PoolConfig:
        return PoolConfig(
            unix_path="unused.sock",
            cache_store=db_path,
            admission_rate=5.0,
            admission_burst=2.0,
        )

    def test_worker_debits_the_shared_store(self, db_path):
        server, store = build_worker_server(self.config(db_path))
        assert store is not None  # the worker closes it after the server
        assert server.scheduler.stats()["shared_admission"] is True
        assert server.scheduler.admission_rate is None  # no private buckets
        store.close()

    def test_corrupt_database_falls_back_to_per_worker_buckets(self, db_path):
        write_garbage(db_path)
        server, store = build_worker_server(self.config(db_path))
        assert store is None
        scheduler = server.scheduler
        assert scheduler.stats()["shared_admission"] is False
        assert (scheduler.admission_rate, scheduler.admission_burst) == (5.0, 2.0)

    def test_no_rate_opens_no_store(self, db_path):
        config = self.config(db_path)
        config.admission_rate = config.admission_burst = None
        server, store = build_worker_server(config)
        assert store is None
        assert server.scheduler.stats()["shared_admission"] is False
        assert not os.path.exists(db_path)


# ---------------------------------------------------------------------------
# Fork safety: a forked child must never touch the inherited SQLite
# connection — the at-fork hook parks it and reopens a fresh one.
# ---------------------------------------------------------------------------
class TestForkSafety:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
    def test_forked_child_reopens_store_and_shares_the_buckets(self, db_path):
        store = AdmissionStore(db_path)
        assert store.admission_acquire("c", rate=1e-6, burst=2.0, now=0.0)
        parent_conn = store._conn
        pid = os.fork()
        if pid == 0:
            # Child: the at-fork hook already ran.  Never let pytest's
            # machinery run in here — report via the exit code only.
            try:
                ok = (
                    store._conn is not None
                    and store._conn is not parent_conn
                    and store.admission_acquire("c", rate=1e-6, burst=2.0, now=0.0)
                )
            except BaseException:
                ok = False
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The parent is untouched, and sees the child's debit.
        assert store._conn is parent_conn
        assert not store.admission_acquire("c", rate=1e-6, burst=2.0, now=0.0)
        store.close()

    def test_reopen_after_fork_parks_the_old_connection(self, db_path):
        store = AdmissionStore(db_path)
        old_conn = store._conn
        store._reopen_after_fork()
        # The inherited connection is abandoned, never closed: closing it
        # would roll back a parent transaction through the shared WAL.
        assert old_conn in admission._ABANDONED_CONNS
        assert store._conn is not old_conn
        assert store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0)
        assert not store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0)
        store.close()

    def test_reopen_after_fork_leaves_closed_stores_closed(self, db_path):
        store = AdmissionStore(db_path)
        store.close()
        store._reopen_after_fork()  # must not resurrect a closed store
        assert store._conn is None
        assert store.admission_acquire("c", rate=1e-6, burst=1.0, now=0.0)
