"""Fleet-wide admission control: one SQLite token-bucket table per pool.

Per-worker token buckets would let a pre-fork pool of N workers admit
``N × rate`` requests/s per client.  :class:`AdmissionStore` keeps each
client's bucket as one row of an ``admission`` table in a SQLite database
that every worker opens, and refills-and-debits it in a single
``BEGIN IMMEDIATE`` transaction, so concurrent workers serialise on the row
and the fleet admits at ``rate`` overall.  The pool's workers reach it
through the scheduler's ``admission_controller`` hook (see
:func:`repro.service.pool.build_worker_server`).

The database runs in WAL mode with ``synchronous=NORMAL``: a decision never
waits on an fsync, and a crash can at worst forget a few debits.
"""

from __future__ import annotations

import os
import sqlite3
import time
import weakref

from ..locking import make_lock

__all__ = ["AdmissionStore"]

_SCHEMA = """
    CREATE TABLE IF NOT EXISTS admission (
        client      TEXT PRIMARY KEY,
        tokens      REAL NOT NULL,
        refilled_at REAL NOT NULL
    )
"""

#: How long an opener or a debit waits on another connection's lock (s).
_TIMEOUT_S = 30.0

#: First and largest sleep between retries of the WAL switch (seconds).
_WAL_RETRY_BACKOFF_S = 0.001
_WAL_RETRY_BACKOFF_CAP_S = 0.05


# ---------------------------------------------------------------------------
# Fork safety.  SQLite forbids using a connection carried across ``fork()``.
# Every store registers itself here and is re-initialised in the child: a
# fresh lock (a parent thread may hold the inherited one) and a freshly
# opened connection.
# ---------------------------------------------------------------------------
_LIVE_STORES: "weakref.WeakSet[AdmissionStore]" = weakref.WeakSet()

#: Connections inherited from the parent are parked here in the child and
#: never closed: deallocating one would run sqlite3_close, whose automatic
#: rollback of any in-flight parent transaction writes through the shared
#: WAL.  Abandoning the handle is the only fork-safe disposition.
_ABANDONED_CONNS: list[sqlite3.Connection] = []


def _reopen_stores_after_fork() -> None:
    for store in list(_LIVE_STORES):
        store._reopen_after_fork()


os.register_at_fork(after_in_child=_reopen_stores_after_fork)


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn`` to WAL, retrying while another opener holds the file.

    On a fresh file, ``PRAGMA journal_mode=WAL`` answers ``SQLITE_BUSY`` at
    once — without waiting out ``busy_timeout`` — while another connection
    is converting the same file.  Workers of a pool open one fresh database
    at the same moment, so the switch is retried with a capped doubling
    backoff for up to ``_TIMEOUT_S``.
    """
    deadline = time.monotonic() + _TIMEOUT_S
    delay = _WAL_RETRY_BACKOFF_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            # The low byte is the primary code (SQLITE_BUSY_RECOVERY etc.).
            if exc.sqlite_errorcode & 0xFF != sqlite3.SQLITE_BUSY:
                raise
            if time.monotonic() + delay > deadline:
                raise
        time.sleep(delay)
        delay = min(_WAL_RETRY_BACKOFF_CAP_S, 2.0 * delay)


class AdmissionStore:
    """Per-client token buckets in one SQLite database shared by a fleet.

    Opening raises :class:`sqlite3.Error` when the database is unusable
    (corrupt, unreadable); after a successful open every decision fails
    *open* — a broken admission table degrades to unlimited admission, not
    to rejecting every request.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._lock = make_lock("admission-db")
        self._conn: sqlite3.Connection | None = self._open_connection()
        _LIVE_STORES.add(self)

    def _open_connection(self) -> sqlite3.Connection:
        # isolation_level=None puts sqlite3 in autocommit mode; the debit
        # brackets itself with an explicit BEGIN IMMEDIATE/COMMIT.
        conn = sqlite3.connect(
            self.path, timeout=_TIMEOUT_S, check_same_thread=False,
            isolation_level=None,
        )
        try:
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA)
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _reopen_after_fork(self) -> None:
        """Re-initialise this store inside a freshly forked child.

        Runs from the module's ``os.register_at_fork`` hook.  The inherited
        lock may be held by a parent thread that did not survive the fork,
        and the inherited connection must never be used — or closed — from
        the child (see ``_ABANDONED_CONNS``).  A closed store stays closed.
        """
        self._lock = make_lock("admission-db")
        if self._conn is None:
            return
        _ABANDONED_CONNS.append(self._conn)
        try:
            self._conn = self._open_connection()
        except sqlite3.Error:
            self._conn = None

    def admission_acquire(
        self,
        client: str,
        rate: float,
        burst: float,
        now: float | None = None,
    ) -> bool:
        """Debit one token from a client's *shared* bucket; True when admitted.

        The refill-and-debit runs in a single ``BEGIN IMMEDIATE``
        transaction, so concurrent workers of a pre-fork pool serialise on
        the row and the fleet admits at ``rate`` requests/s overall — not
        ``rate`` per worker.  Uses ``time.monotonic()``, which shares its
        epoch across processes on Linux.
        """
        if now is None:
            now = time.monotonic()
        with self._lock:
            conn = self._conn
            if conn is None:
                return True
            try:
                conn.execute("BEGIN IMMEDIATE")
                row = conn.execute(
                    "SELECT tokens, refilled_at FROM admission WHERE client = ?",
                    (client,),
                ).fetchone()
                if row is None:
                    available = float(burst)
                else:
                    stored, refilled_at = float(row[0]), float(row[1])
                    available = min(
                        float(burst), stored + max(0.0, now - refilled_at) * rate
                    )
                admitted = available >= 1.0
                if admitted:
                    available -= 1.0
                conn.execute(
                    "INSERT OR REPLACE INTO admission VALUES (?, ?, ?)",
                    (client, available, now),
                )
                conn.execute("COMMIT")
            except sqlite3.Error:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                return True
            return admitted

    def close(self) -> None:
        """Close the connection; later decisions admit (fail open)."""
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
