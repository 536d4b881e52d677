"""Seeded fork-safety violations: process-global resources, no re-init path.

Imported by ``boundary.py`` (the fork module), so everything here is
reachable across the fork boundary.  Expected findings:

  * module-level lock ``GUARD`` (no ``os.register_at_fork``),
  * module-level connection ``DB``,
  * class ``StoreLike`` storing a SQLite connection and a thread on self,
  * class ``HelperStore`` storing a SQLite connection that a helper method
    opens and returns through a local,
  * module-level registry ``POOLS`` filled with executors by ``get_pool``.
"""

import sqlite3
import threading
from concurrent.futures import ProcessPoolExecutor

GUARD = threading.Lock()  # SEED: inherited, possibly held, never re-armed
DB = sqlite3.connect(":memory:")  # SEED: cross-fork connection reuse

POOLS = {}


def get_pool(n):
    pool = ProcessPoolExecutor(max_workers=n)
    POOLS[n] = pool  # SEED: executor parked in module state pre-fork
    return pool


class StoreLike:
    def __init__(self, path):
        self._conn = sqlite3.connect(path)  # SEED: connection on self
        self._worker = threading.Thread(target=self.run)  # SEED: dead thread

    def run(self):
        pass


class HelperStore:
    def __init__(self, path):
        self.path = path
        self._conn: sqlite3.Connection = self._open_connection()  # SEED: via helper

    def _open_connection(self):
        conn = sqlite3.connect(self.path)
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn
