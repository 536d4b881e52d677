"""Clean twin of forksafety_src: every resource has a re-init path.

The module registers an ``os.register_at_fork`` handler that re-arms the
module-level state, which also vouches for the classes defined here (the
handler is this module's re-init story).
"""

import sqlite3
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor

GUARD = threading.Lock()
DB = sqlite3.connect(":memory:")

POOLS = {}


def get_pool(n):
    pool = ProcessPoolExecutor(max_workers=n)
    POOLS[n] = pool
    return pool


class StoreLike:
    def __init__(self, path):
        self._conn = sqlite3.connect(path)
        self._worker = threading.Thread(target=self.run)

    def run(self):
        pass


_LIVE_HELPER_STORES = weakref.WeakSet()


class HelperStore:
    def __init__(self, path):
        self.path = path
        self._conn: sqlite3.Connection = self._open_connection()
        _LIVE_HELPER_STORES.add(self)

    def _open_connection(self):
        conn = sqlite3.connect(self.path)
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn


def _reset_after_fork():
    # Fresh lock (never acquire an inherited one here), fresh connection,
    # dropped executors: first use in the child rebuilds everything.
    global GUARD, DB
    GUARD = threading.Lock()
    DB = sqlite3.connect(":memory:")
    POOLS.clear()
    for store in list(_LIVE_HELPER_STORES):
        store._conn = store._open_connection()


import os  # placed late to mirror real modules registering at import tail

os.register_at_fork(after_in_child=_reset_after_fork)
