"""Pre-fork worker pool for the plan server (ISSUE 7 tentpole).

One event loop caps the serving tier at one core: PR 4's
:class:`~repro.service.server.PlanServer` evaluates micro-batches in a
single process, so a second CPU buys nothing.  This module adds the classic
pre-fork architecture on top of the existing transport:

* the **router** (parent) binds the unix/TCP listener sockets, forks N
  workers, then runs a tiny accept loop: every accepted connection's file
  descriptor is shipped to a worker over an ``SCM_RIGHTS`` unix socketpair
  (``socket.send_fds``), round-robin.  The router never reads a byte of the
  protocol — routing stays O(accept) while workers burn the cores.
* each **worker** runs its own event loop, :class:`MicroBatchScheduler` and
  :class:`PlanService` — the same single-process stack PR 4 shipped — and
  adopts routed descriptors via :meth:`PlanServer.adopt_connection`.  A
  worker that dies is reaped and respawned by the router on the next
  routing attempt, so the pool degrades by one connection, not permanently
  by one worker.
* **shared admission** makes the fleet behave like one server: with an
  admission rate, every worker debits the same SQLite token buckets
  (:class:`~repro.service.admission.AdmissionStore`) via the scheduler's
  ``admission_controller`` hook — a client's rate limit holds fleet-wide,
  not per worker.  Without a ``cache_store`` the router keeps the database
  in a transient directory for the length of the run.  Fair-queuing
  weights are replicated into every worker from the same config, so
  relative service within any worker matches the configured ratios.

Shutdown is structured end to end: SIGTERM/SIGINT set the router's stop
event (one that arrives during start-up is held until the loop runs); the
router closes its listeners, half-closes every worker channel
(the EOF is the worker's shutdown signal), and each worker drains — queued
requests fail with ``server-shutdown`` errors and the process exits 0.

For tests the pool also runs with ``fork=False``: workers become daemon
threads running the identical ``run_worker`` coroutine, and descriptors
travel over the very same ``send_fds`` channels — the whole router/worker
protocol is exercised in one process (where coverage can see it) while
production uses real forked processes.
"""

from __future__ import annotations

import asyncio
import functools
import os
import shutil
import signal
import socket
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import faults
from ..costmodel.batch import SharedEstimateCache
from .admission import AdmissionStore
from .scheduler import MicroBatchScheduler
from .server import PlanServer, clear_stale_unix_socket
from .service import PlanService

__all__ = [
    "PoolConfig",
    "WorkerPool",
    "install_stop_signals",
    "build_worker_server",
    "run_worker",
    "worker_main",
]

#: recv_fds ancillary capacity per message; the router sends one fd per
#: message but a slow worker may find several queued.
_MAX_FDS_PER_MESSAGE = 8

#: Signals that drain the router and every worker.
_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


@dataclass
class PoolConfig:
    """Everything a worker needs to rebuild the serving stack post-fork.

    The scheduler knobs mirror :class:`MicroBatchScheduler`; ``cache_store``
    is the path of the SQLite admission database every worker shares when
    ``admission_rate`` is set.  Left ``None``, a pool of several workers
    creates a transient one for the run (:meth:`WorkerPool.run_forever`),
    and a single-process server keeps its token buckets in process.
    """

    workers: int = 2
    unix_path: str | None = None
    tcp_host: str = "127.0.0.1"
    tcp_port: int | None = None
    cache_store: str | None = None
    window_s: float = 0.002
    max_batch: int = 64
    default_weight: float = 1.0
    weights: dict[str, float] = field(default_factory=dict)
    admission_rate: float | None = None
    admission_burst: float | None = None
    default_timeout_s: float | None = None
    listen_backlog: int = 128
    #: Crash-loop breaker: the first crash of a (recently healthy) worker
    #: respawns immediately; each *consecutive* crash after that doubles the
    #: respawn delay from ``respawn_backoff_s`` up to
    #: ``respawn_backoff_cap_s``, so a worker that dies at startup degrades
    #: the pool to fewer live workers instead of fork-spinning.  A worker
    #: that stays up ``respawn_reset_s`` clears its slot's crash history.
    respawn_backoff_s: float = 0.05
    respawn_backoff_cap_s: float = 2.0
    respawn_reset_s: float = 5.0


def build_worker_server(
    config: PoolConfig,
) -> tuple[PlanServer, AdmissionStore | None]:
    """One worker's serving stack: cache, service, scheduler, server.

    With an admission rate and a ``cache_store``, admission decisions debit
    the store's fleet-wide token buckets, and the store is returned for the
    caller to close after the server; a database that cannot be opened
    (corrupt, unreadable) falls back to in-process buckets, which the
    scheduler's ``shared_admission`` stat reports.
    """
    kwargs: dict[str, Any] = {
        "window_s": config.window_s,
        "max_batch": config.max_batch,
        "default_weight": config.default_weight,
        "weights": dict(config.weights),
        "default_timeout_s": config.default_timeout_s,
    }
    store: AdmissionStore | None = None
    rate = config.admission_rate
    if rate is not None:
        if config.cache_store:
            try:
                store = AdmissionStore(config.cache_store)
            except sqlite3.Error:
                pass  # unusable database: in-process buckets below
        if store is not None:
            burst = config.admission_burst
            kwargs["admission_controller"] = functools.partial(
                store.admission_acquire,
                rate=rate,
                burst=burst if burst is not None else rate,
            )
        else:
            kwargs["admission_rate"] = rate
            kwargs["admission_burst"] = config.admission_burst
    service = PlanService(cache=SharedEstimateCache())
    scheduler = MicroBatchScheduler(service, **kwargs)
    return PlanServer(scheduler=scheduler), store


async def run_worker(
    channel: socket.socket,
    config: PoolConfig,
    index: int,
    *,
    install_signals: bool = False,
) -> dict[str, Any]:
    """One worker's serve loop: adopt routed descriptors until EOF/SIGTERM.

    ``channel`` is the worker's end of the router's socketpair.  Every
    ``SCM_RIGHTS`` message carries one accepted connection; EOF on the
    channel (the router shut its end) or SIGTERM/SIGINT (when
    ``install_signals`` and running on the main thread) starts the drain:
    the server closes (queued work fails with structured ``server-shutdown``
    errors).  Returns the final server stats.
    """
    faults.check("worker.start", worker=index)
    server, store = build_worker_server(config)
    await server.scheduler.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    adoptions: set["asyncio.Task[None]"] = set()
    channel.setblocking(False)

    def on_channel() -> None:
        while True:
            try:
                msg, fds, _, _ = socket.recv_fds(channel, 16, _MAX_FDS_PER_MESSAGE)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                msg, fds = b"", []
            if not msg and not fds:
                loop.remove_reader(channel.fileno())
                stop.set()
                return
            for fd in fds:
                conn = socket.socket(fileno=fd)
                try:
                    conn.setblocking(False)
                except OSError:
                    conn.close()
                    continue
                task = loop.create_task(server.adopt_connection(conn))
                adoptions.add(task)
                task.add_done_callback(adoptions.discard)

    loop.add_reader(channel.fileno(), on_channel)
    signals_installed = install_stop_signals(loop, stop) if install_signals else []
    try:
        await stop.wait()
    finally:
        for signum in signals_installed:
            loop.remove_signal_handler(signum)
        loop.remove_reader(channel.fileno())
        if adoptions:
            await asyncio.gather(*adoptions, return_exceptions=True)
        await server.close()
        if store is not None:
            store.close()
        channel.close()
    return server.stats()


def install_stop_signals(
    loop: asyncio.AbstractEventLoop, stop: asyncio.Event
) -> list[int]:
    """Register SIGTERM/SIGINT to set ``stop``; returns what was installed.

    Signal handlers only work on the main thread (and not at all on some
    loops); callers running on worker threads simply skip them — their stop
    signal is channel EOF.
    """
    if threading.current_thread() is not threading.main_thread():
        return []
    installed: list[int] = []
    for signum in _STOP_SIGNALS:
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            continue
        installed.append(signum)
    return installed


def worker_main(
    channel: socket.socket, config: PoolConfig, index: int
) -> None:  # pragma: no cover - runs only in forked children
    """Forked-child entry point: serve, drain, ``os._exit``.

    ``os._exit`` (not ``sys.exit``) because a forked child must never run
    the parent's atexit hooks, flush the parent's inherited buffers twice,
    or unwind into the parent's stack frames.
    """
    code = 0
    try:
        asyncio.run(run_worker(channel, config, index, install_signals=True))
    except BaseException:
        code = 1
    os._exit(code)


@dataclass
class _Worker:
    """The router's handle on one worker: its channel and pid or thread.

    A slot whose worker crashed repeatedly and is waiting out its respawn
    backoff is represented by ``channel=None`` — the crash-loop breaker's
    "degraded" state: routing skips it until the backoff expires.
    """

    channel: socket.socket | None
    index: int
    pid: int | None = None
    thread: threading.Thread | None = None
    #: ``time.monotonic()`` at spawn; a worker alive longer than
    #: ``respawn_reset_s`` when it dies counts as a *fresh* crash, not a
    #: consecutive one.
    spawned_at: float = 0.0


class WorkerPool:
    """Router process: bind, fork N workers, route accepted connections.

    ``run_forever()`` binds the listeners and spawns the workers *before*
    creating the event loop (forking with no loop alive keeps the children
    free of inherited loop state), then runs the async accept/route loop
    until SIGTERM/SIGINT or :meth:`stop`.  ``fork=False`` swaps forked
    children for daemon threads running the identical worker coroutine —
    same channels, same fd passing — for in-process tests.
    """

    def __init__(self, config: PoolConfig, *, fork: bool = True) -> None:
        if config.workers < 1:
            raise ValueError("worker pool needs at least one worker")
        if not config.unix_path and config.tcp_port is None:
            raise ValueError("worker pool needs a unix path and/or a TCP port")
        self.config = config
        self.fork = fork
        self._workers: list[_Worker] = []
        self._listeners: list[socket.socket] = []
        self._rr = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.connections_routed = 0
        self.connections_dropped = 0
        self.workers_respawned = 0
        #: Routing attempts that skipped a slot still in respawn backoff.
        self.respawns_suppressed = 0
        #: High-water mark of any slot's consecutive-crash count.
        self.max_consecutive_crashes = 0
        #: Per-slot consecutive crash counts (crash-loop breaker state).
        self._crashes: dict[int, int] = {}
        #: Per-slot earliest monotonic time the next respawn may happen.
        self._not_before: dict[int, float] = {}
        #: Resolved (host, port) once the TCP listener is bound.
        self.tcp_address: tuple[str, int] | None = None
        #: Bound unix socket path, until shutdown unlinks it.
        self.unix_path: str | None = None
        #: Stop-signal handlers ``run_forever`` replaced during start-up.
        self._startup_handlers: dict[int, Any] = {}
        #: Whether a stop signal arrived before ``_serve`` installed its own.
        self._stop_held = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def run_forever(
        self, on_ready: Callable[["WorkerPool"], None] | None = None
    ) -> dict[str, Any]:
        """Bind, spawn, route until stopped; returns the final router stats.

        ``on_ready`` runs once the endpoints are bound and every worker is
        spawned — the moment a client may connect (the CLI prints its
        "listening on" lines from here; tests grab the resolved TCP port).

        Per-worker token buckets would admit ``workers × rate``, so a pool
        of several workers with an admission rate but no ``cache_store``
        shares one admission database in a transient ``repro-serve-*``
        directory, removed when the pool stops.

        A SIGTERM/SIGINT from before that directory exists until ``_serve``
        installs its handlers is held and drains once the loop runs, like a
        later one, instead of taking the default action and leaving the
        socket file and the admission directory behind.
        """
        self._hold_stop_signals()
        transient: str | None = None
        try:
            if (
                self.config.admission_rate is not None
                and self.config.workers > 1
                and not self.config.cache_store
            ):
                transient = tempfile.mkdtemp(prefix="repro-serve-")
                self.config.cache_store = os.path.join(transient, "admission.db")
            try:
                self._bind_listeners()
                for index in range(self.config.workers):
                    self._workers.append(self._spawn_worker(index))
            except BaseException:
                self._close_listeners()
                self._stop_workers()
                raise
            return asyncio.run(self._serve(on_ready))
        finally:
            if transient is not None:
                shutil.rmtree(transient, ignore_errors=True)
                self.config.cache_store = None
            self._restore_stop_signals()

    def _hold_stop_signals(self) -> None:
        """Record stop signals in a Python handler until the loop runs.

        A Python handler, not a blocked signal mask: NumPy's native threads
        block nothing, and the kernel may hand a process-directed signal to
        any of them, while Python handlers always run on the main thread.
        """
        self._stop_held = False
        if threading.current_thread() is not threading.main_thread():
            return

        def hold(signum: int, frame: Any) -> None:
            self._stop_held = True

        for signum in _STOP_SIGNALS:
            self._startup_handlers[signum] = signal.signal(signum, hold)

    def _restore_stop_signals(self) -> None:
        for signum, handler in self._startup_handlers.items():
            signal.signal(signum, handler)
        self._startup_handlers.clear()

    def stop(self) -> None:
        """Request shutdown; safe to call from any thread (or a signal)."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        loop.call_soon_threadsafe(stop.set)

    async def _serve(
        self, on_ready: Callable[["WorkerPool"], None] | None
    ) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        self._loop = loop
        stop = self._stop = asyncio.Event()
        for listener in self._listeners:
            loop.add_reader(listener.fileno(), self._on_accept, listener)
        signals_installed = install_stop_signals(loop, stop)
        if self._stop_held:
            stop.set()
        if on_ready is not None:
            on_ready(self)
        try:
            await stop.wait()
        finally:
            for signum in signals_installed:
                loop.remove_signal_handler(signum)
            for listener in self._listeners:
                loop.remove_reader(listener.fileno())
            self._close_listeners()
            self._stop_workers()
            self._loop = None
            self._stop = None
        return self.stats()

    # ------------------------------------------------------------------
    # Binding and spawning (synchronous: runs before the loop exists, so
    # forked children inherit no event-loop state).
    # ------------------------------------------------------------------
    def _bind_listeners(self) -> None:
        if self.config.unix_path:
            clear_stale_unix_socket(self.config.unix_path)
            unix_sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                unix_sock.bind(self.config.unix_path)
                unix_sock.listen(self.config.listen_backlog)
                unix_sock.setblocking(False)
            except OSError:
                unix_sock.close()
                raise
            self._listeners.append(unix_sock)
            self.unix_path = self.config.unix_path
        if self.config.tcp_port is not None:
            tcp_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                tcp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                tcp_sock.bind((self.config.tcp_host, self.config.tcp_port))
                tcp_sock.listen(self.config.listen_backlog)
                tcp_sock.setblocking(False)
            except OSError:
                tcp_sock.close()
                raise
            self._listeners.append(tcp_sock)
            sockname = tcp_sock.getsockname()
            self.tcp_address = (sockname[0], sockname[1])

    def _spawn_worker(self, index: int) -> _Worker:
        parent_end, child_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.fork:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - forked child
                # The router's start-up handlers hold stop signals for the
                # router alone; the worker takes them as before.
                self._restore_stop_signals()
                # The child must hold exactly one inherited descriptor: its
                # own channel.  Everything else — the listeners, the parent
                # end, and crucially the *other* workers' parent ends
                # (keeping those open would hold their EOFs hostage) — is
                # closed before serving.
                parent_end.close()
                for listener in self._listeners:
                    listener.close()
                for other in self._workers:
                    if other.channel is None:  # slot degraded, nothing to close
                        continue
                    try:
                        other.channel.close()
                    except OSError:
                        pass
                worker_main(child_end, self.config, index)
                raise AssertionError("worker_main returned")
            child_end.close()
            return _Worker(
                channel=parent_end,
                index=index,
                pid=pid,
                spawned_at=time.monotonic(),
            )
        thread = threading.Thread(
            target=self._thread_worker_main,
            args=(child_end, index),
            name=f"plan-worker-{index}",
            daemon=True,
        )
        thread.start()
        return _Worker(
            channel=parent_end,
            index=index,
            thread=thread,
            spawned_at=time.monotonic(),
        )

    def _thread_worker_main(self, channel: socket.socket, index: int) -> None:
        try:
            asyncio.run(run_worker(channel, self.config, index))
        except Exception:
            # A crashed thread worker mirrors a crashed forked worker: its
            # channel dies and the router respawns on the next route.
            channel.close()

    # ------------------------------------------------------------------
    # Routing (event-loop callbacks; synchronous and non-blocking).
    # ------------------------------------------------------------------
    def _on_accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us during shutdown
            self._route(conn)

    def _route(self, conn: socket.socket) -> None:
        """Ship one accepted connection to the next live worker.

        ``send_fds`` duplicates the descriptor into the worker at sendmsg
        time, so the router's copy is closed immediately either way.  A
        broken channel means a dead worker: the crash-loop breaker decides
        whether it respawns now (first crash) or sits out a doubling backoff
        (consecutive crashes: the pool degrades to fewer live workers
        instead of fork-spinning), and the connection tries the next slot;
        only a pool with every worker unreachable drops it.
        """
        with conn:
            for _ in range(len(self._workers)):
                worker = self._workers[self._rr % len(self._workers)]
                self._rr += 1
                if worker.channel is None:
                    revived = self._try_revive(worker)
                    if revived is None:
                        continue
                    worker = revived
                assert worker.channel is not None
                try:
                    socket.send_fds(worker.channel, [b"c"], [conn.fileno()])
                except OSError:
                    self._mark_crashed(worker)
                    continue
                self.connections_routed += 1
                # Fault-injection site: "kill worker k after N connections
                # routed to it" — fired after the send so the Nth request is
                # genuinely in flight when its worker dies.  The kill target
                # is the spec's selector (the worker just routed to, when
                # one is named).
                for spec in faults.fire("pool.route", worker=worker.index):
                    if spec.action == "kill":
                        self._kill_worker(
                            spec.worker if spec.worker is not None else worker.index
                        )
                return
            self.connections_dropped += 1

    def _try_revive(self, worker: _Worker) -> _Worker | None:
        """Respawn a degraded slot once its crash-loop backoff has expired."""
        if time.monotonic() < self._not_before.get(worker.index, 0.0):
            self.respawns_suppressed += 1
            return None
        replacement = self._spawn_worker(worker.index)
        self._workers[self._workers.index(worker)] = replacement
        self.workers_respawned += 1
        return replacement

    def _mark_crashed(self, worker: _Worker) -> None:
        """Reap a dead worker; respawn now or degrade the slot with backoff.

        The breaker: a worker that had been up at least ``respawn_reset_s``
        gets the benign interpretation (transient kill — respawn
        immediately, the pre-breaker behaviour).  Consecutive crashes mean
        the worker cannot hold (a crash at startup, bad config): each
        one doubles the slot's backoff from ``respawn_backoff_s`` up to
        ``respawn_backoff_cap_s``, and until it expires the slot routes
        nothing — bounded respawn work no matter how fast crashes arrive.
        """
        if worker.channel is not None:
            try:
                worker.channel.close()
            except OSError:
                pass
        if worker.pid is not None:
            try:
                os.waitpid(worker.pid, os.WNOHANG)
            except ChildProcessError:
                pass
        now = time.monotonic()
        previous = self._crashes.get(worker.index, 0)
        healthy_run = now - worker.spawned_at >= self.config.respawn_reset_s
        crashes = 1 if previous == 0 or healthy_run else previous + 1
        self._crashes[worker.index] = crashes
        self.max_consecutive_crashes = max(self.max_consecutive_crashes, crashes)
        slot = self._workers.index(worker)
        if crashes == 1:
            self._workers[slot] = self._spawn_worker(worker.index)
            self.workers_respawned += 1
            return
        delay = min(
            self.config.respawn_backoff_cap_s,
            self.config.respawn_backoff_s * (2.0 ** (crashes - 2)),
        )
        self._not_before[worker.index] = now + delay
        self._workers[slot] = _Worker(
            channel=None, index=worker.index, spawned_at=now
        )

    def _kill_worker(self, index: int | None) -> None:
        """Fault-injection backend for ``pool.route`` kill specs.

        A forked worker dies for real (SIGKILL — no drain, in-flight
        requests lost); a thread worker cannot be killed, so its channel is
        torn down instead, which is detected identically by the router on
        the next route.  ``index=None`` kills the first live worker.
        """
        for worker in self._workers:
            if index is not None and worker.index != index:
                continue
            if worker.pid is not None:
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            elif worker.channel is not None:
                try:
                    worker.channel.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            return

    # ------------------------------------------------------------------
    # Shutdown (synchronous helpers driven from _serve's finally).
    # ------------------------------------------------------------------
    def _close_listeners(self) -> None:
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
            self.unix_path = None

    def _stop_workers(self, timeout_s: float = 10.0) -> None:
        """Half-close every channel (the workers' EOF), then reap/join.

        Workers drain on EOF: in-flight batches finish and queued requests
        get structured shutdown errors.  A forked
        worker that ignores the EOF past the deadline is killed — shutdown
        must terminate even if a worker wedged.
        """
        for worker in self._workers:
            if worker.channel is None:
                continue
            try:
                worker.channel.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        deadline = time.monotonic() + timeout_s
        for worker in self._workers:
            if worker.pid is not None:
                self._reap(worker.pid, deadline)
            elif worker.thread is not None:
                worker.thread.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.channel is None:
                continue
            try:
                worker.channel.close()
            except OSError:
                pass
        self._workers.clear()

    @staticmethod
    def _reap(pid: int, deadline: float) -> None:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return
            if done == pid:
                return
            if time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Router-side counters (per-worker stats live in the workers)."""
        return {
            "workers": self.config.workers,
            "mode": "fork" if self.fork else "thread",
            "connections_routed": self.connections_routed,
            "connections_dropped": self.connections_dropped,
            "workers_respawned": self.workers_respawned,
            "respawns_suppressed": self.respawns_suppressed,
            "max_consecutive_crashes": self.max_consecutive_crashes,
            "live_workers": sum(
                1 for worker in self._workers if worker.channel is not None
            ),
        }

