"""Asyncio JSON-lines plan server and client (ISSUE 4 tentpole).

:class:`PlanServer` is the transport layer of the serving stack: it accepts
connections on a TCP port and/or a unix domain socket, reads one
:class:`~repro.service.protocol.Envelope` per line, and feeds every
``plan.submit`` into the shared :class:`MicroBatchScheduler` — so requests
from *different connections* coalesce into the same ``plan_many``
micro-batches.  Replies are written back on the submitting connection,
tagged with the request's ``seq``, in completion order (a client may
pipeline any number of submissions and match answers by seq).

Malformed lines and unsupported protocol versions never tear a connection
down: they are answered with structured ``error`` envelopes and the
connection keeps serving.  Each connection's fair-queuing identity defaults
to a per-connection name and can be overridden by the ``hello`` handshake's
``client`` field (clients of one tenant may share an identity — and
therefore one fairness weight and admission bucket — across connections).

:func:`connect_plan_client` returns :class:`PlanClient`, the asyncio client
used by the tests, the benchmark gate, ``examples/plan_server.py`` and CI's
serve-gate; it raises :class:`PlanServerError` carrying the structured error
code when the server answers with one.
"""

from __future__ import annotations

import asyncio
import errno
import itertools
import os
import random
import socket
import stat
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

from .. import faults
from .api import PlanRequest
from .protocol import (
    ERROR_INTERNAL,
    ERROR_INVALID,
    ERROR_WORKER_LOST,
    KIND_ERROR,
    KIND_HELLO,
    KIND_HELLO_OK,
    KIND_PLAN_RESULT,
    KIND_PLAN_SUBMIT,
    KIND_STATS,
    KIND_STATS_REPLY,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Envelope,
    ErrorReply,
    PlanResult,
    PlanSubmit,
    ProtocolError,
    is_retryable,
    negotiate_version,
)
from .scheduler import MicroBatchScheduler, SchedulerError
from .service import PlanService

__all__ = [
    "PlanClient",
    "PlanServer",
    "PlanServerError",
    "RetryPolicy",
    "RetryingPlanClient",
    "clear_stale_unix_socket",
    "connect_plan_client",
    "connect_retrying_client",
]

#: Hard per-line bound; a line longer than this is a protocol violation, not
#: a workload (the largest legitimate submit is a few hundred steps).
MAX_LINE_BYTES = 4 * 1024 * 1024


def clear_stale_unix_socket(path: str) -> bool:
    """Unlink a dead predecessor's socket file so ``path`` can be re-bound.

    A crashed server (SIGKILL, OOM, power loss) leaves its unix socket file
    behind, and every restart then fails with ``EADDRINUSE`` until someone
    runs ``rm`` by hand.  The file alone does not prove a live server, so
    this probes it: a refused connection means nobody is listening and the
    file is stale garbage — unlink it.  A *successful* connection means the
    address genuinely is in use; the file is left alone and the caller's
    bind fails with the honest ``EADDRINUSE``.

    Returns True when a stale socket file was removed.  Non-socket files are
    never unlinked (a path collision with a regular file is a configuration
    error the bind should surface, not something to delete).
    """
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        return False  # nothing there (or unreadable): let bind proceed
    if not stat.S_ISSOCK(mode):
        return False
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(path)
    except (ConnectionRefusedError, TimeoutError):
        pass  # dead socket: no listener behind the file
    except OSError as exc:
        if exc.errno not in (errno.ECONNREFUSED, errno.ENOENT):
            return False  # unexpected failure: do not guess, do not unlink
        if exc.errno == errno.ENOENT:
            return False  # raced away already
    else:
        return False  # a live server answered: the address is taken
    finally:
        probe.close()
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _bind_unix_listener(path: str) -> socket.socket:
    """Probe-and-clear a stale predecessor, then bind ``path`` ourselves.

    Binding explicitly rather than letting asyncio do it matters: stdlib
    ``create_unix_server`` unlinks *any* pre-existing socket file at the
    path — including a live listener's — whereas a raw bind keeps the
    honest ``EADDRINUSE`` for a genuinely taken address.  (Socket creation
    and a unix-path bind are instantaneous syscalls, not blocking I/O.)
    """
    clear_stale_unix_socket(path)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.bind(path)
    except OSError:
        sock.close()
        raise
    return sock


def _unlink_unix_socket(path: str) -> None:
    """Best-effort removal of our own socket file on shutdown."""
    try:
        if stat.S_ISSOCK(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass


class PlanServerError(Exception):
    """Client-side mirror of a structured ``error`` reply.

    ``retryable`` is the code's classification in the protocol's error
    taxonomy — :class:`RetryingPlanClient` keys its bounded-retry decision
    off this flag and nothing else.
    """

    def __init__(self, code: str, message: str, request_id: str = "") -> None:
        super().__init__(message)
        self.code = code
        self.request_id = request_id
        self.retryable = is_retryable(code)


class PlanServer:
    """Serve plan requests over TCP and/or unix sockets via one scheduler.

    Either pass a preconfigured ``scheduler`` or let the server build one
    from the keyword knobs (which mirror
    :class:`~repro.service.scheduler.MicroBatchScheduler`).  One server may
    listen on several endpoints at once; all of them feed the same
    scheduler, cache and fairness state.
    """

    def __init__(
        self,
        service: PlanService | None = None,
        scheduler: MicroBatchScheduler | None = None,
        **scheduler_kwargs: Any,
    ) -> None:
        if scheduler is not None and (scheduler_kwargs or service is not None):
            raise ValueError(
                "pass either a preconfigured scheduler or service/scheduler "
                "knobs, not both"
            )
        self.scheduler = scheduler or MicroBatchScheduler(
            service if service is not None else PlanService(), **scheduler_kwargs
        )
        self._servers: list[asyncio.base_events.Server] = []
        self._conn_ids = itertools.count(1)
        self._handlers: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        self.connections_served = 0
        #: (host, port) of the TCP endpoint once started (port resolved).
        self.tcp_address: tuple[str, int] | None = None
        #: Path of the unix endpoint once started.
        self.unix_path: str | None = None

    # ------------------------------------------------------------------
    async def start_unix(self, path: str) -> None:
        """Listen on a unix domain socket at ``path``.

        A stale socket file left by a crashed predecessor is probed and
        unlinked first (see :func:`clear_stale_unix_socket`), so an unclean
        restart binds cleanly; a path with a *live* listener still fails
        with ``EADDRINUSE``.
        """
        await self.scheduler.start()
        server = await asyncio.start_unix_server(
            self._handle_connection, sock=_bind_unix_listener(path),
            limit=MAX_LINE_BYTES,
        )
        self._servers.append(server)
        self.unix_path = path

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Listen on TCP ``host:port`` (``port=0`` picks a free port)."""
        await self.scheduler.start()
        server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        self._servers.append(server)
        sockname = server.sockets[0].getsockname()
        self.tcp_address = (sockname[0], sockname[1])

    async def adopt_connection(self, sock: "socket.socket") -> None:
        """Serve one already-accepted connection (pre-fork worker path).

        The worker pool's router accepts connections in the parent process
        and ships the connected file descriptors to workers over
        ``SCM_RIGHTS``; the worker wraps each adopted socket in asyncio
        streams here and serves it exactly like a connection accepted by
        :meth:`start_unix`/:meth:`start_tcp` — same handler, same scheduler,
        same ``close()`` cancellation path.  Returns once the handler task
        is spawned (not when the connection ends).
        """
        await self.scheduler.start()
        try:
            reader, writer = await asyncio.open_connection(
                sock=sock, limit=MAX_LINE_BYTES
            )
        except OSError:
            sock.close()
            return
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        # _handle_connection registers itself in _connections on first run,
        # but close() may win that race — track the task from birth so an
        # adopted connection can never outlive a closed server.
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def close(self) -> None:
        """Stop listening, drop connections, fail queued work structurally."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        # Connection handlers are spawned by asyncio's server machinery, not
        # by us — they must be cancelled explicitly or an already-connected
        # client would keep getting served by a "closed" server.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()
        await self.scheduler.close()
        if self.unix_path is not None:
            # Clean shutdowns must not leave the socket file behind — that
            # is exactly the stale-file mess start_unix has to mop up.
            _unlink_unix_socket(self.unix_path)
            self.unix_path = None

    async def __aenter__(self) -> "PlanServer":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        client_id = f"conn-{next(self._conn_ids)}"
        write_lock = asyncio.Lock()
        submits: set[asyncio.Task] = set()

        async def reply(envelope: Envelope) -> None:
            for spec in faults.fire("server.reply"):
                if spec.action == "reset":
                    # A mid-reply RST: the peer sees the connection torn down
                    # with the answer undelivered — the worker-lost failover
                    # path from the client's point of view.
                    writer.transport.abort()
                    raise ConnectionResetError("injected socket reset before reply")
            async with write_lock:
                writer.write(envelope.to_bytes())
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Overlong line or a dropped peer: nothing sane to parse.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                client_id = await self._handle_line(line, client_id, reply, submits)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass  # the transport died under a reply; nothing left to serve
        finally:
            for task in submits:
                task.cancel()
            if submits:
                await asyncio.gather(*submits, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(
        self,
        line: bytes,
        client_id: str,
        reply: Any,
        submits: set[asyncio.Task],
    ) -> str:
        """Dispatch one wire line; returns the (possibly renamed) client id."""
        try:
            envelope = Envelope.from_json(line)
        except ProtocolError as exc:
            await reply(ErrorReply(code=exc.code, message=str(exc)).envelope())
            return client_id
        try:
            negotiate_version(envelope.version)
        except ProtocolError as exc:
            await reply(
                ErrorReply(
                    code=exc.code,
                    message=str(exc),
                    detail={"supported_versions": list(SUPPORTED_VERSIONS)},
                ).envelope(seq=envelope.seq)
            )
            return client_id

        if envelope.kind == KIND_HELLO:
            requested = envelope.payload.get("client")
            if isinstance(requested, str) and requested:
                client_id = requested
            await reply(
                Envelope(
                    kind=KIND_HELLO_OK,
                    payload={
                        "version": envelope.version,
                        "client": client_id,
                        "window_s": self.scheduler.window_s,
                        "max_batch": self.scheduler.max_batch,
                    },
                    seq=envelope.seq,
                )
            )
        elif envelope.kind == KIND_STATS:
            await reply(
                Envelope(
                    kind=KIND_STATS_REPLY, payload=self.stats(), seq=envelope.seq
                )
            )
        elif envelope.kind == KIND_PLAN_SUBMIT:
            try:
                submit = PlanSubmit.from_envelope(envelope)
            except ProtocolError as exc:
                await reply(
                    ErrorReply(code=exc.code, message=str(exc)).envelope(
                        seq=envelope.seq
                    )
                )
                return client_id
            # Served concurrently so one slow submit never blocks the
            # connection's read loop; the reply carries the submit's seq.
            task = asyncio.get_running_loop().create_task(
                self._serve_submit(submit, envelope.seq, client_id, reply)
            )
            submits.add(task)
            self._handlers.add(task)
            task.add_done_callback(submits.discard)
            task.add_done_callback(self._handlers.discard)
        else:
            await reply(
                ErrorReply(
                    code=ERROR_INVALID,
                    message=f"unknown envelope kind {envelope.kind!r}",
                ).envelope(seq=envelope.seq)
            )
        return client_id

    async def _serve_submit(
        self, submit: PlanSubmit, seq: int | None, client_id: str, reply: Any
    ) -> None:
        try:
            try:
                result = await self.scheduler.submit(
                    submit.request, client_id=client_id, timeout_s=submit.timeout_s
                )
            except SchedulerError as exc:
                envelope = ErrorReply(
                    code=exc.code,
                    message=str(exc),
                    request_id=submit.request.request_id,
                ).envelope(seq=seq)
            else:
                envelope = result.envelope(seq=seq)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced as structured error
            # Also catches the ValueError of an error code missing from
            # ERROR_TAXONOMY: the client gets an answer, never a hang.
            envelope = ErrorReply(
                code=ERROR_INTERNAL,
                message=f"unexpected serving failure: {exc}",
                request_id=submit.request.request_id,
            ).envelope(seq=seq)
        try:
            await reply(envelope)
        except (ConnectionError, OSError):
            pass  # the client went away; the answer has no recipient

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Server counters plus the scheduler's (which nest the service's)."""
        return {
            "connections_served": self.connections_served,
            "scheduler": self.scheduler.stats(),
        }


# ---------------------------------------------------------------------------
# Async client.
# ---------------------------------------------------------------------------
class PlanClient:
    """Pipelined asyncio client for :class:`PlanServer`.

    Every outgoing request gets a fresh ``seq``; a background reader task
    resolves the matching future when the reply lands, so any number of
    :meth:`submit` calls may be in flight concurrently on one connection.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_id: str = "",
        version: int = PROTOCOL_VERSION,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.client_id = client_id
        self.version = version
        self._seq = itertools.count(1)
        self._pending: dict[int, asyncio.Future[Envelope]] = {}
        self._write_lock = asyncio.Lock()
        self._reader_task: asyncio.Task | None = None

    async def _start(self) -> None:
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except ValueError:
                    break  # overlong server line; fail the pending futures
                if not line:
                    break
                try:
                    envelope = Envelope.from_json(line)
                except ProtocolError:
                    continue  # an unparseable server line matches no future
                if envelope.seq is None:
                    continue
                future = self._pending.pop(envelope.seq, None)
                if future is not None and not future.done():
                    future.set_result(envelope)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass
        finally:
            # A connection that dies with requests in flight is the client's
            # view of a killed worker: fail the futures with the structured,
            # *retryable* worker-lost error so retry layers can resubmit
            # (plan requests are pure computation — idempotent by
            # construction) instead of surfacing a bare transport error.
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        PlanServerError(
                            ERROR_WORKER_LOST,
                            "connection closed with the request in flight",
                        )
                    )
            self._pending.clear()

    async def _request(self, envelope: Envelope) -> Envelope:
        assert envelope.seq is not None
        if self._reader_task is None or self._reader_task.done():
            # The read loop is gone (EOF, overlong line, closed socket): a
            # freshly registered future could never be resolved — fail fast
            # instead of letting the caller await forever on a half-open
            # connection whose write side still accepts bytes.
            raise PlanServerError(
                ERROR_WORKER_LOST, "plan server connection closed"
            )
        future: asyncio.Future[Envelope] = asyncio.get_running_loop().create_future()
        self._pending[envelope.seq] = future
        try:
            async with self._write_lock:
                self._writer.write(envelope.to_bytes())
                await self._writer.drain()
            return await future
        except BaseException:
            # The caller is taking an exception instead of the reply (write
            # failure, timeout cancellation): deregister the future so the
            # read loop's worker-lost fan-out never sets an exception nobody
            # retrieves.  The read loop may already have failed it (and
            # cleared ``_pending``) while this request sat in ``drain()``,
            # so settle the local future itself: retrieve its exception if
            # it is done, cancel it otherwise.
            self._pending.pop(envelope.seq, None)
            if not future.done():
                future.cancel()
            elif not future.cancelled():
                future.exception()
            raise

    @staticmethod
    def _raise_on_error(envelope: Envelope) -> None:
        if envelope.kind == KIND_ERROR:
            error = ErrorReply.from_envelope(envelope)
            raise PlanServerError(error.code, error.message, error.request_id)

    # ------------------------------------------------------------------
    async def hello(self) -> dict[str, Any]:
        """Negotiate the protocol version and announce the client identity."""
        payload = {"client": self.client_id} if self.client_id else {}
        envelope = await self._request(
            Envelope(
                kind=KIND_HELLO,
                payload=payload,
                version=self.version,
                seq=next(self._seq),
            )
        )
        self._raise_on_error(envelope)
        return dict(envelope.payload)

    async def submit(
        self, request: PlanRequest, timeout_s: float | None = None
    ) -> PlanResult:
        """Submit one request; returns the result or raises the wire error."""
        envelope = await self._request(
            PlanSubmit(request=request, timeout_s=timeout_s).envelope(
                seq=next(self._seq), version=self.version
            )
        )
        self._raise_on_error(envelope)
        if envelope.kind != KIND_PLAN_RESULT:
            raise PlanServerError(
                ERROR_INVALID, f"expected plan.result, got {envelope.kind!r}"
            )
        return PlanResult.from_envelope(envelope)

    async def plan_many(
        self, requests: Sequence[PlanRequest], timeout_s: float | None = None
    ) -> list[PlanResult]:
        """Pipeline a whole batch on this connection; results in order."""
        return list(
            await asyncio.gather(
                *(self.submit(request, timeout_s=timeout_s) for request in requests)
            )
        )

    async def stats(self) -> dict[str, Any]:
        envelope = await self._request(
            Envelope(kind=KIND_STATS, version=self.version, seq=next(self._seq))
        )
        self._raise_on_error(envelope)
        return dict(envelope.payload)

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        # Take the write lock so an in-flight `_request` finishes its
        # write+drain before the transport goes away under it.
        async with self._write_lock:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def connect_plan_client(
    path: str | None = None,
    *,
    host: str | None = None,
    port: int | None = None,
    client_id: str = "",
    version: int = PROTOCOL_VERSION,
    hello: bool = True,
) -> PlanClient:
    """Connect to a plan server over a unix socket (``path``) or TCP.

    Performs the ``hello`` handshake by default (raising
    :class:`PlanServerError` on version rejection); pass ``hello=False`` to
    skip it — the server then bills the connection under a per-connection
    identity.
    """
    if (path is None) == (host is None or port is None):
        raise ValueError("pass either a unix socket path or host and port")
    if path is not None:
        reader, writer = await asyncio.open_unix_connection(path, limit=MAX_LINE_BYTES)
    else:
        assert host is not None and port is not None
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
    client = PlanClient(reader, writer, client_id=client_id, version=version)
    await client._start()
    if hello:
        try:
            await client.hello()
        except BaseException:
            await client.close()
            raise
    return client


# ---------------------------------------------------------------------------
# Bounded retry with exponential backoff + full jitter.
# ---------------------------------------------------------------------------
@dataclass
class RetryPolicy:
    """Bounded retry: exponential backoff with *full jitter*.

    The delay before retry ``n`` (counting from 0) is drawn uniformly from
    ``[0, min(cap_s, base_s * 2**n)]`` — the full-jitter variant, which
    decorrelates the retry storms of many clients failing over from the
    same killed worker at once.  ``seed`` pins the jitter stream for the
    deterministic chaos suite; leave it ``None`` in production.
    """

    max_attempts: int = 5
    base_s: float = 0.02
    cap_s: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_s < 0.0 or self.cap_s < 0.0:
            raise ValueError("backoff delays must be non-negative")

    def make_rng(self) -> random.Random:
        return random.Random(self.seed)

    def backoff_s(self, retry: int, rng: random.Random) -> float:
        return rng.uniform(0.0, min(self.cap_s, self.base_s * (2.0 ** retry)))


class RetryingPlanClient:
    """A :class:`PlanClient` wrapper that survives worker loss.

    Failure handling is keyed *only* off the protocol's error taxonomy: a
    :class:`PlanServerError` whose ``retryable`` flag is False propagates
    immediately; retryable errors and bare transport errors are retried up
    to ``policy.max_attempts`` times with full-jitter backoff.  On
    ``worker-lost`` (or any transport-level failure) the underlying
    connection is dropped and the next attempt reconnects — the router then
    routes the new connection to a live worker.  Safe because plan requests
    are pure computation: a retried request returns the bit-identical plan.
    """

    def __init__(
        self,
        connect: Callable[[], Awaitable[PlanClient]],
        policy: RetryPolicy | None = None,
    ) -> None:
        self._connect = connect
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = self.policy.make_rng()
        self._client: PlanClient | None = None
        self._client_lock = asyncio.Lock()
        #: Submissions retried after a retryable failure.
        self.retries = 0
        #: Connections (re-)established, including the first.
        self.connects = 0

    async def _ensure_client(self) -> PlanClient:
        # The counters are advisory, event-loop-confined stats: bump them
        # outside the lock (which only serialises connection setup).
        created = False
        async with self._client_lock:
            if self._client is None:
                self._client = await self._connect()
                created = True
            client = self._client
        if created:
            self.connects += 1
        return client

    async def _drop_client(self, client: PlanClient) -> None:
        async with self._client_lock:
            if self._client is client:
                self._client = None
        try:
            await client.close()
        except (ConnectionError, OSError):
            pass

    async def submit(
        self, request: PlanRequest, timeout_s: float | None = None
    ) -> PlanResult:
        last_error: BaseException | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self.retries += 1
                await asyncio.sleep(self.policy.backoff_s(attempt - 1, self._rng))
            client: PlanClient | None = None
            try:
                client = await self._ensure_client()
                return await client.submit(request, timeout_s=timeout_s)
            except PlanServerError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
                if exc.code == ERROR_WORKER_LOST and client is not None:
                    await self._drop_client(client)
            except (ConnectionError, OSError) as exc:
                last_error = exc
                if client is not None:
                    await self._drop_client(client)
        assert last_error is not None
        raise last_error

    async def plan_many(
        self, requests: Sequence[PlanRequest], timeout_s: float | None = None
    ) -> list[PlanResult]:
        """Concurrent retried submissions; results in request order."""
        return list(
            await asyncio.gather(
                *(self.submit(request, timeout_s=timeout_s) for request in requests)
            )
        )

    async def close(self) -> None:
        async with self._client_lock:
            client, self._client = self._client, None
        if client is not None:
            try:
                await client.close()
            except (ConnectionError, OSError):
                pass

    def stats(self) -> dict[str, int]:
        return {"retries": self.retries, "connects": self.connects}


def connect_retrying_client(
    path: str | None = None,
    *,
    host: str | None = None,
    port: int | None = None,
    client_id: str = "",
    version: int = PROTOCOL_VERSION,
    policy: RetryPolicy | None = None,
) -> RetryingPlanClient:
    """A :class:`RetryingPlanClient` for a unix-socket or TCP plan server.

    Connects lazily (and re-connects after worker loss) via
    :func:`connect_plan_client`; note this is a plain function — the first
    connection is made by the first ``submit``.
    """

    async def factory() -> PlanClient:
        return await connect_plan_client(
            path, host=host, port=port, client_id=client_id, version=version
        )

    return RetryingPlanClient(factory, policy=policy)
