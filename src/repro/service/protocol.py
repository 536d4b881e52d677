"""Versioned wire protocol of the plan server (ISSUE 4 tentpole).

The serving stack speaks JSON lines: every message is one :class:`Envelope`
serialised as a single ``\\n``-terminated JSON object.  An envelope names its
``kind`` (what the message is), carries the protocol schema ``version`` it
was written against, an optional ``seq`` correlation number (echoed verbatim
in the reply, so a client may pipeline many requests per connection and
match responses arriving out of order), and a ``payload`` object whose shape
the kind determines.

Typed payload wrappers sit on top of the envelopes:

* :class:`PlanSubmit` — one :class:`~repro.service.api.PlanRequest` plus an
  optional relative deadline (``timeout_s``);
* :class:`PlanResult` — the :class:`~repro.service.api.PlanResponse` plus
  serving metadata (queueing delay, the size of the micro-batch that
  answered it);
* :class:`ErrorReply` — the structured error model: a machine-readable
  ``code`` from :data:`ERROR_CODES`, a human-readable ``message`` and an
  optional ``detail`` object.

Responses cross the wire at **full float precision** (``json`` round-trips
Python floats exactly via ``repr``), unlike the CLI-facing
``PlanResponse.to_dict`` which rounds ratios for display — the server's
acceptance gate compares served plans *bit-identically* against direct
``plan_many`` calls.

Version negotiation is per message: every envelope states its version and
the receiver answers any unsupported one with an ``error`` envelope of code
``unsupported-version`` whose detail lists :data:`SUPPORTED_VERSIONS` (a
``hello`` exchange at connect time surfaces the mismatch before any work is
submitted).  Decoding problems never tear down the transport — they produce
:class:`ProtocolError`, which the server maps onto an error envelope on the
same connection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..costmodel.abstract import SeriesEstimate
from .api import PlanRequest, PlanResponse, WorkloadError

__all__ = [
    "ERROR_ADMISSION",
    "ERROR_CODES",
    "ERROR_DEADLINE",
    "ERROR_INTERNAL",
    "ERROR_INVALID",
    "ERROR_SHUTDOWN",
    "ERROR_TAXONOMY",
    "ERROR_UNSUPPORTED_VERSION",
    "ERROR_WORKER_LOST",
    "Envelope",
    "ErrorReply",
    "KIND_ERROR",
    "KIND_HELLO",
    "KIND_HELLO_OK",
    "KIND_PLAN_RESULT",
    "KIND_PLAN_SUBMIT",
    "KIND_STATS",
    "KIND_STATS_REPLY",
    "PROTOCOL_VERSION",
    "PlanResult",
    "PlanSubmit",
    "ProtocolError",
    "SUPPORTED_VERSIONS",
    "is_retryable",
    "negotiate_version",
    "response_from_wire",
    "response_to_wire",
]

#: Current protocol schema version; bump on incompatible envelope changes.
PROTOCOL_VERSION = 1
#: Versions this build can speak.  A server answers other versions with an
#: ``unsupported-version`` error naming this tuple.
SUPPORTED_VERSIONS = (1,)

# ---------------------------------------------------------------------------
# Envelope kinds.
# ---------------------------------------------------------------------------
KIND_HELLO = "hello"  #: client -> server: identify + negotiate version
KIND_HELLO_OK = "hello.ok"  #: server -> client: negotiated settings
KIND_PLAN_SUBMIT = "plan.submit"  #: client -> server: one plan request
KIND_PLAN_RESULT = "plan.result"  #: server -> client: the answered plan
KIND_STATS = "stats"  #: client -> server: ask for server/scheduler counters
KIND_STATS_REPLY = "stats.reply"  #: server -> client: the counters
KIND_ERROR = "error"  #: server -> client: structured failure

# ---------------------------------------------------------------------------
# Structured error codes.
# ---------------------------------------------------------------------------
ERROR_INVALID = "invalid-request"  #: malformed envelope or plan payload
ERROR_UNSUPPORTED_VERSION = "unsupported-version"  #: version negotiation failed
ERROR_DEADLINE = "deadline-exceeded"  #: the request's deadline expired queued
ERROR_ADMISSION = "admission-rejected"  #: the client's token bucket ran dry
ERROR_SHUTDOWN = "server-shutdown"  #: the server closed with work pending
ERROR_INTERNAL = "internal-error"  #: the evaluation itself raised
ERROR_WORKER_LOST = "worker-lost"  #: the worker serving the connection died mid-request

#: The error-code table: every code this build can emit, classified by
#: whether a client may safely retry the request.  Plan requests are pure
#: computation (idempotent by construction — same request, same plan,
#: bit-identically), so retryability is purely about whether the *condition*
#: is transient: a dead worker, a drained token bucket or a shutting-down
#: server will heal; a malformed request or an evaluation bug will not.
#: :meth:`ErrorReply.envelope` refuses to put a code missing from this
#: table on the wire.
ERROR_TAXONOMY: dict[str, bool] = {
    ERROR_INVALID: False,
    ERROR_UNSUPPORTED_VERSION: False,
    ERROR_DEADLINE: True,
    ERROR_ADMISSION: True,
    ERROR_SHUTDOWN: True,
    ERROR_INTERNAL: False,
    ERROR_WORKER_LOST: True,
}

ERROR_CODES = tuple(ERROR_TAXONOMY)


def is_retryable(code: str) -> bool:
    """Whether a client may safely retry a request that failed with ``code``.

    Unknown codes are *not* retryable: a client that does not understand a
    failure must not blind-retry it (the server may grow new permanent
    failure codes faster than clients upgrade).
    """
    return ERROR_TAXONOMY.get(code, False)


class ProtocolError(ValueError):
    """Raised for malformed or unsupported wire messages.

    Carries the structured error ``code`` the peer should be answered with.
    """

    def __init__(self, message: str, code: str = ERROR_INVALID) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Envelope:
    """One wire message: a kind, a schema version, a payload, a correlation seq."""

    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    version: int = PROTOCOL_VERSION
    #: Correlation number assigned by the sender of a request and echoed in
    #: the reply; ``None`` for unsolicited messages.
    seq: int | None = None

    def to_json(self) -> str:
        """The envelope as one JSON line (no trailing newline)."""
        body: dict[str, Any] = {"kind": self.kind, "v": self.version}
        if self.seq is not None:
            body["seq"] = self.seq
        body["payload"] = dict(self.payload)
        return json.dumps(body, separators=(",", ":"))

    def to_bytes(self) -> bytes:
        return (self.to_json() + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, line: str | bytes) -> "Envelope":
        """Decode one JSON line; raises :class:`ProtocolError` on bad shape."""
        if isinstance(line, (bytes, bytearray)):
            line = line.decode("utf-8", errors="replace")
        try:
            body = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"envelope is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ProtocolError(
                f"envelope must be a JSON object, got {type(body).__name__}"
            )
        kind = body.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ProtocolError("envelope needs a string 'kind'")
        version = body.get("v", PROTOCOL_VERSION)
        if not isinstance(version, int) or isinstance(version, bool):
            raise ProtocolError("envelope version 'v' must be an integer")
        seq = body.get("seq")
        if seq is not None and (not isinstance(seq, int) or isinstance(seq, bool)):
            raise ProtocolError("envelope 'seq' must be an integer")
        payload = body.get("payload", {})
        if not isinstance(payload, dict):
            raise ProtocolError("envelope 'payload' must be an object")
        return cls(kind=kind, payload=payload, version=version, seq=seq)


def negotiate_version(requested: int) -> int:
    """The version to speak for a peer's ``requested`` one.

    Raises :class:`ProtocolError` (code ``unsupported-version``) when this
    build cannot speak it; the caller turns that into a structured error
    reply naming :data:`SUPPORTED_VERSIONS`.
    """
    if requested in SUPPORTED_VERSIONS:
        return requested
    raise ProtocolError(
        f"protocol version {requested} is not supported; this server speaks "
        f"{list(SUPPORTED_VERSIONS)}",
        code=ERROR_UNSUPPORTED_VERSION,
    )


# ---------------------------------------------------------------------------
# Full-precision response serialisation.
# ---------------------------------------------------------------------------
def response_to_wire(response: PlanResponse) -> dict[str, Any]:
    """A :class:`PlanResponse` as a JSON-safe dict at full float precision.

    ``json`` serialises floats via ``repr`` and parses them back to the
    identical IEEE-754 value, so a wire round trip is bit-exact — the
    property the server's parity gate (served plans vs direct ``plan_many``)
    depends on.  ``PlanResponse.to_dict`` stays the human/CLI-facing view.
    """
    estimate = response.estimate
    return {
        "id": response.request_id,
        "scheme": response.scheme,
        "ratios": [float(r) for r in response.ratios],
        "evaluations": int(response.evaluations),
        "group_size": int(response.group_size),
        "estimate": {
            "ratios": [float(r) for r in estimate.ratios],
            "cpu_step_s": [float(x) for x in estimate.cpu_step_s],
            "gpu_step_s": [float(x) for x in estimate.gpu_step_s],
            "cpu_delay_s": [float(x) for x in estimate.cpu_delay_s],
            "gpu_delay_s": [float(x) for x in estimate.gpu_delay_s],
            "intermediate_bytes": float(estimate.intermediate_bytes),
        },
    }


def _float_list(payload: Mapping[str, Any], key: str, where: str) -> list[float]:
    values = payload.get(key)
    if not isinstance(values, list):
        raise ProtocolError(f"{where}: '{key}' must be a list of numbers")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{where}: '{key}': {exc}") from exc


def response_from_wire(payload: Mapping[str, Any]) -> PlanResponse:
    """Rebuild a :class:`PlanResponse` from :func:`response_to_wire` output."""
    if not isinstance(payload, Mapping):
        raise ProtocolError("plan result payload must be an object")
    raw_estimate = payload.get("estimate")
    if not isinstance(raw_estimate, Mapping):
        raise ProtocolError("plan result: 'estimate' must be an object")
    estimate = SeriesEstimate(
        ratios=_float_list(raw_estimate, "ratios", "estimate"),
        cpu_step_s=_float_list(raw_estimate, "cpu_step_s", "estimate"),
        gpu_step_s=_float_list(raw_estimate, "gpu_step_s", "estimate"),
        cpu_delay_s=_float_list(raw_estimate, "cpu_delay_s", "estimate"),
        gpu_delay_s=_float_list(raw_estimate, "gpu_delay_s", "estimate"),
        intermediate_bytes=float(raw_estimate.get("intermediate_bytes", 0.0)),
    )
    try:
        return PlanResponse(
            request_id=str(payload.get("id", "")),
            scheme=str(payload.get("scheme", "")),
            ratios=_float_list(payload, "ratios", "plan result"),
            estimate=estimate,
            evaluations=int(payload.get("evaluations", 0)),
            group_size=int(payload.get("group_size", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"plan result: {exc}") from exc


# ---------------------------------------------------------------------------
# Typed payloads.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlanSubmit:
    """A ``plan.submit`` payload: one request plus its relative deadline."""

    request: PlanRequest
    #: Seconds (from server receipt) this request is willing to wait in the
    #: scheduler's queues; expired requests get an ``deadline-exceeded``
    #: error instead of an answer.  ``None`` means the server default.
    timeout_s: float | None = None

    def envelope(self, seq: int | None = None, version: int = PROTOCOL_VERSION) -> Envelope:
        payload: dict[str, Any] = {"request": self.request.to_dict()}
        if self.timeout_s is not None:
            payload["timeout_s"] = float(self.timeout_s)
        return Envelope(
            kind=KIND_PLAN_SUBMIT, payload=payload, version=version, seq=seq
        )

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> "PlanSubmit":
        raw = envelope.payload.get("request")
        if not isinstance(raw, Mapping):
            raise ProtocolError("plan.submit needs a 'request' object")
        try:
            request = PlanRequest.from_dict(raw)
        except WorkloadError as exc:
            raise ProtocolError(f"invalid plan request: {exc}") from exc
        timeout_s = envelope.payload.get("timeout_s")
        if timeout_s is not None:
            try:
                timeout_s = float(timeout_s)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"'timeout_s': {exc}") from exc
            # isfinite: a NaN deadline compares False against every clock
            # reading and would silently behave as "no deadline".
            if not (math.isfinite(timeout_s) and timeout_s > 0.0):
                raise ProtocolError("'timeout_s' must be positive and finite")
        return cls(request=request, timeout_s=timeout_s)


@dataclass
class PlanResult:
    """A ``plan.result`` payload: the answer plus serving metadata."""

    response: PlanResponse
    #: Seconds from admission until the answering ``plan_many`` returned
    #: (a known question answered at admission never queues).
    queued_s: float = 0.0
    #: How many requests the answering ``plan_many`` micro-batch carried
    #: (1 for an answer at admission).
    batch_size: int = 1

    def envelope(self, seq: int | None = None, version: int = PROTOCOL_VERSION) -> Envelope:
        return Envelope(
            kind=KIND_PLAN_RESULT,
            payload={
                "plan": response_to_wire(self.response),
                "queued_s": float(self.queued_s),
                "batch_size": int(self.batch_size),
            },
            version=version,
            seq=seq,
        )

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> "PlanResult":
        plan = envelope.payload.get("plan")
        if not isinstance(plan, Mapping):
            raise ProtocolError("plan.result needs a 'plan' object")
        try:
            queued_s = float(envelope.payload.get("queued_s", 0.0))
            batch_size = int(envelope.payload.get("batch_size", 1))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"plan.result metadata: {exc}") from exc
        return cls(
            response=response_from_wire(plan),
            queued_s=queued_s,
            batch_size=batch_size,
        )


@dataclass(frozen=True)
class ErrorReply:
    """An ``error`` payload: the structured error model.

    ``code`` is machine-readable (one of :data:`ERROR_CODES`; unknown codes
    must be treated as ``internal-error`` by clients so the server can grow
    new ones), ``message`` is for humans, ``request_id`` names the plan
    request at fault when there is one, and ``detail`` carries
    code-specific structure (e.g. the supported versions, or a retry hint).
    """

    code: str
    message: str
    request_id: str = ""
    detail: Mapping[str, Any] = field(default_factory=dict)

    @property
    def retryable(self) -> bool:
        """This code's classification in :data:`ERROR_TAXONOMY` (the wire
        copy of the flag is advisory; both ends of this build share the
        table, so the property is the source of truth)."""
        return is_retryable(self.code)

    def envelope(self, seq: int | None = None, version: int = PROTOCOL_VERSION) -> Envelope:
        """The reply as an ``error`` envelope.

        Raises :class:`ValueError` for a code missing from
        :data:`ERROR_TAXONOMY`: a server must never send a code its clients
        cannot classify.
        """
        retryable = ERROR_TAXONOMY.get(self.code)
        if retryable is None:
            raise ValueError(
                f"error code {self.code!r} is not registered in ERROR_TAXONOMY"
            )
        payload: dict[str, Any] = {
            "code": self.code,
            "message": self.message,
            "retryable": retryable,
        }
        if self.request_id:
            payload["id"] = self.request_id
        if self.detail:
            payload["detail"] = dict(self.detail)
        return Envelope(kind=KIND_ERROR, payload=payload, version=version, seq=seq)

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> "ErrorReply":
        code = envelope.payload.get("code")
        if not isinstance(code, str) or not code:
            raise ProtocolError("error payload needs a string 'code'")
        detail = envelope.payload.get("detail", {})
        if not isinstance(detail, Mapping):
            raise ProtocolError("error 'detail' must be an object")
        retryable = envelope.payload.get("retryable")
        if retryable is not None and not isinstance(retryable, bool):
            raise ProtocolError("error 'retryable' must be a boolean")
        return cls(
            code=code,
            message=str(envelope.payload.get("message", "")),
            request_id=str(envelope.payload.get("id", "")),
            detail=dict(detail),
        )
