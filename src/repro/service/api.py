"""Request/response API of the multi-query plan service.

A :class:`PlanRequest` names one planning question against the cost model: a
calibrated step series plus either a co-processing scheme to optimise
(``PL``/``OL``/``DD``/``CPU``/``GPU``) or a ``WHAT-IF`` ratio vector to
estimate as-is.  :class:`PlanResponse` carries the chosen ratios, the full
reference :class:`~repro.costmodel.abstract.SeriesEstimate` and bookkeeping
about how the request was served (how many engine evaluations it cost and how
many sibling requests shared its work).

Both sides (de)serialise to plain dicts, so a JSON workload file maps 1:1
onto a list of requests — that is the on-disk format the ``repro plan`` CLI
subcommand reads and the format :func:`load_workload` validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..costmodel.abstract import CostModelError, SeriesEstimate, StepCost
from ..costmodel.batch import Fingerprint, steps_fingerprint
from ..costmodel.optimizer import DEFAULT_DELTA

__all__ = [
    "OPTIMIZE_SCHEMES",
    "PlanRequest",
    "PlanResponse",
    "WHAT_IF",
    "WorkloadError",
    "load_workload",
]

#: Schemes the service optimises (dispatching to ``optimize_scheme``).
OPTIMIZE_SCHEMES = ("PL", "OL", "DD", "CPU", "GPU", "CPU-ONLY", "GPU-ONLY")

#: Pseudo-scheme: estimate the request's own ratio vector instead of
#: optimising one (the paper's what-if questions).
WHAT_IF = "WHAT-IF"

#: Identity of a request's *answer* (fingerprint, scheme, delta, ratios):
#: equal keys are served by one solve.
TaskKey = tuple[Fingerprint, str, float, "tuple[float, ...] | None"]


class WorkloadError(ValueError):
    """Raised for malformed plan requests or workload files."""


@dataclass(frozen=True)
class PlanRequest:
    """One planning question for :class:`~repro.service.PlanService`."""

    steps: tuple[StepCost, ...]
    scheme: str = "PL"
    delta: float = DEFAULT_DELTA
    #: Required for ``WHAT-IF`` requests; ignored otherwise.
    ratios: tuple[float, ...] | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "scheme", str(self.scheme).upper())
        if self.ratios is not None:
            object.__setattr__(
                self, "ratios", tuple(float(r) for r in self.ratios)
            )
        if not self.steps:
            raise WorkloadError("a plan request needs at least one step")
        if not all(isinstance(s, StepCost) for s in self.steps):
            raise WorkloadError("steps must be StepCost instances")
        if self.scheme not in OPTIMIZE_SCHEMES and self.scheme != WHAT_IF:
            raise WorkloadError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{OPTIMIZE_SCHEMES + (WHAT_IF,)}"
            )
        if not 0.0 < self.delta <= 1.0:
            raise WorkloadError(f"delta must be in (0, 1], got {self.delta}")
        if self.scheme == WHAT_IF:
            if self.ratios is None:
                raise WorkloadError("WHAT-IF requests need a ratio vector")
            if len(self.ratios) != len(self.steps):
                raise WorkloadError(
                    f"got {len(self.ratios)} ratios for {len(self.steps)} steps"
                )
            if any(not 0.0 <= r <= 1.0 for r in self.ratios):
                raise WorkloadError("WHAT-IF ratios must lie in [0, 1]")
        elif self.ratios is not None:
            # Ratios are documented as ignored for optimisation schemes;
            # dropping them keeps the task key (and so deduplication) from
            # treating otherwise-identical requests as distinct tasks.
            object.__setattr__(self, "ratios", None)

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> Fingerprint:
        """Steps identity used for cross-request grouping and caching."""
        return steps_fingerprint(self.steps)

    @property
    def task_key(self) -> "TaskKey":
        """Identity of the *answer*: equal keys are served by one solve."""
        return (self.fingerprint, self.scheme, self.delta, self.ratios)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], index: int = 0) -> "PlanRequest":
        """Build a request from one JSON-workload entry.

        Raises :class:`WorkloadError` (with the entry's position) on missing
        or malformed fields.
        """
        if not isinstance(payload, Mapping):
            raise WorkloadError(f"request #{index}: expected an object, got {type(payload).__name__}")
        raw_steps = payload.get("steps")
        if not isinstance(raw_steps, Sequence) or isinstance(raw_steps, (str, bytes)):
            raise WorkloadError(f"request #{index}: 'steps' must be a list of step objects")
        steps = []
        for j, raw in enumerate(raw_steps):
            if not isinstance(raw, Mapping):
                raise WorkloadError(f"request #{index} step #{j}: expected an object")
            try:
                steps.append(
                    StepCost(
                        name=str(raw.get("name", f"step{j}")),
                        n_tuples=int(raw["n_tuples"]),
                        cpu_unit_s=float(raw["cpu_unit_s"]),
                        gpu_unit_s=float(raw["gpu_unit_s"]),
                        intermediate_bytes_per_tuple=float(
                            raw.get("intermediate_bytes_per_tuple", 8.0)
                        ),
                    )
                )
            except KeyError as exc:
                raise WorkloadError(
                    f"request #{index} step #{j}: missing field {exc.args[0]!r}"
                ) from exc
            except (TypeError, ValueError, CostModelError) as exc:
                raise WorkloadError(f"request #{index} step #{j}: {exc}") from exc
        try:
            return cls(
                steps=tuple(steps),
                scheme=str(payload.get("scheme", "PL")),
                delta=float(payload.get("delta", DEFAULT_DELTA)),
                ratios=(
                    tuple(float(r) for r in payload["ratios"])
                    if payload.get("ratios") is not None
                    else None
                ),
                request_id=str(payload.get("id", payload.get("request_id", f"q{index}"))),
            )
        except WorkloadError as exc:
            raise WorkloadError(f"request #{index}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise WorkloadError(f"request #{index}: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.request_id,
            "scheme": self.scheme,
            "delta": self.delta,
            "steps": [
                {
                    "name": s.name,
                    "n_tuples": s.n_tuples,
                    "cpu_unit_s": s.cpu_unit_s,
                    "gpu_unit_s": s.gpu_unit_s,
                    "intermediate_bytes_per_tuple": s.intermediate_bytes_per_tuple,
                }
                for s in self.steps
            ],
        }
        if self.ratios is not None:
            payload["ratios"] = list(self.ratios)
        return payload


@dataclass
class PlanResponse:
    """The service's answer to one :class:`PlanRequest`."""

    request_id: str
    scheme: str
    ratios: list[float]
    estimate: SeriesEstimate
    #: Engine evaluations charged to this request's solve (0 when another
    #: request in the same batch already solved the identical task, or when
    #: the answer came from the service's answer cache).
    evaluations: int = 0
    #: How many requests of the batch were answered by this solve.
    group_size: int = 1

    @property
    def total_s(self) -> float:
        return self.estimate.total_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.request_id,
            "scheme": self.scheme,
            "ratios": [round(float(r), 12) for r in self.ratios],
            "total_s": self.estimate.total_s,
            "cpu_total_s": self.estimate.cpu_total_s,
            "gpu_total_s": self.estimate.gpu_total_s,
            "intermediate_bytes": self.estimate.intermediate_bytes,
            "evaluations": self.evaluations,
            "group_size": self.group_size,
        }


def load_workload(payload: Any) -> list[PlanRequest]:
    """Validate a decoded JSON workload into a list of requests.

    Accepts either a bare list of request objects or ``{"requests": [...]}``
    with an optional top-level ``"delta"`` default applied to requests that
    do not set their own.
    """
    default_delta: float | None = None
    if isinstance(payload, Mapping):
        if "requests" not in payload:
            raise WorkloadError("workload object needs a 'requests' list")
        if payload.get("delta") is not None:
            try:
                default_delta = float(payload["delta"])
            except (TypeError, ValueError) as exc:
                raise WorkloadError(f"workload 'delta': {exc}") from exc
        entries = payload["requests"]
    else:
        entries = payload
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise WorkloadError("workload must be a list of requests or {'requests': [...]}")
    if not entries:
        raise WorkloadError("workload contains no requests")
    requests = []
    first_use: dict[str, int] = {}
    for i, entry in enumerate(entries):
        if (
            default_delta is not None
            and isinstance(entry, Mapping)
            and entry.get("delta") is None
        ):
            entry = {**entry, "delta": default_delta}
        request = PlanRequest.from_dict(entry, index=i)
        # Duplicate ids are rejected outright: responses are addressed by id,
        # so two distinct payloads sharing one id would silently collapse
        # into whichever answer the consumer reads last.  (Identical
        # *questions* under distinct ids are still deduplicated — by task
        # key, inside the service.)
        first = first_use.setdefault(request.request_id, i)
        if first != i:
            same = requests[first].task_key == request.task_key
            raise WorkloadError(
                f"request #{i}: duplicate request id {request.request_id!r} "
                f"(already used by request #{first}, which asks "
                f"{'the same' if same else 'a different'} question); give "
                "every request a unique id"
            )
        requests.append(request)
    return requests
