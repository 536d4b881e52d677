"""Multi-query plan service and serving stack over the batched cost engine.

Two entry layers share one evaluation core:

* **library** — ``PlanService.plan_many`` answers a batch of
  optimisation/what-if requests through the mixed-series engine and the
  process-wide, thread-safe, LRU-evicting ``SharedEstimateCache``;
  requests with identical task keys share one solve (``dedup_tasks``).
* **server** — ``PlanServer`` speaks a versioned JSON-lines protocol
  (``protocol``) over TCP/unix sockets; a ``MicroBatchScheduler`` coalesces
  requests across clients into single ``plan_many`` calls with weighted
  fair queuing, token-bucket admission control and per-request deadlines.
  ``connect_plan_client`` is the matching asyncio client.  A pre-fork
  ``WorkerPool`` shares one ``AdmissionStore`` so rate limits hold
  fleet-wide.
"""

from ..costmodel.batch import (
    SharedEstimateCache,
    reset_shared_estimate_cache,
    shared_estimate_cache,
)
from .admission import AdmissionStore
from .api import (
    OPTIMIZE_SCHEMES,
    WHAT_IF,
    PlanRequest,
    PlanResponse,
    WorkloadError,
    load_workload,
)
from .protocol import (
    ERROR_ADMISSION,
    ERROR_CODES,
    ERROR_DEADLINE,
    ERROR_INTERNAL,
    ERROR_INVALID,
    ERROR_SHUTDOWN,
    ERROR_TAXONOMY,
    ERROR_UNSUPPORTED_VERSION,
    ERROR_WORKER_LOST,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Envelope,
    ErrorReply,
    PlanResult,
    PlanSubmit,
    ProtocolError,
    is_retryable,
)
from .pool import PoolConfig, WorkerPool, build_worker_server, run_worker
from .scheduler import MicroBatchScheduler, SchedulerError, TokenBucket
from .server import (
    PlanClient,
    PlanServer,
    PlanServerError,
    RetryingPlanClient,
    RetryPolicy,
    clear_stale_unix_socket,
    connect_plan_client,
    connect_retrying_client,
)
from .service import PlanService, dedup_tasks

__all__ = [
    "AdmissionStore",
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
    "MicroBatchScheduler",
    "OPTIMIZE_SCHEMES",
    "PROTOCOL_VERSION",
    "PlanClient",
    "PlanRequest",
    "PlanResponse",
    "PlanResult",
    "PlanServer",
    "PlanServerError",
    "PlanService",
    "PlanSubmit",
    "PoolConfig",
    "ProtocolError",
    "RetryPolicy",
    "RetryingPlanClient",
    "SUPPORTED_VERSIONS",
    "SchedulerError",
    "SharedEstimateCache",
    "TokenBucket",
    "WHAT_IF",
    "WorkerPool",
    "WorkloadError",
    "build_worker_server",
    "clear_stale_unix_socket",
    "connect_plan_client",
    "connect_retrying_client",
    "dedup_tasks",
    "is_retryable",
    "load_workload",
    "reset_shared_estimate_cache",
    "run_worker",
    "shared_estimate_cache",
]
