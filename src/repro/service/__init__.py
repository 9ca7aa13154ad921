"""repro.service — persistent sweep service over the experiment engine.

PRs 1–4 made one sweep fast (parallel scheduler, two-tier result store,
trace-once/replay-many, warm worker pool); this package makes the engine
*infrastructure*: a long-lived HTTP service whose warm pools and caches
amortize across every submitted job instead of every process.

* ``python -m repro.service serve`` — the server: a JSON API
  (``POST /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/result``,
  ``GET /healthz``, ``GET /metrics``) over a priority job queue with a
  schema-versioned on-disk job store (atomic writes; queued and running
  jobs resume after a restart) and two-level single-flight deduplication
  (completed points come from the shared
  :class:`~repro.experiments.store.ResultStore`, identical in-flight
  points across concurrent jobs share one simulation).
* ``python -m repro.service submit|status|result|watch`` — the client
  CLI over :class:`ServiceClient`.

Execution rides the same :class:`~repro.experiments.scheduler.SweepEngine`
facade the experiment runner uses — the service adds no second execution
engine.  See ``docs/service.md``.
"""

from repro.service.app import ServiceApp
from repro.service.client import DEFAULT_URL, ServiceClient, ServiceError
from repro.service.jobs import (
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    JobStore,
)
from repro.service.server import InProcessService, build_server
from repro.service.spec import ApiError, validate_submission

__all__ = [
    "ApiError",
    "COMPLETED",
    "DEFAULT_URL",
    "FAILED",
    "InProcessService",
    "Job",
    "JobQueue",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "ServiceApp",
    "ServiceClient",
    "ServiceError",
    "build_server",
    "validate_submission",
]
