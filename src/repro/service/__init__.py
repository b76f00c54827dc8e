"""Routing-as-a-service: async job API over the staged pipeline.

The ``repro.pipeline`` refactor made every stage output content-addressed
— this package turns that into a multi-tenant service: submit a design
(``POST /jobs``), poll or stream its progress, fetch artifacts, scrape
metrics. Identical designs across users coalesce on one computation in
the shared :class:`~repro.pipeline.ArtifactStore`, so heavy duplicate
traffic mostly costs cache lookups.

    from repro.service import RoutingService, ServiceClient

    service = RoutingService(port=0, workers=2).start_background()
    client = ServiceClient(service.url)
    job = client.submit({"circuit": "Test1", "scale": 0.1})
    done = client.wait(job["job_id"])
    report = client.artifact(job["job_id"], "report")
    service.stop()

CLI front-end: ``repro serve`` (foreground server). perfbench's
``service-mix`` workload measures its latency and throughput. See
``docs/SERVICE.md``.
"""

from .client import ServiceClient
from .jobs import (
    JOB_STATUSES,
    TERMINAL_STATUSES,
    JobRegistry,
    JobState,
    ServiceError,
)
from .quotas import TenantQuotas
from .server import RoutingService
from .worker import InlineWorkerPool, WorkerPool, execute_job

__all__ = [
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "InlineWorkerPool",
    "JobRegistry",
    "JobState",
    "RoutingService",
    "ServiceClient",
    "ServiceError",
    "TenantQuotas",
    "WorkerPool",
    "execute_job",
]
