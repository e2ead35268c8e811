"""The analysis service: cache, scheduler, and HTTP serving layers.

Turns the library into a multi-client Explorer service: a
content-addressed :class:`ArtifactStore` memoizes every analysis
product, the :class:`BatchScheduler` routes requests by content key
across N >= 1 process-pool shards (deduped, crash-retried,
deterministic), and the :class:`AnalysisServer` exposes it all over a
stdlib-only asyncio JSON HTTP API so many clients share one warm cache.
One scheduler class and one server class: ``repro serve``, ``repro
batch`` and the scripts differ only in the shard count they pass.
"""

from .artifacts import (SCHEMA_VERSION, ArtifactStore, artifact_key,
                        canonical_json)
from .faults import (DIRECTIVE_KINDS, FAULT_KINDS, FaultPlan,
                     TransientFault, apply_request_fault,
                     in_worker_process, mark_worker_process)
from .jobs import (DONE, FAILED, MAX_OPS_CAP, MAX_SLICE_TARGETS,
                   NON_SEMANTIC_OPTIONS, QUEUED, RUNNING, STATES,
                   SUBMITTED, AnalysisRequest, Job, execute_request,
                   semantic_options, session_snapshot, validate_options)
from .metrics import ServiceMetrics
from .scheduler import (BatchScheduler, QueueFull, request_key,
                        run_sequential, shard_of)
from .server import AnalysisServer, AnalysisService

__all__ = [
    "SCHEMA_VERSION", "ArtifactStore", "artifact_key", "canonical_json",
    "DIRECTIVE_KINDS", "FAULT_KINDS", "FaultPlan", "TransientFault",
    "apply_request_fault", "in_worker_process", "mark_worker_process",
    "SUBMITTED", "QUEUED", "RUNNING", "DONE", "FAILED", "STATES",
    "MAX_OPS_CAP", "MAX_SLICE_TARGETS", "NON_SEMANTIC_OPTIONS",
    "AnalysisRequest", "Job", "execute_request", "semantic_options",
    "session_snapshot", "validate_options",
    "ServiceMetrics",
    "BatchScheduler", "QueueFull", "request_key", "run_sequential",
    "shard_of",
    "AnalysisServer", "AnalysisService",
]
