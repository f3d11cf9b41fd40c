"""Batched multi-query reliability engine (paper §2.2, §3.7, §2.9).

Answers workloads of ``(source, target, K[, max_hops])`` queries by
sampling each possible world once and sweeping it for every pending
query, instead of re-sampling worlds per query.  Chunk ranges optionally
fan out over a process pool (``workers=N`` /
:class:`~repro.engine.parallel.ParallelBatchEngine`) with bit-identical
results.  See ``docs/architecture.md`` for the design and
:mod:`repro.engine.batch` for the determinism contract.
"""

from repro.engine.batch import (
    DEFAULT_CHUNK_SIZE,
    WORKERS_ENV_VAR,
    BatchEngine,
    BatchResult,
    estimate_workload,
    resolve_workers,
)
from repro.engine.cache import (
    PersistentResultCache,
    ResultCache,
    graph_fingerprint,
    open_result_cache,
    result_key,
)
from repro.engine.parallel import ParallelBatchEngine, default_worker_count
from repro.engine.plan import BatchQuery, QueryPlan, plan_queries
from repro.engine.pool import (
    POOL_ENV_VAR,
    PoolClosedError,
    WorkerPool,
    pool_enabled,
    shared_pool,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "POOL_ENV_VAR",
    "WORKERS_ENV_VAR",
    "BatchEngine",
    "BatchResult",
    "PoolClosedError",
    "WorkerPool",
    "estimate_workload",
    "pool_enabled",
    "resolve_workers",
    "shared_pool",
    "PersistentResultCache",
    "ResultCache",
    "graph_fingerprint",
    "open_result_cache",
    "result_key",
    "ParallelBatchEngine",
    "default_worker_count",
    "BatchQuery",
    "QueryPlan",
    "plan_queries",
]
