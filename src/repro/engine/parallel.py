"""Multiprocess chunk evaluation for the batch engine.

The engine's chunk sweep is embarrassingly parallel: world ``i`` is a pure
function of ``(graph, seed, i)`` (the determinism contract of
:mod:`repro.engine.batch`), so any chunk range can be evaluated by any
process from nothing but the engine's constructor arguments.  Each worker
returns integer per-query hit counts; the parent sums them.  Integer
addition is associative and commutative, so the reduction equals the
serial loop's accumulation **bit for bit** — parallelism is purely a
wall-clock lever, never a statistical one.  (Sasaki et al. exploit the
same index-keyed decomposition for network reliability; see PAPERS.md.)

Topology: one ``ProcessPoolExecutor`` per :meth:`BatchEngine.run` call.
Workers are primed once via an initializer that rebuilds a private
``BatchEngine`` from ``(graph, seed, chunk_size, sweep)`` plus the run's
frozen plan state (groups, pending mask); after that each task ships only
a ``(chunk_start, count)`` pair.  Worker engines disable caching — the
parent owns the :class:`~repro.engine.cache.ResultCache` and is the only
writer.

Parallel granularity equals ``chunk_size``: the parent fans out exactly
the chunk ranges the serial loop would sweep, so instrumentation
(``sweeps``, ``worlds_sampled``) also matches the serial run exactly.
Lower ``chunk_size`` to expose more parallelism for small ``K``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import BatchEngine

# Per-worker-process state, installed once by _initialise_worker.  Module
# globals survive across tasks within one pool, so the graph and plan are
# shipped (pickled) once per worker instead of once per chunk.
_WORKER_ENGINE = None
_WORKER_GROUPS = None
_WORKER_PENDING = None
_WORKER_UNIQUE_COUNT = 0


def _initialise_worker(
    graph,
    seed: int,
    chunk_size: int,
    sweep: str,
    groups,
    pending: np.ndarray,
    unique_count: int,
) -> None:
    """Build this worker's private engine and pin the run's plan state."""
    global _WORKER_ENGINE, _WORKER_GROUPS, _WORKER_PENDING
    global _WORKER_UNIQUE_COUNT
    _WORKER_ENGINE = BatchEngine(
        graph,
        seed=seed,
        chunk_size=chunk_size,
        sweep=sweep,
        workers=1,  # workers never nest pools
        # The parent owns the real result cache — including any
        # persistent sidecar; workers never open the SQLite file, so the
        # fan-out adds no write contention.
        cache_capacity=1,
    )
    _WORKER_GROUPS = groups
    _WORKER_PENDING = pending
    _WORKER_UNIQUE_COUNT = unique_count


def _evaluate_range(task: Tuple[int, int]) -> Tuple[np.ndarray, int]:
    """Worker-side task: evaluate one chunk range against the pinned plan."""
    chunk_start, count = task
    assert _WORKER_ENGINE is not None, "worker used before initialisation"
    return _WORKER_ENGINE.evaluate_chunk(
        chunk_start, count, _WORKER_GROUPS, _WORKER_PENDING,
        _WORKER_UNIQUE_COUNT,
    )


def evaluate_chunks_parallel(
    engine: BatchEngine,
    tasks: Sequence[Tuple[int, int]],
    groups,
    pending: np.ndarray,
    unique_count: int,
    workers: int,
) -> Tuple[np.ndarray, int]:
    """Fan ``tasks`` (chunk ranges) out over ``workers`` processes.

    Returns ``(hits, sweeps)`` summed over all chunks — the same totals
    :meth:`BatchEngine.run`'s serial loop accumulates, in the same dtype
    (int64), hence bit-identical estimates downstream.
    """
    hits = np.zeros(unique_count, dtype=np.int64)
    sweeps = 0
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_initialise_worker,
        initargs=(
            engine.graph, engine.seed, engine.chunk_size, engine.sweep,
            groups, pending, unique_count,
        ),
    ) as pool:
        futures = [pool.submit(_evaluate_range, task) for task in tasks]
        try:
            for future in futures:
                chunk_hits, chunk_sweeps = future.result()
                hits += chunk_hits
                sweeps += chunk_sweeps
        except BaseException:
            # A chunk failing mid-fan-out must not strand the rest of the
            # run: without the cancellations, the context exit's
            # ``shutdown(wait=True)`` sat through *every* still-queued
            # chunk before the error could propagate — on a big workload,
            # a pool's worth of doomed work (and its worker processes)
            # leaked past the failure for seconds.  Cancel the queue, let
            # the context manager reap the workers, re-raise the cause.
            for future in futures:
                future.cancel()
            raise
    return hits, sweeps


class ParallelBatchEngine(BatchEngine):
    """:class:`BatchEngine` pre-configured for multiprocess evaluation.

    ``ParallelBatchEngine(graph)`` is exactly ``BatchEngine(graph,
    workers=os.cpu_count())``: callers reaching for "the parallel engine"
    get a sensible default worker count without consulting
    :data:`~repro.engine.batch.WORKERS_ENV_VAR`.  Everything else —
    semantics, caching, determinism — is inherited unchanged.
    """

    def __init__(
        self, graph, *, workers: Optional[int] = None, **kwargs
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        super().__init__(graph, workers=workers, **kwargs)


def default_worker_count() -> int:
    """The worker count :class:`ParallelBatchEngine` defaults to."""
    return os.cpu_count() or 1


__all__ = [
    "ParallelBatchEngine",
    "default_worker_count",
    "evaluate_chunks_parallel",
]
