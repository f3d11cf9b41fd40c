"""A long-lived, shared worker-process pool for engine chunk sweeps.

:mod:`repro.engine.parallel` forks one ``ProcessPoolExecutor`` per
:meth:`~repro.engine.batch.BatchEngine.run` call — correct, but a served
workload pays the pool spin-up *and* a full graph pickle on every
request.  A :class:`WorkerPool` inverts the lifetimes: workers are
forked **once** with the graph pre-loaded (the ``_initialise_worker``
idiom of :mod:`repro.engine.parallel`, minus the per-run plan), live as
long as their owner — one service, one pool, shared by every served
engine run — and each request ships only its small frozen plan state
plus ``(chunk_start, count)`` tasks.

Determinism is untouched: a pooled chunk evaluation calls the very same
pure :meth:`~repro.engine.batch.BatchEngine.evaluate_chunk`, per-chunk
hit counts are integers, and integer addition is associative — pooled,
per-run-forked, and in-process sweeps agree **bit for bit** (the
engine's determinism contract; hammer-tested in ``tests/serve``).

Lifecycle:

* **lazy start** — constructing a :class:`WorkerPool` forks nothing;
  the executor spins up on the first :meth:`evaluate` (or
  :meth:`healthy`) call;
* **health check** — :meth:`healthy` round-trips a ping task through a
  worker with a timeout;
* **crashed-worker respawn** — a ``BrokenProcessPool`` (a worker died
  mid-task) discards the executor, re-forks, and retries the run once;
  the retry is free because chunk tasks are pure;
* **graph-update rejection** — the pool is pinned to its graph's
  fingerprint at construction; dispatching an engine over any other
  graph raises instead of silently sweeping stale workers;
* **clean shutdown** — :meth:`close` is idempotent; a closed pool makes
  :meth:`evaluate` raise :class:`PoolClosedError`, which the engine
  treats as "no pool" and falls back to its other evaluation paths, so
  closing a service never corrupts an in-flight request.

``REPRO_ENGINE_POOL=1`` routes *every* fanning-out engine run in the
process through a module-level pool registry (:func:`shared_pool`),
keyed by graph fingerprint — the switch the CI worker-pool leg flips to
drive the whole test suite through pooled execution.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.graph import UncertainGraph
from repro.engine.cache import graph_fingerprint
from repro.util.validation import check_positive

#: Environment variable enabling the process-wide shared pool registry
#: for engine runs that were not handed an explicit pool.
POOL_ENV_VAR = "REPRO_ENGINE_POOL"

#: Run states a worker keeps deserialised; above this, oldest-run state
#: is dropped (and rebuilt from the task blob if that run resurfaces).
_WORKER_STATE_CAPACITY = 8

#: Pools the module-level registry keeps alive; above this, the least
#: recently used pool is closed and evicted.
_REGISTRY_CAPACITY = 4

#: Process-unique run tokens; workers key their deserialised plan state
#: on these, so interleaved runs on one pool never read each other's plan.
_RUN_TOKENS = itertools.count(1)


class PoolClosedError(RuntimeError):
    """Raised by :meth:`WorkerPool.evaluate` after :meth:`WorkerPool.close`.

    Engines catch this and fall back to their non-pooled paths — a
    closed pool means "no accelerator", never a failed request.
    """


# ----------------------------------------------------------------------
# Worker-side plumbing (runs in the forked processes)
# ----------------------------------------------------------------------

# The graph is pinned once per worker by the initializer; per-run plan
# state arrives with the tasks and is cached by run token, so a run
# deserialises its plan once per worker, not once per chunk.
_WORKER_GRAPH = None
_WORKER_STATES: "OrderedDict" = OrderedDict()


def _initialise_worker(graph) -> None:
    """Pin the pool's graph in this worker; plans arrive per run."""
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph
    _WORKER_STATES.clear()


def _worker_run_state(token: int, blob: bytes):
    state = _WORKER_STATES.get(token)
    if state is None:
        from repro.engine.batch import BatchEngine

        (
            seed, chunk_size, sweep, groups, pending, unique_count,
        ) = pickle.loads(blob)
        engine = BatchEngine(
            _WORKER_GRAPH,
            seed=seed,
            chunk_size=chunk_size,
            sweep=sweep,
            workers=1,  # workers never nest pools
            cache_capacity=1,  # the parent owns the real result cache
        )
        state = (engine, groups, pending, unique_count)
        _WORKER_STATES[token] = state
        while len(_WORKER_STATES) > _WORKER_STATE_CAPACITY:
            _WORKER_STATES.popitem(last=False)
    return state


def _evaluate_pooled(
    token: int, blob: bytes, chunk_start: int, count: int
) -> Tuple[np.ndarray, int]:
    """Worker-side task: evaluate one chunk range for one run's plan."""
    assert _WORKER_GRAPH is not None, "pool worker used before initialisation"
    engine, groups, pending, unique_count = _worker_run_state(token, blob)
    return engine.evaluate_chunk(
        chunk_start, count, groups, pending, unique_count
    )


def _ping() -> int:
    """Health-check task: prove a worker is alive (and name it)."""
    return os.getpid()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


class WorkerPool:
    """A reusable process pool pinned to one graph.

    Thread-safe: concurrent served requests may :meth:`evaluate` on the
    same pool (``ProcessPoolExecutor.submit`` is thread-safe; lifecycle
    transitions serialise on an internal lock).
    """

    def __init__(self, graph: UncertainGraph, workers: int) -> None:
        self.graph = graph
        self.workers = check_positive(workers, "workers")
        self.fingerprint = graph_fingerprint(graph)
        self._executor: Optional[ProcessPoolExecutor] = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._runs = 0  # guarded-by: _lock
        self._respawns = 0  # guarded-by: _lock

    # -- lifecycle ------------------------------------------------------

    def _ensure_started(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise PoolClosedError("worker pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_initialise_worker,
                    initargs=(self.graph,),
                )
            return self._executor

    @property
    def started(self) -> bool:
        """Whether worker processes currently exist (lazy start)."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def healthy(self, timeout: float = 30.0) -> bool:
        """Round-trip a ping through a worker (starts the pool if lazy)."""
        try:
            executor = self._ensure_started()
            executor.submit(_ping).result(timeout=timeout)
        except Exception:  # noqa: BLE001 — any failure means "not healthy"
            return False
        return True

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the live worker processes (diagnostics and tests)."""
        executor = self._executor
        processes = getattr(executor, "_processes", None) or {}
        return tuple(processes.keys())

    def _respawn(self, broken: ProcessPoolExecutor) -> None:
        """Discard a broken executor so the next start forks fresh workers."""
        with self._lock:
            if self._executor is broken:
                self._executor = None
                self._respawns += 1
        broken.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the workers down; idempotent, waits for running tasks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation -----------------------------------------------------

    def evaluate(
        self,
        engine,
        tasks: Sequence[Tuple[int, int]],
        groups,
        pending: np.ndarray,
        unique_count: int,
    ) -> Tuple[np.ndarray, int]:
        """Fan ``tasks`` out over the pooled workers for one engine run.

        Returns ``(hits, sweeps)`` summed over all chunks — the same
        int64 totals the serial loop accumulates.  The plan is
        serialised once here and cached worker-side by run token; each
        task then costs one small tuple on the wire (the graph never
        travels — it was shipped at fork).
        """
        if engine.fingerprint != self.fingerprint:
            raise ValueError(
                "engine graph does not match this pool's graph (the pool "
                "was forked for a different fingerprint); build a new "
                "pool after a graph update"
            )
        blob = pickle.dumps(
            (
                engine.seed, engine.chunk_size, engine.sweep,
                groups, pending, unique_count,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            return self._dispatch(
                self._ensure_started(), blob, tasks, unique_count
            )
        except BrokenProcessPool as error:
            self._respawn(error.__self_executor__)
            # One deterministic retry on fresh workers: chunk tasks are
            # pure, so re-evaluating them cannot change any result.
            return self._dispatch(
                self._ensure_started(), blob, tasks, unique_count
            )

    def _dispatch(
        self,
        executor: ProcessPoolExecutor,
        blob: bytes,
        tasks: Sequence[Tuple[int, int]],
        unique_count: int,
    ) -> Tuple[np.ndarray, int]:
        token = next(_RUN_TOKENS)
        try:
            futures = [
                executor.submit(_evaluate_pooled, token, blob, start, count)
                for start, count in tasks
            ]
        except RuntimeError as error:
            if self._closed:  # close() raced the submit loop
                raise PoolClosedError("worker pool is closed") from None
            raise self._tag(error, executor)
        hits = np.zeros(unique_count, dtype=np.int64)
        sweeps = 0
        try:
            for future in futures:
                chunk_hits, chunk_sweeps = future.result()
                hits += chunk_hits
                sweeps += chunk_sweeps
        except BaseException as error:
            # A failure mid-fan-out must not leave the remaining chunks
            # running: cancel whatever has not started, then propagate.
            for future in futures:
                future.cancel()
            if isinstance(error, CancelledError) and self._closed:
                # close(cancel_futures=True) raced an in-flight run: the
                # queued chunks were cancelled under us.  That is the
                # pool going away, not a failed computation — surface it
                # as PoolClosedError so the engine re-evaluates via its
                # per-run fallback instead of erroring the request.
                raise PoolClosedError("worker pool is closed") from None
            raise self._tag(error, executor)
        with self._lock:
            self._runs += 1
        return hits, sweeps

    @staticmethod
    def _tag(error: BaseException, executor: ProcessPoolExecutor):
        # BrokenProcessPool does not say *which* executor broke; remember
        # it so `evaluate` respawns the right one (close() or a racing
        # respawn may have replaced self._executor meanwhile).
        if isinstance(error, BrokenProcessPool):
            error.__self_executor__ = executor
        return error

    def statistics(self) -> Dict[str, object]:
        """Lifecycle counters (surfaced by the service's ``stats()``)."""
        return {
            "workers": self.workers,
            "started": self.started,
            "closed": self._closed,
            "runs": self._runs,
            "respawns": self._respawns,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "started" if self.started else "lazy"
        )
        return f"WorkerPool(workers={self.workers}, {state})"


# ----------------------------------------------------------------------
# The env-driven process-wide registry
# ----------------------------------------------------------------------

_REGISTRY: "OrderedDict[bytes, WorkerPool]" = (  # guarded-by: _REGISTRY_LOCK
    OrderedDict()
)
_REGISTRY_LOCK = threading.Lock()


def pool_enabled() -> bool:
    """Whether ``REPRO_ENGINE_POOL`` asks for shared pools by default."""
    return os.environ.get(POOL_ENV_VAR, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def shared_pool(graph: UncertainGraph, workers: int) -> WorkerPool:
    """The process-wide pool for ``graph``, created (LRU-bounded) on demand.

    Keyed by graph fingerprint: engines over equal graphs share workers;
    a new graph gets a new pool, and the least recently used pool is
    closed once the registry outgrows its small bound.  The pool keeps
    its first-seen worker count — later callers share the same workers
    (worker count is a wall-clock lever, never a results lever).
    """
    key = graph_fingerprint(graph)
    with _REGISTRY_LOCK:
        pool = _REGISTRY.get(key)
        if pool is not None and not pool.closed:
            _REGISTRY.move_to_end(key)
            return pool
        pool = WorkerPool(graph, workers)
        _REGISTRY[key] = pool
        evicted = []
        while len(_REGISTRY) > _REGISTRY_CAPACITY:
            evicted.append(_REGISTRY.popitem(last=False)[1])
    for old in evicted:
        old.close()
    return pool


def close_shared_pools() -> None:
    """Close and forget every registry pool (test isolation, atexit)."""
    with _REGISTRY_LOCK:
        pools = list(_REGISTRY.values())
        _REGISTRY.clear()
    for pool in pools:
        pool.close()


atexit.register(close_shared_pools)


__all__ = [
    "POOL_ENV_VAR",
    "PoolClosedError",
    "WorkerPool",
    "pool_enabled",
    "shared_pool",
    "close_shared_pools",
]
