"""`CoordinatedReliabilityService`: the front door of a shard tier.

A drop-in :class:`~repro.api.service.ReliabilityService` whose
engine-backed batches are evaluated by remote shard workers instead of
the local sweep loop.  Everything else — estimate, warm, update, topk,
bounds, the sequential oracle, non-engine batch methods — runs locally,
unchanged, which is what makes ``repro serve --coordinator`` answer the
exact ``/v1`` surface a plain server does.

Wire compatibility: a coordinator's ``/v1/batch`` document has the same
keys, the same per-query rows, and the same deterministic engine
counters (``worlds_sampled``, ``sweeps``, ``cache_hits``,
``cache_misses``, ``fingerprint``) as a single-process server answering
the identical request — bit for bit.  The only honest divergences are
``engine.mode`` (``"distributed"`` instead of ``"shared_worlds"``),
``engine.workers`` (distinct hosts that contributed), and
``engine.seconds`` (wall clock).  The integration suite pins exactly
this: full-document equality after normalising those three fields.

The coordinator owns the caches: it performs the result-cache lookups
before dispatching (so warm queries never touch the network), merges
the shards' integer hit counts exactly, and writes the resulting
estimates back through the same ``put_many`` path the local engine
uses.  Shards never cache partial counts.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.api.service import ReliabilityService
from repro.api.types import BatchRequest, BatchResponse
from repro.engine.cache import graph_fingerprint
from repro.core.graph import UncertainGraph
from repro.distributed.client import normalize_shard_url, parse_shard_list
from repro.distributed.config import ShardTierConfig
from repro.distributed.coordinator import ShardCoordinator
from repro.engine.batch import BatchEngine, BatchResult
from repro.engine.plan import plan_queries


class CoordinatedReliabilityService(ReliabilityService):
    """A reliability service that fans engine batches out to shards.

    Parameters (beyond :class:`ReliabilityService`'s)
    -------------------------------------------------
    shards:
        The worker membership: a ``"host:port,host:port"`` string (the
        CLI's ``--shards`` value) or a sequence of addresses/URLs.
        Each shard is a plain ``repro serve`` over the *same dataset,
        scale, and seed* — the fingerprint check on every dispatch
        enforces the "same graph" half of that contract at runtime.
    shard_config:
        A :class:`ShardTierConfig`; ``None`` resolves the
        ``REPRO_SHARD_*`` environment knobs.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        shards: Union[str, Sequence[str]],
        shard_config: Optional[ShardTierConfig] = None,
        **options,
    ) -> None:
        super().__init__(graph, **options)
        if isinstance(shards, str):
            urls = parse_shard_list(shards)
        else:
            urls = tuple(normalize_shard_url(spec) for spec in shards)
        self.coordinator = ShardCoordinator(urls, config=shard_config)

    # ------------------------------------------------------------------
    # The coordinator loop
    # ------------------------------------------------------------------

    def estimate_batch(self, request: BatchRequest) -> BatchResponse:
        """Answer a workload; engine-backed methods fan out to shards.

        Non-engine methods and the sequential oracle have no world
        ranges to partition — they run locally through the inherited
        path.  ``request.workers`` is validated as usual but does not
        fan anything out here: parallelism comes from the shard tier,
        and each shard applies its own compute configuration.

        ``method="auto"`` resolves through the coordinator's own router
        (shard workers never see "auto" — dispatches carry world ranges,
        not methods), so the tier routes exactly like a plain server.
        """
        fingerprint = graph_fingerprint(self.graph)
        request, decision = self._resolve_auto_batch(request)
        routing = None if decision is None else decision.to_dict()
        batch_path = self.batch_path_of(request.method)
        if batch_path != "engine" or request.sequential:
            response = super().estimate_batch(request)
            if routing is not None:
                response = dataclasses.replace(response, routing=routing)
            return response
        self._validate_batch(request, batch_path)
        queries = self.resolve_queries(
            request.queries, request.samples, request.max_hops
        )
        seed = self._resolve_seed(request.seed)
        chunk_size = (
            self.chunk_size
            if request.chunk_size is None
            else request.chunk_size
        )
        self._record_queries(queries, seed)
        # workers=1 on purpose: this engine plans, serves the cache, and
        # is the local fallback evaluator — the fan-out happens across
        # shards, not local processes.
        engine = self._engine(seed, chunk_size, 1)
        result = self._run_distributed(engine, queries)
        report = self._engine_report("distributed", result, chunk_size)
        rows = self._rows_from_result(result)
        per_query = result.seconds / max(len(rows), 1)
        for row in rows:
            self.telemetry.record(
                request.method,
                fingerprint=fingerprint,
                samples=row.samples,
                max_hops=row.max_hops,
                seconds=per_query,
                estimate=row.estimate,
            )
        self._count("batch")
        return BatchResponse(
            method=request.method,
            seed=seed,
            engine=report,
            results=rows,
            dataset=self.dataset_key,
            scale=self.scale,
            routing=routing,
        )

    def _run_distributed(
        self, engine: BatchEngine, queries: Iterable
    ) -> BatchResult:
        """:meth:`BatchEngine.run` with the sweep loop moved off-host.

        Identical plan, cache lookups, merge arithmetic, and cache
        writes — only the evaluation of pending worlds is delegated to
        :meth:`ShardCoordinator.evaluate`.  Bit-identical to the local
        run by the determinism contract.
        """
        started = time.perf_counter()
        plan = plan_queries(engine.graph, queries)
        unique_estimates = np.zeros(plan.unique_count, dtype=np.float64)
        pending = np.zeros(plan.unique_count, dtype=bool)
        cache_hits = cache_misses = 0
        for index, query in enumerate(plan.queries):
            cached = engine.cache.get(engine.query_key(query))
            if cached is None:
                cache_misses += 1
                pending[index] = True
            else:
                cache_hits += 1
                unique_estimates[index] = cached
        worlds = sweeps = 0
        contributors = 1
        if pending.any():
            budgets = np.asarray(
                [query.samples for query in plan.queries], dtype=np.int64
            )
            pending_indices = np.nonzero(pending)[0]
            pending_queries = [plan.queries[i] for i in pending_indices]
            k_needed = int(budgets[pending].max())
            pending_hits, sweeps, contributors = self.coordinator.evaluate(
                engine, pending_queries, k_needed
            )
            worlds = k_needed
            unique_estimates[pending] = pending_hits / budgets[pending]
            engine.cache.put_many(
                (
                    engine.query_key(plan.queries[index]),
                    float(unique_estimates[index]),
                )
                for index in pending_indices
            )
        return BatchResult(
            queries=tuple(plan.queries[i] for i in plan.assignment),
            estimates=plan.scatter(unique_estimates),
            seed=engine.seed,
            worlds_sampled=worlds,
            sweeps=sweeps,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            seconds=time.perf_counter() - started,
            workers=contributors,
            from_cache=plan.scatter(~pending),
            fingerprint=engine.fingerprint,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The inherited counters plus the shard-tier health section."""
        payload = super().stats()
        payload["shards"] = self.coordinator.statistics()
        return payload


__all__ = ["CoordinatedReliabilityService"]
