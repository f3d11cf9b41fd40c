"""Typed request/response objects of the public API.

These dataclasses are the *wire format* of the facade: every transport —
the ``repro`` CLI, the :mod:`repro.serve` HTTP server, a future gRPC or
async layer — builds a request object, hands it to
:class:`~repro.api.service.ReliabilityService`, and serialises the
response with ``to_dict()``.  The JSON produced by ``to_dict`` is the
compatibility contract: ``repro batch`` has printed this exact shape
since the batch engine landed, and the HTTP endpoints return the same
documents, so a client cannot tell (nor needs to know) which transport
answered it.

Parsing is strict: ``from_dict`` rejects unknown keys and wrong types
with :class:`~repro.api.errors.InvalidQueryError`, so a malformed HTTP
body becomes a structured 400 instead of a deep ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.errors import InvalidQueryError

#: A fully resolved workload entry: ``(source, target, samples, max_hops)``.
ResolvedQuery = Tuple[int, int, int, Optional[int]]


def _require_int(value: Any, name: str) -> int:
    """Coerce a JSON scalar to int, rejecting floats/strings/None."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidQueryError(
            f"{name} must be an integer, got {value!r}"
        )
    return int(value)


def _optional_int(value: Any, name: str) -> Optional[int]:
    return None if value is None else _require_int(value, name)


def _require_seed(value: Any) -> int:
    """Coerce a world-stream seed: numpy seed sequences need ``seed >= 0``."""
    seed = _require_int(value, "seed")
    if seed < 0:
        raise InvalidQueryError(
            f"seed must be a non-negative integer, got {seed}"
        )
    return seed


def _optional_seed(value: Any) -> Optional[int]:
    return None if value is None else _require_seed(value)


def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise InvalidQueryError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_unknown_keys(
    payload: Mapping[str, Any], known: Sequence[str], what: str
) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise InvalidQueryError(
            f"{what} does not accept key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(known)}"
        )


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """One s-t query as submitted by a client.

    ``samples``/``max_hops`` left as ``None`` inherit the request-level
    defaults when the service resolves the workload (mirroring how the
    query-file format lets entries omit their budget).
    """

    source: int
    target: int
    samples: Optional[int] = None
    max_hops: Optional[int] = None

    @classmethod
    def coerce(cls, entry: Any, position: int) -> "QuerySpec":
        """Coerce one workload entry: a [s, t(, K(, d))] list or an object.

        This is the single shared reader behind the ``--queries`` file
        format and the HTTP ``queries`` array, so both transports accept
        (and reject) exactly the same entries, with the same
        ``entry {position}`` context in errors.
        """
        context = f"entry {position}"
        if isinstance(entry, Mapping):
            _reject_unknown_keys(
                entry, ("source", "target", "samples", "max_hops"), context
            )
            if "source" not in entry or "target" not in entry:
                raise InvalidQueryError(
                    f"{context}: query objects need 'source' and 'target' "
                    f"keys, got {dict(entry)!r}"
                )
            return cls(
                source=_require_int(entry["source"], f"{context}: source"),
                target=_require_int(entry["target"], f"{context}: target"),
                samples=_optional_int(
                    entry.get("samples"), f"{context}: samples"
                ),
                max_hops=_optional_int(
                    entry.get("max_hops"), f"{context}: max_hops"
                ),
            )
        if isinstance(entry, (list, tuple)):
            parts = list(entry)
            if len(parts) not in (2, 3, 4):
                raise InvalidQueryError(
                    f"{context}: expected [source, target(, samples"
                    f"(, max_hops))] or a query object, got {entry!r}"
                )
            try:
                head = [int(part) for part in parts[:3]]
                # A trailing null mirrors the object form's
                # "max_hops": null — an explicit "no bound".
                tail = parts[3] if len(parts) == 4 else None
                max_hops = None if tail is None else int(tail)
            except (TypeError, ValueError):
                raise InvalidQueryError(
                    f"{context}: non-numeric value in {entry!r}"
                ) from None
            return cls(
                source=head[0],
                target=head[1],
                samples=head[2] if len(head) >= 3 else None,
                max_hops=max_hops,
            )
        raise InvalidQueryError(
            f"{context}: expected [source, target(, samples(, max_hops))] "
            f"or a query object, got {entry!r}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "target": self.target,
            "samples": self.samples,
            "max_hops": self.max_hops,
        }


def coerce_query_specs(entries: Any, what: str = "queries") -> Tuple[QuerySpec, ...]:
    """Coerce a JSON array (or a single object) into query specs."""
    if isinstance(entries, Mapping):
        entries = [entries]  # a single unwrapped query object
    if not isinstance(entries, (list, tuple)):
        raise InvalidQueryError(
            f"{what} must be a list of [source, target(, samples"
            f"(, max_hops))] entries or query objects"
        )
    return tuple(
        QuerySpec.coerce(entry, position)
        for position, entry in enumerate(entries)
    )


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateRequest:
    """One s-t reliability estimate through one named estimator."""

    source: int
    target: int
    samples: int = 1_000
    method: str = "mc"
    seed: Optional[int] = None  # None = the service's seed

    _KEYS = ("source", "target", "samples", "method", "seed")

    @classmethod
    def from_dict(cls, payload: Any) -> "EstimateRequest":
        payload = _require_mapping(payload, "an estimate request")
        _reject_unknown_keys(payload, cls._KEYS, "an estimate request")
        if "source" not in payload or "target" not in payload:
            raise InvalidQueryError(
                "an estimate request needs 'source' and 'target'"
            )
        method = payload.get("method", "mc")
        if not isinstance(method, str):
            raise InvalidQueryError(
                f"method must be a string, got {method!r}"
            )
        return cls(
            source=_require_int(payload["source"], "source"),
            target=_require_int(payload["target"], "target"),
            samples=_require_int(payload.get("samples", 1_000), "samples"),
            method=method,
            seed=_optional_seed(payload.get("seed")),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "target": self.target,
            "samples": self.samples,
            "method": self.method,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BatchRequest:
    """A workload of s-t queries, answered in one engine pass.

    ``samples``/``max_hops`` are the workload-level defaults applied to
    entries that do not carry their own; ``seed=None`` inherits the
    service's seed so a request replayed against the same service is
    exactly cacheable.
    """

    queries: Tuple[QuerySpec, ...]
    method: str = "mc"
    samples: int = 1_000
    seed: Optional[int] = None
    max_hops: Optional[int] = None
    chunk_size: Optional[int] = None
    workers: Optional[int] = None
    sequential: bool = False

    _KEYS = (
        "queries", "method", "samples", "seed", "max_hops",
        "chunk_size", "workers", "sequential",
    )

    @classmethod
    def from_dict(cls, payload: Any) -> "BatchRequest":
        payload = _require_mapping(payload, "a batch request")
        _reject_unknown_keys(payload, cls._KEYS, "a batch request")
        if "queries" not in payload:
            raise InvalidQueryError("a batch request needs 'queries'")
        method = payload.get("method", "mc")
        if not isinstance(method, str):
            raise InvalidQueryError(
                f"method must be a string, got {method!r}"
            )
        sequential = payload.get("sequential", False)
        if not isinstance(sequential, bool):
            raise InvalidQueryError(
                f"sequential must be a boolean, got {sequential!r}"
            )
        return cls(
            queries=coerce_query_specs(payload["queries"]),
            method=method,
            samples=_require_int(payload.get("samples", 1_000), "samples"),
            seed=_optional_seed(payload.get("seed")),
            max_hops=_optional_int(payload.get("max_hops"), "max_hops"),
            chunk_size=_optional_int(payload.get("chunk_size"), "chunk_size"),
            workers=_optional_int(payload.get("workers"), "workers"),
            sequential=sequential,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "queries": [query.to_dict() for query in self.queries],
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "max_hops": self.max_hops,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "sequential": self.sequential,
        }


@dataclass(frozen=True)
class WarmRequest:
    """Speculatively evaluate popular (s, t) pairs into the result cache.

    Warming is method-agnostic on purpose: the engine's cache key is
    ``(graph fingerprint, s, t, K, seed, max_hops)`` — no estimator in
    it — so one warm pass serves every engine-backed method afterwards.
    """

    queries: Tuple[QuerySpec, ...]
    samples: int = 1_000
    seed: Optional[int] = None
    max_hops: Optional[int] = None
    chunk_size: Optional[int] = None
    workers: Optional[int] = None

    _KEYS = (
        "queries", "samples", "seed", "max_hops", "chunk_size", "workers",
    )

    @classmethod
    def from_dict(cls, payload: Any) -> "WarmRequest":
        payload = _require_mapping(payload, "a warm request")
        _reject_unknown_keys(payload, cls._KEYS, "a warm request")
        if "queries" not in payload:
            raise InvalidQueryError("a warm request needs 'queries'")
        return cls(
            queries=coerce_query_specs(payload["queries"]),
            samples=_require_int(payload.get("samples", 1_000), "samples"),
            seed=_optional_seed(payload.get("seed")),
            max_hops=_optional_int(payload.get("max_hops"), "max_hops"),
            chunk_size=_optional_int(payload.get("chunk_size"), "chunk_size"),
            workers=_optional_int(payload.get("workers"), "workers"),
        )


@dataclass(frozen=True)
class TopKRequest:
    """Top-k most reliable targets from one source (paper §2.3 origin)."""

    source: int
    k: int = 10
    samples: int = 500
    method: str = "bfs_sharing"
    seed: Optional[int] = None

    _KEYS = ("source", "k", "samples", "method", "seed")

    @classmethod
    def from_dict(cls, payload: Any) -> "TopKRequest":
        payload = _require_mapping(payload, "a topk request")
        _reject_unknown_keys(payload, cls._KEYS, "a topk request")
        if "source" not in payload:
            raise InvalidQueryError("a topk request needs 'source'")
        method = payload.get("method", "bfs_sharing")
        if not isinstance(method, str):
            raise InvalidQueryError(
                f"method must be a string, got {method!r}"
            )
        return cls(
            source=_require_int(payload["source"], "source"),
            k=_require_int(payload.get("k", 10), "k"),
            samples=_require_int(payload.get("samples", 500), "samples"),
            method=method,
            seed=_optional_seed(payload.get("seed")),
        )


@dataclass(frozen=True)
class BoundsRequest:
    """Polynomial-time lower/upper reliability bracket for one pair."""

    source: int
    target: int

    @classmethod
    def from_dict(cls, payload: Any) -> "BoundsRequest":
        payload = _require_mapping(payload, "a bounds request")
        _reject_unknown_keys(payload, ("source", "target"), "a bounds request")
        if "source" not in payload or "target" not in payload:
            raise InvalidQueryError(
                "a bounds request needs 'source' and 'target'"
            )
        return cls(
            source=_require_int(payload["source"], "source"),
            target=_require_int(payload["target"], "target"),
        )


@dataclass(frozen=True)
class UpdateRequest:
    """A live mutation of the served graph (probabilities and topology).

    ``set_edges`` entries are ``[source, target, probability]`` exact
    assignments — setting an existing edge rewrites its probability,
    setting a new pair adds the edge.  ``remove_edges`` entries are
    ``[source, target]`` pairs that must currently exist.  At least one
    operation is required; duplicate or conflicting operations on the
    same pair are rejected so an update is order-independent.
    """

    set_edges: Tuple[Tuple[int, int, float], ...] = ()
    remove_edges: Tuple[Tuple[int, int], ...] = ()

    _KEYS = ("set_edges", "remove_edges")

    @classmethod
    def from_dict(cls, payload: Any) -> "UpdateRequest":
        payload = _require_mapping(payload, "an update request")
        _reject_unknown_keys(payload, cls._KEYS, "an update request")
        set_edges = []
        entries = payload.get("set_edges", [])
        if not isinstance(entries, (list, tuple)):
            raise InvalidQueryError(
                "set_edges must be a list of [source, target, probability] "
                f"entries, got {entries!r}"
            )
        for position, entry in enumerate(entries):
            context = f"set_edges entry {position}"
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise InvalidQueryError(
                    f"{context}: expected [source, target, probability], "
                    f"got {entry!r}"
                )
            source = _require_int(entry[0], f"{context}: source")
            target = _require_int(entry[1], f"{context}: target")
            probability = entry[2]
            if isinstance(probability, bool) or not isinstance(
                probability, (int, float)
            ):
                raise InvalidQueryError(
                    f"{context}: probability must be a number, "
                    f"got {probability!r}"
                )
            set_edges.append((source, target, float(probability)))
        remove_edges = []
        entries = payload.get("remove_edges", [])
        if not isinstance(entries, (list, tuple)):
            raise InvalidQueryError(
                "remove_edges must be a list of [source, target] entries, "
                f"got {entries!r}"
            )
        for position, entry in enumerate(entries):
            context = f"remove_edges entry {position}"
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InvalidQueryError(
                    f"{context}: expected [source, target], got {entry!r}"
                )
            remove_edges.append(
                (
                    _require_int(entry[0], f"{context}: source"),
                    _require_int(entry[1], f"{context}: target"),
                )
            )
        if not set_edges and not remove_edges:
            raise InvalidQueryError(
                "an update request needs at least one set_edges or "
                "remove_edges entry"
            )
        return cls(
            set_edges=tuple(set_edges), remove_edges=tuple(remove_edges)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "set_edges": [list(entry) for entry in self.set_edges],
            "remove_edges": [list(entry) for entry in self.remove_edges],
        }


@dataclass(frozen=True)
class ShardRunRequest:
    """One world-range evaluation dispatched to a shard worker.

    The shard protocol's request half (``POST /v1/shard/run``): evaluate
    worlds ``[start, stop)`` of the given workload and return integer
    hit counts.  ``seed`` and ``fingerprint`` are **required** — the
    coordinator pins both so every shard draws from the same world
    stream over the same graph version; a worker serving a different
    fingerprint rejects with a structured 409
    (:class:`~repro.api.errors.FingerprintMismatchError`).

    ``chunk_size`` should match the coordinator's partitioning grain so
    chunk boundaries (and hence the merged ``sweeps`` counter) line up
    with a single-process run; hit counts are bit-identical regardless.
    """

    queries: Tuple[QuerySpec, ...]
    start: int
    stop: int
    seed: int
    fingerprint: str
    samples: int = 1_000
    max_hops: Optional[int] = None
    chunk_size: Optional[int] = None

    _KEYS = (
        "queries", "start", "stop", "seed", "fingerprint", "samples",
        "max_hops", "chunk_size",
    )

    @classmethod
    def from_dict(cls, payload: Any) -> "ShardRunRequest":
        payload = _require_mapping(payload, "a shard run request")
        _reject_unknown_keys(payload, cls._KEYS, "a shard run request")
        for key in ("queries", "start", "stop", "seed", "fingerprint"):
            if key not in payload:
                raise InvalidQueryError(
                    f"a shard run request needs {key!r}"
                )
        fingerprint = payload["fingerprint"]
        if not isinstance(fingerprint, str) or not fingerprint:
            raise InvalidQueryError(
                f"fingerprint must be a non-empty string, "
                f"got {fingerprint!r}"
            )
        return cls(
            queries=coerce_query_specs(payload["queries"]),
            start=_require_int(payload["start"], "start"),
            stop=_require_int(payload["stop"], "stop"),
            seed=_require_seed(payload["seed"]),
            fingerprint=fingerprint,
            samples=_require_int(payload.get("samples", 1_000), "samples"),
            max_hops=_optional_int(payload.get("max_hops"), "max_hops"),
            chunk_size=_optional_int(payload.get("chunk_size"), "chunk_size"),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "queries": [query.to_dict() for query in self.queries],
            "start": self.start,
            "stop": self.stop,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "samples": self.samples,
            "max_hops": self.max_hops,
            "chunk_size": self.chunk_size,
        }


@dataclass(frozen=True)
class RecommendRequest:
    """Inputs to an estimator recommendation.

    The three booleans are the paper's Fig. 18 decision-tree questions.
    ``samples`` and ``max_hops`` describe the *query shape* the caller
    intends to serve: a service instance uses them to consult its
    adaptive router's telemetry bucket (and to constrain the static tree
    to hop-capable methods); the graph-free static walk uses ``max_hops``
    only.
    """

    memory_limited: bool = False
    lowest_variance: bool = False
    latency_tolerant: bool = False
    samples: int = 1_000
    max_hops: Optional[int] = None

    _BOOL_KEYS = ("memory_limited", "lowest_variance", "latency_tolerant")
    _KEYS = _BOOL_KEYS + ("samples", "max_hops")

    @classmethod
    def from_dict(cls, payload: Any) -> "RecommendRequest":
        payload = _require_mapping(payload, "a recommend request")
        _reject_unknown_keys(payload, cls._KEYS, "a recommend request")
        values: Dict[str, Any] = {}
        for key in cls._BOOL_KEYS:
            value = payload.get(key, False)
            if not isinstance(value, bool):
                raise InvalidQueryError(
                    f"{key} must be a boolean, got {value!r}"
                )
            values[key] = value
        return cls(
            samples=_require_int(payload.get("samples", 1_000), "samples"),
            max_hops=_optional_int(payload.get("max_hops"), "max_hops"),
            **values,
        )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryResult:
    """Per-query stats of one answered workload entry.

    ``cached`` is the per-query cache provenance: ``True`` when the
    estimate was replayed from the result cache (memory or sidecar)
    without sampling, ``False`` when it was evaluated in this pass, and
    ``None`` on paths with no exact cache key (the per-query loop).
    """

    source: int
    target: int
    samples: int
    max_hops: Optional[int]
    estimate: float
    cached: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "source": self.source,
            "target": self.target,
            "samples": self.samples,
            "max_hops": self.max_hops,
            "estimate": self.estimate,
        }
        if self.cached is not None:
            row["cached"] = self.cached
        return row


@dataclass(frozen=True)
class EngineReport:
    """How a workload was served: dispatch mode plus engine counters.

    ``mode`` is always present; the counters appear when the shared-world
    engine (or an estimator fast path exposing its
    :class:`~repro.engine.batch.BatchResult`) answered the workload, and
    ``cache`` carries the result-cache statistics — including the
    ``persistent`` flag and ``disk_hits``, the cache-provenance summary —
    when the service owns a persistent sidecar.
    """

    mode: str
    workers: Optional[int] = None
    worlds_sampled: Optional[int] = None
    sweeps: Optional[int] = None
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    seconds: Optional[float] = None
    chunk_size: Optional[int] = None
    cache: Optional[Dict[str, int]] = None
    fingerprint: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        report: Dict[str, Any] = {"mode": self.mode}
        for key in (
            "workers", "worlds_sampled", "sweeps", "cache_hits",
            "cache_misses", "seconds", "chunk_size", "cache",
            "fingerprint",
        ):
            value = getattr(self, key)
            if value is not None:
                report[key] = value
        return report


@dataclass(frozen=True)
class EstimateResponse:
    """One answered estimate, with its full provenance.

    ``routing`` appears only on ``method="auto"`` requests: the router's
    decision record (picked method, reason, scores, evidence), with
    ``method`` itself reporting the *concrete* estimator that answered —
    the document a client replays against a named-method request to
    verify bit-identity.
    """

    source: int
    target: int
    samples: int
    method: str
    method_display: str
    seed: int
    estimate: float
    dataset: Optional[str] = None
    scale: Optional[str] = None
    routing: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "dataset": self.dataset,
            "scale": self.scale,
            "method": self.method,
            "method_display": self.method_display,
            "seed": self.seed,
            "source": self.source,
            "target": self.target,
            "samples": self.samples,
            "estimate": self.estimate,
        }
        if self.routing is not None:
            payload["routing"] = self.routing
        return payload


@dataclass(frozen=True)
class BatchResponse:
    """An answered workload: per-query stats plus the engine report.

    ``to_dict()`` keeps the document shape ``repro batch`` has always
    printed (dataset, scale, method, seed, query_count, engine,
    results) with one *additive* change: engine-served rows now carry a
    ``cached`` provenance flag.  Scripts that parsed the CLI keep
    working against the HTTP endpoint unchanged — existing keys mean
    exactly what they did.
    """

    method: str
    seed: int
    engine: EngineReport
    results: Tuple[QueryResult, ...]
    dataset: Optional[str] = None
    scale: Optional[str] = None
    #: The router's decision record; present only on ``method="auto"``
    #: requests (``method`` then reports the concrete routed estimator).
    routing: Optional[Dict[str, Any]] = None

    @property
    def estimates(self) -> List[float]:
        return [result.estimate for result in self.results]

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "dataset": self.dataset,
            "scale": self.scale,
            "method": self.method,
            "seed": self.seed,
            "query_count": len(self.results),
            "engine": self.engine.to_dict(),
            "results": [result.to_dict() for result in self.results],
        }
        if self.routing is not None:
            payload["routing"] = self.routing
        return payload


@dataclass(frozen=True)
class WarmResponse:
    """Outcome of one cache-warming pass.

    ``already_warm`` counts unique queries served from the cache without
    sampling; ``newly_written`` counts the ones evaluated (and written)
    by this pass.  Their sum is ``unique_queries`` — duplicates in the
    submitted workload collapse before warming.
    """

    query_count: int
    unique_queries: int
    already_warm: int
    newly_written: int
    worlds_sampled: int
    seconds: float
    seed: int
    persistent: bool
    cache: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "query_count": self.query_count,
            "unique_queries": self.unique_queries,
            "already_warm": self.already_warm,
            "newly_written": self.newly_written,
            "worlds_sampled": self.worlds_sampled,
            "seconds": self.seconds,
            "seed": self.seed,
            "persistent": self.persistent,
        }
        if self.cache is not None:
            payload["cache"] = self.cache
        return payload


@dataclass(frozen=True)
class UpdateResponse:
    """Outcome of one live graph update.

    ``previous_fingerprint`` → ``fingerprint`` is the cache-visible
    version transition: every engine cache key embeds the fingerprint,
    so keys minted against the predecessor stay valid *for that
    version* while the successor starts cold.  ``estimators`` maps each
    already-built estimator to how its index survived the update
    (``repointed`` / ``rebuilt`` / ``dropped`` / ``incremental``), and
    ``pool`` records whether a fingerprint-pinned worker pool had to be
    respawned.
    """

    previous_fingerprint: str
    fingerprint: str
    version: int
    node_count: int
    edge_count: int
    edges_set: int
    edges_added: int
    edges_removed: int
    structural: bool
    estimators: Dict[str, str]
    pool: str
    seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "previous_fingerprint": self.previous_fingerprint,
            "fingerprint": self.fingerprint,
            "version": self.version,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "edges_set": self.edges_set,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "structural": self.structural,
            "estimators": dict(self.estimators),
            "pool": self.pool,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class ShardRunResponse:
    """A shard's answer to one world-range evaluation.

    ``hits[i]`` is the integer number of worlds in ``[start, stop)``
    (clipped by the query's own budget) in which query ``i`` of the
    submitted workload succeeded.  ``fingerprint`` and ``seed`` echo the
    provenance the counts were drawn under, so a coordinator can verify
    a reply belongs to the stream it dispatched before merging it.

    Unlike the other responses this one is parsed back (by the
    coordinator's shard client), so it carries a strict ``from_dict``
    mirroring the request types: a malformed reply from a confused host
    becomes a structured dispatch failure, never a deep ``TypeError``
    inside the merge.
    """

    hits: Tuple[int, ...]
    start: int
    stop: int
    worlds_evaluated: int
    sweeps: int
    seed: int
    fingerprint: str
    seconds: float
    query_count: int

    _KEYS = (
        "hits", "start", "stop", "worlds_evaluated", "sweeps", "seed",
        "fingerprint", "seconds", "query_count",
    )

    @classmethod
    def from_dict(cls, payload: Any) -> "ShardRunResponse":
        payload = _require_mapping(payload, "a shard run response")
        _reject_unknown_keys(payload, cls._KEYS, "a shard run response")
        for key in cls._KEYS:
            if key not in payload:
                raise InvalidQueryError(
                    f"a shard run response needs {key!r}"
                )
        hits = payload["hits"]
        if not isinstance(hits, (list, tuple)):
            raise InvalidQueryError(
                f"hits must be a list of integers, got {hits!r}"
            )
        fingerprint = payload["fingerprint"]
        if not isinstance(fingerprint, str) or not fingerprint:
            raise InvalidQueryError(
                f"fingerprint must be a non-empty string, "
                f"got {fingerprint!r}"
            )
        seconds = payload["seconds"]
        if isinstance(seconds, bool) or not isinstance(
            seconds, (int, float)
        ):
            raise InvalidQueryError(
                f"seconds must be a number, got {seconds!r}"
            )
        return cls(
            hits=tuple(
                _require_int(value, f"hits[{position}]")
                for position, value in enumerate(hits)
            ),
            start=_require_int(payload["start"], "start"),
            stop=_require_int(payload["stop"], "stop"),
            worlds_evaluated=_require_int(
                payload["worlds_evaluated"], "worlds_evaluated"
            ),
            sweeps=_require_int(payload["sweeps"], "sweeps"),
            seed=_require_int(payload["seed"], "seed"),
            fingerprint=fingerprint,
            seconds=float(seconds),
            query_count=_require_int(payload["query_count"], "query_count"),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": list(self.hits),
            "start": self.start,
            "stop": self.stop,
            "worlds_evaluated": self.worlds_evaluated,
            "sweeps": self.sweeps,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
            "query_count": self.query_count,
        }


@dataclass(frozen=True)
class TopKResponse:
    """Ranked (node, reliability) rows for one top-k query."""

    source: int
    k: int
    samples: int
    method: str
    seed: int
    ranking: Tuple[Tuple[int, float], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "k": self.k,
            "samples": self.samples,
            "method": self.method,
            "seed": self.seed,
            "ranking": [
                {"rank": rank, "node": node, "reliability": reliability}
                for rank, (node, reliability) in enumerate(
                    self.ranking, start=1
                )
            ],
        }


@dataclass(frozen=True)
class BoundsResponse:
    """Polynomial-time reliability bracket for one (source, target)."""

    source: int
    target: int
    lower: float
    upper: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "target": self.target,
            "lower": self.lower,
            "upper": self.upper,
        }


@dataclass(frozen=True)
class RecommendResponse:
    """An estimator recommendation, static or routed.

    The original three fields are the Fig. 18 decision-tree walk and
    keep their exact shape.  A service instance additionally reports how
    its adaptive router would route the described query shape:
    ``reason`` (``measured`` / ``exploration`` / ``cold_start``),
    ``decision`` (the full routing record with scores and per-bucket
    evidence), and ``telemetry`` (the live graph's aggregated
    observations).  All three are omitted on the graph-free static walk.
    """

    path: Tuple[str, ...]
    estimators: Tuple[str, ...]
    display_names: Tuple[str, ...] = field(default=())
    reason: Optional[str] = None
    decision: Optional[Dict[str, Any]] = None
    telemetry: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "path": list(self.path),
            "estimators": list(self.estimators),
            "display_names": list(self.display_names),
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.decision is not None:
            payload["decision"] = self.decision
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload


__all__ = [
    "ResolvedQuery",
    "QuerySpec",
    "coerce_query_specs",
    "EstimateRequest",
    "BatchRequest",
    "WarmRequest",
    "TopKRequest",
    "BoundsRequest",
    "UpdateRequest",
    "ShardRunRequest",
    "RecommendRequest",
    "QueryResult",
    "EngineReport",
    "EstimateResponse",
    "BatchResponse",
    "WarmResponse",
    "UpdateResponse",
    "ShardRunResponse",
    "TopKResponse",
    "BoundsResponse",
    "RecommendResponse",
]
