"""Spans around the program's public functions, and the per-layer report.

The launcher calls :meth:`Tracer.install` before ``repro serve`` starts:
each function listed in :data:`TRACED` is replaced, on its module or
class, by a wrapper that records one span per call.  The handler
boundary (``do_GET``/``do_POST``) mints a request id; every span below
it on that thread, or on a thread it hands work to through a
``ThreadPoolExecutor``, carries the id.  Spans stay in memory and are
written out when the server shuts down.

A span is ``(span_id, parent_id, request_id, layer, name, start, end,
n, m)``: ``start``/``end`` are ``time.monotonic()`` readings (one clock
for every process on the host), ``n``/``m`` are per-function counts
(worlds in a block, tasks in a fan-out, cache hits, ...).

Layer time per request partitions each request's handler interval: every
instant goes to the deepest span active at that instant (the latest
started, when parallel siblings overlap).  For nested calls that is the
span's duration minus the part its children cover, and the layer times
of a request add up to its handler time exactly.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Time inside these spans, outside any named layer below them, is what
#: the report calls unattributed: engine loops, estimator bodies, the
#: top-k scan.
UNATTRIBUTED = "unattributed"


def _one(args, result) -> Tuple[int, int]:
    return 1, 0


def _worlds(args, result):
    return int(args[2] if len(args) > 2 else 0), 0


def _rows(args, result):
    return int(args[0].shape[0]), 0


def _pool_tasks(args, result):
    return len(args[2]), 0


def _fork_tasks(args, result):
    return len(args[1]), 0


def _cache_get(args, result):
    return 1, int(result is not None)


def _plan(args, result):
    return len(result), int(result.unique_count)


#: (module, owner class or None, attribute, layer, counter).
TRACED: Sequence[Tuple[str, Optional[str], str, str, Callable]] = (
    ("repro.serve.server", "ReliabilityRequestHandler", "do_POST",
     "serve", _one),
    ("repro.serve.server", "ReliabilityRequestHandler", "do_GET",
     "serve", _one),
    ("repro.api.service", "ReliabilityService", "estimate", "api", _one),
    ("repro.api.service", "ReliabilityService", "estimate_batch", "api",
     _one),
    ("repro.api.service", "ReliabilityService", "topk", "api", _one),
    ("repro.api.service", "ReliabilityService", "stats", "api", _one),
    ("repro.api.service", "ReliabilityService", "shard_run", "shard.compute",
     _one),
    ("repro.api.service", "ReliabilityService", "update", "update", _one),
    ("repro.api.service", None, "apply_update", "mutation", _one),
    ("repro.api.service", None, "top_k_reliable_targets", UNATTRIBUTED,
     _one),
    ("repro.distributed.service", "CoordinatedReliabilityService",
     "estimate_batch", "api", _one),
    ("repro.distributed.service", "CoordinatedReliabilityService", "stats",
     "api", _one),
    ("repro.distributed.service", "CoordinatedReliabilityService",
     "_run_distributed", UNATTRIBUTED, _one),
    ("repro.distributed.service", None, "plan_queries", "plan", _plan),
    ("repro.distributed.coordinator", "ShardCoordinator", "evaluate",
     "distributed", _one),
    ("repro.distributed.client", "ShardClient", "shard_run",
     "shard.dispatch", _one),
    ("repro.routing.router", "AdaptiveRouter", "route", "routing", _one),
    ("repro.routing.telemetry", "QueryTelemetry", "record", "routing.record",
     _one),
    ("repro.engine.batch", None, "plan_queries", "plan", _plan),
    ("repro.engine.batch", "BatchEngine", "run", UNATTRIBUTED, _one),
    ("repro.engine.batch", "BatchEngine", "run_range", UNATTRIBUTED, _one),
    ("repro.engine.batch", "BatchEngine", "evaluate_chunk", UNATTRIBUTED,
     _one),
    ("repro.engine.batch", "BatchEngine", "world_masks", "worldgen", _worlds),
    ("repro.engine.batch", None, "shared_reachability_fixpoint", "fixpoint",
     _one),
    ("repro.engine.batch", None, "shared_fixpoint_vectorized", "fixpoint",
     _one),
    ("repro.engine.cache", "ResultCache", "get", "cache", _cache_get),
    ("repro.engine.cache", "ResultCache", "put_many", "cache.put", _one),
    ("repro.engine.pool", "WorkerPool", "evaluate", "pool", _pool_tasks),
    ("repro.engine.parallel", None, "evaluate_chunks_parallel", "parallel",
     _fork_tasks),
    ("repro.util.bitset", None, "pack_bool_matrix", "pack", _rows),
    ("repro.core.estimators.base", "Estimator", "estimate", UNATTRIBUTED,
     _one),
    ("repro.core.estimators.base", "Estimator", "ensure_prepared", "prepare",
     _one),
    ("repro.core.estimators.prob_tree", "ProbTreeEstimator", "estimate_batch",
     "prob_tree", _one),
    ("repro.core.estimators.prob_tree", "ProbTreeEstimator", "lifted_graph",
     "prob_tree.lift", _one),
    ("repro.core.estimators.prob_tree", "FWDProbTreeIndex", "lifted_graph",
     "prob_tree.assemble", _one),
    ("repro.datasets.suite", None, "load_dataset", "setup.load", _one),
)

#: Every ``from_dict``/``to_dict`` a ``*Request``/``*Response`` defines.
CODEC_MODULE = "repro.api.types"


class Tracer:
    """Records spans for the functions in :data:`TRACED` (one process)."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._context: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )
        self.pid = os.getpid()

    def _wrap(self, func: Callable, layer: str, name: str, count, root: bool):
        spans = self.spans
        context = self._context
        span_ids = self._span_ids
        request_ids = self._request_ids
        clock = time.monotonic

        @functools.wraps(func)
        def traced(*args, **kwargs):
            request_id, parent = context.get()
            span_id = next(span_ids)
            if root:
                request_id, parent = next(request_ids), None
            token = context.set((request_id, span_id))
            n = m = 0
            end = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                end = clock()
                n, m = count(args, result)
                return result
            finally:
                if end is None:
                    end = clock()
                context.reset(token)
                spans.append(
                    (span_id, parent, request_id, layer, name, start, end,
                     n, m)
                )

        return traced

    def _patch(self, owner, attr: str, layer: str, name: str, count,
               root: bool = False) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self._wrap(original.__func__, layer, name, count, root)
            )
        else:
            wrapped = self._wrap(original, layer, name, count, root)
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced function; call once, before serving."""
        for module_name, owner_name, attr, layer, count in TRACED:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name
            )
            name = f"{owner_name or module_name}.{attr}"
            self._patch(owner, attr, layer, name, count,
                        root=attr in ("do_GET", "do_POST"))
        types = importlib.import_module(CODEC_MODULE)
        for cls_name in sorted(vars(types)):
            cls = getattr(types, cls_name)
            if not isinstance(cls, type) or not cls_name.endswith(
                ("Request", "Response")
            ):
                continue
            for attr in ("from_dict", "to_dict"):
                if attr in vars(cls):
                    self._patch(cls, attr, "api.codec",
                                f"{cls_name}.{attr}", _one)
        self._propagate_through_thread_pools()

    def _propagate_through_thread_pools(self) -> None:
        """Run work handed to a thread pool in the submitter's context.

        The coordinator fans ranges out on a ``ThreadPoolExecutor``; this
        keeps those dispatch spans inside the request that caused them.
        """
        submit = ThreadPoolExecutor.submit

        @functools.wraps(submit)
        def submit_in_context(executor, fn, /, *args, **kwargs):
            return submit(
                executor, contextvars.copy_context().run, fn, *args, **kwargs
            )

        ThreadPoolExecutor.submit = submit_in_context

    def dump(self, path: str) -> None:
        """Write the spans (from this process only) as JSON."""
        if os.getpid() != self.pid:
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": self.pid, "spans": list(self.spans)}, handle)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load_spans(path: str) -> List[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


def attribute_requests(
    spans: Iterable[tuple], window: Tuple[float, float]
) -> Tuple[Dict[str, float], int, float]:
    """Partition the handler time of requests started in ``window``.

    Returns ``(seconds per layer, request count, handler seconds)``; the
    layer seconds sum to the handler seconds.
    """
    by_request: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            by_request[span[2]].append(span)
    layers: Dict[str, float] = defaultdict(float)
    requests = 0
    handler = 0.0
    for members in by_request.values():
        roots = [span for span in members if span[1] is None]
        if len(roots) != 1 or not window[0] <= roots[0][5] <= window[1]:
            continue
        root = roots[0]
        requests += 1
        handler += root[6] - root[5]
        for layer, seconds in _partition(root, members).items():
            layers[layer] += seconds
    return dict(layers), requests, handler


def _partition(root: tuple, members: List[tuple]) -> Dict[str, float]:
    depth = {root[0]: 0}
    pending = [span for span in members if span is not root]
    while pending:  # parents before children; spans are few per request
        rest = []
        for span in pending:
            if span[1] in depth:
                depth[span[0]] = depth[span[1]] + 1
            else:
                rest.append(span)
        if len(rest) == len(pending):
            break  # orphans (parent unknown) are left out
        pending = rest
    spans = [span for span in members if span[0] in depth]
    lo, hi = root[5], root[6]
    points = sorted(
        {lo, hi}
        | {min(max(t, lo), hi) for span in spans for t in (span[5], span[6])}
    )
    out: Dict[str, float] = defaultdict(float)
    for left, right in zip(points, points[1:]):
        active = [
            span for span in spans if span[5] <= left and span[6] >= right
        ]
        if active:
            deepest = max(active, key=lambda span: (depth[span[0]], span[5]))
            out[deepest[3]] += right - left
    return out


def in_window(spans: Iterable[tuple], window: Tuple[float, float]):
    """Spans that started inside the window (any request, or none)."""
    return [span for span in spans if window[0] <= span[5] <= window[1]]


def summarise(spans: Iterable[tuple]) -> Dict[str, Dict[str, float]]:
    """Per-name call count, total seconds, and summed ``n``/``m``."""
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "n": 0, "m": 0}
    )
    for span in spans:
        entry = out[span[4]]
        entry["calls"] += 1
        entry["seconds"] += span[6] - span[5]
        entry["n"] += span[7]
        entry["m"] += span[8]
    return out
