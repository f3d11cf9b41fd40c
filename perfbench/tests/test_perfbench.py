"""The benchmark's own tests: stream determinism and span accounting."""

import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import tracing
from perfbench.oracle import Record, _spread
from perfbench.workloads import (
    COLD_BUDGETS,
    COLD_HOPS,
    COLD_QUERIES_PER_BATCH,
    HOT_CYCLE,
    NODE_COUNT,
    ColdBatchStream,
    HotMixStream,
    Request,
)

EDGES = [(u, (u * 7 + 1) % NODE_COUNT) for u in range(0, NODE_COUNT, 3)]


def _take(stream, count):
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize(
    "make",
    [ColdBatchStream, lambda seed: HotMixStream(seed, EDGES)],
    ids=["cold", "hot"],
)
def test_same_seed_gives_a_byte_identical_stream(make):
    first, second = _take(make(5), 300), _take(make(5), 300)
    assert first == second
    assert [r.body for r in first] != [r.body for r in _take(make(6), 300)]


def test_cold_batches_are_well_formed_and_never_share_a_seed():
    requests = _take(ColdBatchStream(3), 200)
    seeds = set()
    hop_queries = sources = 0
    distinct_sources = set()
    for request in requests:
        assert (request.kind, request.verb, request.path) == (
            "batch", "POST", "/v1/batch")
        body = json.loads(request.body)
        assert body["method"] == "mc"
        assert len(body["queries"]) == COLD_QUERIES_PER_BATCH
        seeds.add(body["seed"])
        for query in body["queries"]:
            source, target, samples = query[:3]
            assert 0 <= source < NODE_COUNT and 0 <= target < NODE_COUNT
            assert source != target and samples in COLD_BUDGETS
            if len(query) == 4:
                assert query[3] in COLD_HOPS
                hop_queries += 1
            sources += 1
            distinct_sources.add(source)
    assert len(seeds) == len(requests)
    assert 0.2 < hop_queries / sources < 0.3
    # zipf-skewed sources: far fewer distinct sources than queries.
    assert len(distinct_sources) < sources / 4


def test_hot_mix_repeats_its_mix_every_cycle():
    requests = _take(HotMixStream(9, EDGES), 2 * 120)
    edges = set(EDGES)
    cycles = (requests[:120], requests[120:])
    for cycle in cycles:
        kinds = Counter(
            "prob_tree" if r.body and b'"prob_tree"' in r.body else r.kind
            for r in cycle
        )
        assert kinds == dict(HOT_CYCLE)
        methods = Counter(
            json.loads(r.body)["method"] for r in cycle
            if r.kind in ("estimate", "batch")
        )
        assert methods == {"mc": 28, "bfs_sharing": 28, "auto": 28,
                           "prob_tree": 10}
    first, second = (
        sorted(q[:2] for r in cycle if r.kind == "batch"
               for q in json.loads(r.body)["queries"])
        for cycle in cycles
    )
    assert first == second  # the same pairs, grouped differently
    assert [r.kind for r in cycles[0]] == [r.kind for r in cycles[1]]
    for previous, request in zip(requests, requests[1:]):
        if request.kind == "update":  # lands while a prob_tree batch runs
            assert b'"prob_tree"' in previous.body
    for request in requests:
        body = json.loads(request.body) if request.body else {}
        assert "seed" not in body
        if request.kind == "update":
            (source, target, probability), = body["set_edges"]
            assert (source, target) in edges and 0 < probability < 1


def test_spread_samples_evenly_in_request_order():
    records = [
        Record(Request(i, "batch", "POST", "/", b"", 1), 0.0, 0.0, 0.0, 200)
        for i in reversed(range(10))
    ]
    assert [r.request.index for r in _spread(records, 4)] == [0, 2, 5, 7]
    assert len(_spread(records[:3], 4)) == 3


def _span(span_id, parent, request, layer, start, end):
    return (span_id, parent, request, layer, layer, start, end, 1, 0)


def test_layer_times_partition_the_handler_interval():
    spans = [
        _span(1, None, 1, "serve", 0.0, 10.0),
        _span(2, 1, 1, "api", 1.0, 9.0),
        _span(3, 2, 1, "fixpoint", 2.0, 4.0),
        # Two dispatches in parallel threads under one parent.
        _span(4, 2, 1, "shard.dispatch", 5.0, 8.0),
        _span(5, 2, 1, "shard.dispatch", 6.0, 8.5),
        _span(6, None, 2, "serve", 20.0, 21.0),  # outside the window
    ]
    layers, requests, handler = tracing.attribute_requests(spans, (0, 15))
    assert (requests, handler) == (1, 10.0)
    assert layers == {
        "serve": 2.0, "api": 2.5, "fixpoint": 2.0, "shard.dispatch": 3.5,
    }
    assert sum(layers.values()) == pytest.approx(handler)


class _Service:
    def handle(self, value, pool=None):
        if pool is not None:
            return pool.submit(self.inner, value).result()
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return value


def test_wrapped_calls_record_nested_spans_with_one_request_id(monkeypatch):
    monkeypatch.setattr(ThreadPoolExecutor, "submit", ThreadPoolExecutor.submit)
    for attr in ("handle", "inner", "build"):
        monkeypatch.setattr(_Service, attr, vars(_Service)[attr])
    tracer = tracing.Tracer()
    tracer._patch(_Service, "handle", "serve", "handle", tracing._one,
                  root=True)
    tracer._patch(_Service, "inner", "api", "inner", lambda a, r: (r, 0))
    tracer._patch(_Service, "build", "api.codec", "build", tracing._one)
    tracer._propagate_through_thread_pools()

    assert _Service().handle(3) == 7 and _Service.build(4) == 4
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert _Service().handle(5, pool) == 10

    inner, handle, build, pooled, pooled_root = tracer.spans
    assert handle[1] is None and handle[2] == 1
    assert inner[1] == handle[0] and inner[2] == 1 and inner[7] == 6
    assert build[1] is None and build[2] is None
    # Work handed to a thread pool stays inside the request that sent it.
    assert pooled_root[2] == 2
    assert pooled[1] == pooled_root[0] and pooled[2] == 2
