"""The benchmark's workloads: deployments, traffic shapes and request streams.

Every stream is a pure function of the workload seed: two streams built
from the same seed yield byte-identical request bodies in the same order,
so a run can be replayed exactly and the oracle can recompute any answer.
The served program receives only the generated requests.

All deployments serve LastFM at scale ``medium`` (4,000 nodes, 15,994
edges, dataset seed 0) and pass no engine flags besides the topology, so
a change to a shipped default shows up in every workload.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

DATASET = ("lastfm", "medium", 0)
NODE_COUNT = 4000
EDGE_COUNT = 15994

#: Skew of source (cold workloads) and pair (hot-mix) popularity.
ZIPF_S = 1.3

COLD_QUERIES_PER_BATCH = 32
COLD_BUDGETS = (250, 500, 1000)
COLD_HOP_SHARE = 0.25
COLD_HOPS = (2, 3, 4)

#: hot-mix offered load, in requests per second: about half the 13/s two
#: closed-loop clients sustain on the 2-core reference host (see README).
HOT_RATE = 6.0
HOT_PAIR_POOL = 500
HOT_SAMPLES = 500
HOT_BATCH_QUERIES = 8
HOT_TOPK = {"k": 5, "samples": 200}
HOT_ROUTED_METHODS = ("mc", "bfs_sharing", "auto")
#: One hot-mix cycle: 120 requests, one 20-second run at HOT_RATE.  45%
#: estimates, a third batches of which a quarter prob_tree, 8% top-k,
#: 10% stats and 3% updates, in a fixed schedule that spreads each kind
#: evenly over the cycle.
HOT_CYCLE = (
    ("estimate", 54),
    ("batch", 30),
    ("prob_tree", 10),  # batches of method prob_tree
    ("topk", 10),
    ("stats", 12),
    ("update", 4),
)


@dataclass(frozen=True)
class Request:
    """One generated request: what to send and what the oracle needs."""

    index: int
    kind: str  # estimate | batch | topk | stats | update
    verb: str
    path: str
    body: Optional[bytes]
    #: s-t answers the request asks for (0 for stats and update).
    queries: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``serve`` (one server), ``pooled`` (--workers 2) or ``sharded``.
    deployment: str
    #: ``closed`` (2 clients, each waits for its reply) or ``open``.
    loop: str
    why: str
    loads: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="cold-batch",
            deployment="serve",
            loop="closed",
            why=(
                "Engine-bound batches that bypass every cache: each request "
                "carries a fresh seed, so no result or world is reused."
            ),
            loads=(
                "world generation, bit-packing, the fixpoint sweep and "
                "planning; predicts no change for cache work"
            ),
        ),
        Workload(
            name="hot-mix",
            deployment="serve",
            loop="open",
            why=(
                "Front-door traffic on a working set that fits the result "
                "cache, with live updates beside the reads."
            ),
            loads=(
                "the HTTP layer, codecs, facade, routing, the result cache, "
                "prob_tree and mutation; little engine work per request"
            ),
        ),
        Workload(
            name="pooled-batch",
            deployment="pooled",
            loop="closed",
            why=(
                "The cold-batch stream on --workers 2: the worker pool would "
                "otherwise go unmeasured."
            ),
            loads="engine.pool partition, dispatch and merge",
        ),
        Workload(
            name="sharded-batch",
            deployment="sharded",
            loop="closed",
            why=(
                "The cold-batch stream through a coordinator over two plain "
                "shard servers: the shard tier would otherwise go unmeasured."
            ),
            loads="the distributed layer: range partition, dispatch, merge",
        ),
    )
}


def _encode(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _zipf_weights(n: int, s: float) -> List[float]:
    """Probability of ranks ``0 .. n-1``, proportional to 1/(rank+1)^s."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    return [weight / total for weight in weights]


class _Zipf:
    """Independent draws of zipf-distributed ranks."""

    def __init__(self, n: int, s: float) -> None:
        self._cumulative = list(itertools.accumulate(_zipf_weights(n, s)))

    def draw(self, rng: random.Random) -> int:
        return min(
            bisect.bisect_right(self._cumulative, rng.random()),
            len(self._cumulative) - 1,
        )


class _Deck:
    """Deals items in shuffled cycles that hold each item its exact count."""

    def __init__(self, counts: Sequence[Tuple[Hashable, int]]) -> None:
        self._cycle = [item for item, count in counts for _ in range(count)]
        self._left: List[Hashable] = []

    def deal(self, rng: random.Random):
        if not self._left:
            self._left = list(self._cycle)
            rng.shuffle(self._left)
        return self._left.pop()


def _zipf_deck(n: int, draws: int) -> _Deck:
    """A deck of ``draws`` ranks whose counts follow the zipf law.

    Counts are rounded by largest remainder, so every cycle deals the
    same multiset: the popular ranks their exact share, the tail one
    draw each for the ranks that come closest to one.
    """
    shares = [weight * draws for weight in _zipf_weights(n, ZIPF_S)]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(n), key=lambda rank: counts[rank] - shares[rank]
    )
    for rank in by_remainder[: draws - sum(counts)]:
        counts[rank] += 1
    return _Deck([(rank, count) for rank, count in enumerate(counts)])


def _interleave(counts: Sequence[Tuple[str, int]]) -> List[str]:
    """One cycle in which each item's slots are spread evenly."""
    length = sum(count for _, count in counts)
    slots = sorted(
        ((k + 0.5) * length / count, order, item)
        for order, (item, count) in enumerate(counts)
        for k in range(count)
    )
    return [item for _, _, item in slots]


def _follow(schedule: Sequence[str], item: str, anchor: str) -> List[str]:
    """``schedule`` with each ``item`` moved to just after the last
    ``anchor`` before it."""
    moved: List[str] = []
    for kind in schedule:
        if kind == item:
            moved.insert(len(moved) - moved[::-1].index(anchor), item)
        else:
            moved.append(kind)
    return moved


class ColdBatchStream:
    """``POST /v1/batch`` ``mc`` workloads shared by the three batch runs.

    Sources follow a zipf law over a node permutation, so queries in a
    batch share sources (and so sweeps); targets are uniform.  Every
    request has its own seed, so the result cache never hits.  Which
    nodes are the hot sources is part of the workload's definition, not
    of its seed: the seed draws the stream, and the cost of a run does
    not hinge on how far the few hottest sources happen to reach.
    """

    def __init__(self, seed: int) -> None:
        self._nodes = list(range(NODE_COUNT))
        random.Random("perfbench/cold/hot-sources").shuffle(self._nodes)
        self._rng = random.Random(f"perfbench/cold/{seed}")
        self._zipf = _Zipf(NODE_COUNT, ZIPF_S)
        self._seed_base = self._rng.randrange(1, 2**40)
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self) -> Request:
        rng = self._rng
        queries = []
        for _ in range(COLD_QUERIES_PER_BATCH):
            source = self._nodes[self._zipf.draw(rng)]
            target = rng.randrange(len(self._nodes) - 1)
            if target >= source:
                target += 1
            query = [source, target, rng.choice(COLD_BUDGETS)]
            if rng.random() < COLD_HOP_SHARE:
                query.append(rng.choice(COLD_HOPS))
            queries.append(query)
        body = {
            "queries": queries,
            "method": "mc",
            "seed": self._seed_base + self._index,
        }
        request = Request(
            self._index, "batch", "POST", "/v1/batch", _encode(body),
            len(queries),
        )
        self._index += 1
        return request


class HotMixStream:
    """The hot-mix request stream over a fixed pool of popular pairs.

    No request carries a seed, so every answer comes from the service
    seed and repeated pairs can hit the result cache.  Updates re-set the
    probability of an existing edge, so the graph keeps its size.

    Every 120-request cycle follows one fixed schedule
    (:data:`HOT_CYCLE`, each kind spread evenly) and deals the methods and
    the zipf-weighted pairs of each kind from decks, so it holds the same
    mix and the same multiset of pairs; the seed shuffles the decks,
    which sets which method and which pairs each request gets, how pairs
    group into batches, and which edges the updates touch.  Why: a
    prob_tree batch costs 4x more for some pairs than for others, an
    update empties the result cache, and requests slow each other when
    they overlap; drawing kinds and pairs freely moved the batch p50 and
    p90 by a quarter to a half between seeds.
    """

    def __init__(self, seed: int, edges: Sequence[Tuple[int, int]]) -> None:
        pool_rng = random.Random("perfbench/hot/pairs")
        pairs = set()
        while len(pairs) < HOT_PAIR_POOL:
            source = pool_rng.randrange(NODE_COUNT)
            target = pool_rng.randrange(NODE_COUNT)
            if source != target:
                pairs.add((source, target))
        self._pairs = sorted(pairs)
        pool_rng.shuffle(self._pairs)
        self._rng = random.Random(f"perfbench/hot/{seed}")
        self._edges = list(edges)
        cycle = dict(HOT_CYCLE)
        # Each update goes out one slot after a prob_tree batch, the
        # slowest read, so it lands while that batch is in flight.
        self._schedule = _follow(_interleave(HOT_CYCLE), "update", "prob_tree")
        self._estimate_methods = _Deck(
            [(method, cycle["estimate"] // 3) for method in HOT_ROUTED_METHODS]
        )
        self._batch_methods = _Deck(
            [(method, cycle["batch"] // 3) for method in HOT_ROUTED_METHODS]
        )
        self._pair_decks = {
            kind: _zipf_deck(
                HOT_PAIR_POOL,
                cycle[kind] * (1 if kind in ("estimate", "topk")
                               else HOT_BATCH_QUERIES),
            )
            for kind in ("estimate", "batch", "prob_tree", "topk")
        }
        self._index = 0

    def __iter__(self):
        return self

    def _pair(self, deck: str) -> Tuple[int, int]:
        return self._pairs[self._pair_decks[deck].deal(self._rng)]

    def __next__(self) -> Request:
        rng = self._rng
        index = self._index
        self._index += 1
        kind = self._schedule[index % len(self._schedule)]
        if kind == "estimate":
            source, target = self._pair("estimate")
            body = {
                "source": source,
                "target": target,
                "samples": HOT_SAMPLES,
                "method": self._estimate_methods.deal(rng),
            }
            return Request(
                index, kind, "POST", "/v1/estimate", _encode(body), 1
            )
        if kind in ("batch", "prob_tree"):
            queries = [
                [*self._pair(kind), HOT_SAMPLES]
                for _ in range(HOT_BATCH_QUERIES)
            ]
            method = (
                kind if kind == "prob_tree" else self._batch_methods.deal(rng)
            )
            body = {"queries": queries, "method": method}
            return Request(
                index, "batch", "POST", "/v1/batch", _encode(body),
                len(queries),
            )
        if kind == "topk":
            body = {"source": self._pair("topk")[0], **HOT_TOPK}
            return Request(index, kind, "POST", "/v1/topk", _encode(body), 0)
        if kind == "stats":
            return Request(index, kind, "GET", "/v1/stats", None, 0)
        source, target = rng.choice(self._edges)
        probability = round(rng.uniform(0.05, 0.95), 4)
        body = {"set_edges": [[source, target, probability]]}
        return Request(index, kind, "POST", "/v1/update", _encode(body), 0)


def warmup_requests(workload: Workload) -> List[Request]:
    """Requests sent during set-up, before the timed window.

    One per method and endpoint the workload uses.  The warm-up batch
    needs 512 worlds, i.e. two engine chunks, so it forks the worker pool
    on pooled-batch and fans out to both shards on sharded-batch.  Its
    seed (0, the service seed) is one no cold request uses.
    """
    batch = {
        "queries": [[0, 1, 512], [1, 2, 512], [2, 3, 512, 3]],
        "method": "mc",
        "seed": 0,
    }
    requests = [
        Request(-1, "batch", "POST", "/v1/batch", _encode(batch), 3)
    ]
    if workload.name != "hot-mix":
        return requests
    for method in HOT_ROUTED_METHODS:
        body = {"source": 0, "target": 1, "samples": HOT_SAMPLES,
                "method": method}
        requests.append(
            Request(-1, "estimate", "POST", "/v1/estimate", _encode(body), 1)
        )
    for method in HOT_ROUTED_METHODS + ("prob_tree",):
        body = {"queries": [[0, 1, HOT_SAMPLES]], "method": method}
        requests.append(
            Request(-1, "batch", "POST", "/v1/batch", _encode(body), 1)
        )
    requests.append(
        Request(-1, "topk", "POST", "/v1/topk",
                _encode({"source": 0, **HOT_TOPK}), 0)
    )
    requests.append(Request(-1, "stats", "GET", "/v1/stats", None, 0))
    return requests
