"""Replays a fixed sample of served requests in-process and compares answers.

``mc`` batches are checked against the engine's sequential oracle,
:meth:`repro.engine.batch.BatchEngine.run_sequential`; every other
answer against a single-worker in-process ``ReliabilityService`` at the
graph version that served it.  All comparisons are exact: the program's
determinism contract makes every answer a pure function of the graph,
the method, the seed and the query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from perfbench.workloads import DATASET, Request

#: How many batches (and hot-mix top-k calls) of a run are replayed, and
#: which queries of a cold batch: enough to catch a wrong stream or merge,
#: few enough to keep the replay to a few seconds.
SAMPLE_REQUESTS = 8
COLD_QUERY_POSITIONS = (0, 31)
HOT_SAMPLE_REQUESTS = 8


@dataclass
class Record:
    """One request as the load generator saw it."""

    request: Request
    due: float
    sent: float
    done: float
    status: int  # 0 when no HTTP response arrived
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def response(self):
        return json.loads(self.body)


@dataclass
class Verdict:
    checked: int = 0
    mismatches: List[str] = field(default_factory=list)
    skipped_overlapping: int = 0


def _spread(records: Sequence[Record], count: int) -> List[Record]:
    """``count`` records evenly spaced over the run, in request order."""
    ordered = sorted(records, key=lambda record: record.request.index)
    if len(ordered) <= count:
        return ordered
    step = len(ordered) / count
    return [ordered[int(i * step)] for i in range(count)]


def _sequential(graph, seed: int, query) -> float:
    from repro.engine.batch import BatchEngine

    engine = BatchEngine(graph, seed=seed, workers=1)
    return float(engine.run_sequential([tuple(query)]).estimates[0])


def check_cold(records: Sequence[Record]) -> Verdict:
    """Served ``mc`` batches against the sequential per-query oracle."""
    from repro.datasets.suite import load_dataset

    graph = load_dataset(*DATASET).graph
    verdict = Verdict()
    batches = [r for r in records if r.ok and r.request.kind == "batch"]
    for record in _spread(batches, SAMPLE_REQUESTS):
        body = json.loads(record.request.body)
        rows = record.response()["results"]
        for position in COLD_QUERY_POSITIONS:
            query = body["queries"][position]
            row = rows[position]
            expected = _sequential(graph, body["seed"], query)
            verdict.checked += 1
            served = [row["source"], row["target"], row["samples"]]
            if row.get("max_hops") is not None:
                served.append(row["max_hops"])
            if served != query or row["estimate"] != expected:
                verdict.mismatches.append(
                    f"request {record.request.index} query {position}: "
                    f"served {row}, oracle {expected!r} for {query}"
                )
    return verdict


def _replay(service, request: Request, served) -> Tuple[object, object]:
    """(served answer, in-process answer) for one hot-mix request."""
    from repro.api.types import BatchRequest, EstimateRequest, TopKRequest
    from repro.engine.batch import BatchEngine

    body = json.loads(request.body)
    if request.kind == "topk":
        expected = service.topk(TopKRequest.from_dict(body)).to_dict()
        return served["ranking"], expected["ranking"]
    # "auto" is replayed as the method it was routed to: the answer is
    # bit-identical to naming that method directly.
    body["method"] = served["method"]
    if request.kind == "estimate":
        expected = service.estimate(EstimateRequest.from_dict(body))
        return served["estimate"], expected.estimate
    answers = [row["estimate"] for row in served["results"]]
    if body["method"] == "mc":
        engine = BatchEngine(service.graph, seed=service.seed, workers=1)
        result = engine.run_sequential([tuple(q) for q in body["queries"]])
        return answers, [float(value) for value in result.estimates]
    expected = service.estimate_batch(BatchRequest.from_dict(body))
    return answers, [row.estimate for row in expected.results]


def check_hot(
    records: Sequence[Record], warmup: Sequence[Record]
) -> Verdict:
    """Served hot-mix answers against an in-process replay.

    The replay service receives the set-up requests (as the methods they
    were routed to, so it builds the same estimators), then every
    estimate and a sample of batches and top-k calls, with every served
    update in version order between them: each is answered at the graph
    version that served it.  A request whose flight overlapped an
    update's may have been served on either version; it is skipped and
    counted.
    """
    from repro.api.service import ReliabilityService
    from repro.api.types import UpdateRequest

    verdict = Verdict()
    updates = sorted(
        (r for r in records if r.request.kind == "update"),
        key=lambda r: r.response()["version"] if r.ok else 0,
    )
    if any(not r.ok for r in updates):
        verdict.mismatches.append("an update failed; versions are unknown")
        return verdict
    # Every estimate is replayed, in the order it was sent: a per-query
    # estimator may rebuild a dropped index lazily from its own stateful
    # RNG, so its answers depend on which estimates came before.
    sampled = _spread(
        [r for r in records if r.ok and r.request.kind in ("batch", "topk")],
        HOT_SAMPLE_REQUESTS,
    )
    estimates = [r for r in records if r.ok and r.request.kind == "estimate"]
    by_version: Dict[int, List[Record]] = {}
    for record in sorted(sampled + estimates, key=lambda r: r.sent):
        if any(
            u.sent <= record.done and record.sent <= u.done for u in updates
        ):
            verdict.skipped_overlapping += 1
            continue
        version = sum(1 for u in updates if u.done < record.sent)
        by_version.setdefault(version, []).append(record)

    service = ReliabilityService.from_dataset(*DATASET, workers=1)
    try:
        for record in warmup:
            if record.request.kind in ("estimate", "batch", "topk"):
                _replay(service, record.request, record.response())
        last = max(by_version, default=0)
        for version in range(last + 1):
            for record in by_version.get(version, ()):
                served, expected = _replay(
                    service, record.request, record.response()
                )
                verdict.checked += 1
                if served != expected:
                    verdict.mismatches.append(
                        f"request {record.request.index} "
                        f"({record.request.kind}) at version {version}: "
                        f"served {served!r}, oracle {expected!r}"
                    )
            if version < last:
                update = updates[version]
                response = service.update(
                    UpdateRequest.from_dict(json.loads(update.request.body))
                )
                verdict.checked += 1
                if response.fingerprint != update.response()["fingerprint"]:
                    verdict.mismatches.append(
                        f"update {update.request.index}: graph fingerprint "
                        f"{update.response()['fingerprint']} served, "
                        f"{response.fingerprint} replayed"
                    )
    finally:
        service.close()
    return verdict
