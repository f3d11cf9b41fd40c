"""The repository benchmark: real ``repro serve`` deployments under load.

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 20 --trace 0

Launches the workload's deployment as separate processes (through
``perfbench/launch.py``), sets it up ``SETUP_REPEATS`` times, drives the
last one from this single process for ``--seconds``, replays a sample of
the answers through the in-process oracle, and prints a report whose
last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
window twice, untraced and then traced, and reports the per-layer
metrics (see README.md).  Exits non-zero on any oracle mismatch, and
when the checkout holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, tracing  # noqa: E402
from perfbench.oracle import Record  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DATASET,
    EDGE_COUNT,
    HOT_RATE,
    NODE_COUNT,
    WORKLOADS,
    ColdBatchStream,
    HotMixStream,
    Request,
    Workload,
    warmup_requests,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Load stays within a 2-core host: two client threads, two connections.
CLIENTS = 2
REQUEST_TIMEOUT = 60.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

clock = time.monotonic


# ----------------------------------------------------------------------
# Host and process accounting (read from /proc, outside the program)
# ----------------------------------------------------------------------


def host_metadata() -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    return text.rpartition(")")[2].split()


def descendants(roots: Sequence[int]) -> List[int]:
    """``roots`` and every live process below them."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = [], list(roots)
    while stack:
        pid = stack.pop()
        found.append(pid)
        stack.extend(children.get(pid, ()))
    return found


def cpu_seconds(pids: Sequence[int]) -> Dict[int, float]:
    """utime + stime of each live process in ``pids``."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / tick
    return out


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed VmHWM (peak resident set) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Deployments
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, args: Sequence[str], spans: Optional[Path],
                 log: Path) -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "launch.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        dataset, scale, seed = DATASET
        command += ["serve", "--dataset", dataset, "--scale", scale,
                    "--seed", str(seed), "--port", "0", *args]
        self.spans = spans
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        self.url: Optional[str] = None

    def wait_ready(self, deadline: float) -> str:
        """Block until the banner names the server's URL."""
        buffer = b""
        stdout = self.process.stdout
        while self.url is None:
            remaining = deadline - clock()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("a server did not come up; see its log")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                buffer += chunk
                match = re.search(rb" on (http://[^\s]+)", buffer)
                if match:
                    self.url = match.group(1).decode()
        return self.url

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then make sure all ended."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        # Anything left in the server's session (pool workers it did not
        # reap) is killed, and waited for.
        deadline = clock() + STOP_TIMEOUT
        while clock() < deadline:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        process.stdout.close()
        self._log.close()


class Deployment:
    """The processes serving one workload, and their set-up."""

    def __init__(self, workload: Workload, scratch: Path, traced: bool,
                 tag: str) -> None:
        self.workload = workload
        self.servers: List[Server] = []
        self._scratch = scratch
        self._traced = traced
        self._tag = tag
        self.url = ""

    def _server(self, role: str, args: Sequence[str]) -> Server:
        stem = self._scratch / f"{self._tag}-{role}"
        spans = Path(f"{stem}.spans.json") if self._traced else None
        server = Server(args, spans, Path(f"{stem}.log"))
        self.servers.append(server)
        return server

    def start(self) -> None:
        deadline = clock() + START_TIMEOUT
        deployment = self.workload.deployment
        if deployment == "sharded":
            shards = [self._server(f"shard{i}", ()) for i in range(2)]
            urls = [shard.wait_ready(deadline) for shard in shards]
            front = self._server(
                "coordinator",
                ["--coordinator", "--shards",
                 ",".join(url.removeprefix("http://") for url in urls)],
            )
        else:
            args = ["--workers", "2"] if deployment == "pooled" else []
            front = self._server("server", args)
        self.url = front.wait_ready(deadline)

    def pids(self) -> List[int]:
        return descendants([server.process.pid for server in self.servers])

    def stop(self) -> None:
        # Front door first, so no range is dispatched to a stopped shard.
        for server in reversed(self.servers):
            server.stop()


def set_up(workload: Workload, scratch: Path, traced: bool,
           tag: str) -> Tuple[Deployment, float, List[Record]]:
    """Launch, wait until ready and warm up; ``(deployment, seconds, ...)``.

    Warm-up sends the first request of every method and endpoint the
    workload uses: it loads indexes and forks the worker pool, so the
    timed window starts from a ready service.
    """
    started = clock()
    deployment = Deployment(workload, scratch, traced, tag)
    try:
        deployment.start()
        client = Client(deployment.url)
        records = [client.send(request) for request in
                   warmup_requests(workload)]
        client.close()
    except BaseException:
        deployment.stop()
        raise
    failed = [record for record in records if not record.ok]
    if failed:
        deployment.stop()
        raise RuntimeError(
            f"warm-up request failed with HTTP {failed[0].status}: "
            f"{failed[0].body[:300]!r}"
        )
    return deployment, clock() - started, records


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, url: str) -> None:
        host, _, port = url.removeprefix("http://").partition(":")
        self._address = (host, int(port))
        self._connection: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request, due: Optional[float] = None) -> Record:
        sent = clock()
        status, body = 0, b""
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    *self._address, timeout=REQUEST_TIMEOUT
                )
            headers = (
                {"Content-Type": "application/json"} if request.body else {}
            )
            self._connection.request(
                request.verb, request.path, request.body, headers
            )
            response = self._connection.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            body = repr(error).encode()
            self.close()
        done = clock()
        return Record(request, sent if due is None else due, sent, done,
                      status, body)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def fetch_json(url: str, path: str):
    client = Client(url)
    record = client.send(Request(-1, "stats", "GET", path, None, 0))
    client.close()
    return record.response() if record.ok else None


def drive_closed(url: str, stream: Iterator[Request],
                 seconds: float) -> Tuple[List[Record], float, float]:
    """``CLIENTS`` clients, each sending its next request on a reply."""
    records: List[Record] = []
    lock = threading.Lock()
    start = clock()
    deadline = start + seconds

    def client_loop() -> None:
        client = Client(url)
        while True:
            with lock:
                if clock() >= deadline:
                    break
                request = next(stream)
            record = client.send(request)
            with lock:
                records.append(record)
        client.close()

    _run_threads(client_loop)
    return records, start, max(record.done for record in records)


def drive_open(url: str, stream: Iterator[Request], seconds: float,
               rate: float) -> Tuple[List[Record], float, float]:
    """Requests due at a fixed rate, sent on ``CLIENTS`` connections.

    Latency counts from each request's due time, so a stall also charges
    the requests that queued behind it; ``sent - due`` is the generator's
    lateness.  Updates go out on schedule beside the reads, so reads can
    be in flight while the service swaps graph versions.
    """
    total = int(seconds * rate)
    schedule = iter(range(total))
    records: List[Record] = []
    lock = threading.Lock()
    start = clock() + 0.05

    def client_loop() -> None:
        client = Client(url)
        while True:
            with lock:
                index = next(schedule, None)
                if index is None:
                    break
                request = next(stream)
            due = start + index / rate
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            record = client.send(request, due=due)
            with lock:
                records.append(record)
        client.close()

    _run_threads(client_loop)
    return records, start, max(record.done for record in records)


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def make_stream(workload: Workload, seed: int) -> Iterator[Request]:
    if workload.name == "hot-mix":
        from repro.datasets.suite import load_dataset

        graph = load_dataset(*DATASET).graph
        edges = list(zip(graph.edge_sources.tolist(),
                         graph.targets.tolist()))
        return HotMixStream(seed, edges)
    return ColdBatchStream(seed)


# ----------------------------------------------------------------------
# One measured window
# ----------------------------------------------------------------------


class Window:
    """Everything one timed window produced."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 scratch: Path, traced: bool, tag: str,
                 repeats: int = 1) -> None:
        self.workload = workload
        self.setup_seconds: List[float] = []
        deployment = None
        for attempt in range(repeats):
            if deployment is not None:
                deployment.stop()
            deployment, took, warmup = set_up(
                workload, scratch, traced, f"{tag}{attempt}"
            )
            self.setup_seconds.append(took)
        self.warmup = warmup
        self.servers = deployment.servers
        try:
            health = fetch_json(deployment.url, "/v1/health")
            if (health or {}).get("nodes") != NODE_COUNT or (
                health.get("edges") != EDGE_COUNT
            ):
                raise RuntimeError(f"unexpected graph served: {health}")
            stream = make_stream(workload, seed)
            pids = deployment.pids()
            cpu_before = cpu_seconds(pids)
            if workload.loop == "open":
                self.records, self.start, self.end = drive_open(
                    deployment.url, stream, seconds, HOT_RATE
                )
            else:
                self.records, self.start, self.end = drive_closed(
                    deployment.url, stream, seconds
                )
            pids = deployment.pids()
            cpu_after = cpu_seconds(pids)
            self.cpu = sum(
                cpu_after[pid] - cpu_before.get(pid, 0.0) for pid in cpu_after
            )
            self.rss_mb = peak_rss_mb(pids)
            stats = fetch_json(deployment.url, "/v1/stats") or {}
            self.redispatches = stats.get("shards", {}).get("redispatches", 0)
        finally:
            deployment.stop()

    @property
    def answered(self) -> int:
        return sum(r.request.queries for r in self.records if r.ok)

    @property
    def queries_per_s(self) -> float:
        return self.answered / (self.end - self.start)

    def latencies_ms(self, kind: str) -> List[float]:
        return [
            (r.done - r.due) * 1000.0
            for r in self.records if r.request.kind == kind
        ]


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check(workload: Workload, window: Window) -> oracle.Verdict:
    if workload.name == "hot-mix":
        return oracle.check_hot(window.records, window.warmup)
    return oracle.check_cold(window.records)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def end_to_end(window: Window) -> Dict[str, Tuple[float, str]]:
    batch = window.latencies_ms("batch")
    return {
        "setup_s": (statistics.median(window.setup_seconds), "s"),
        "queries_per_s": (window.queries_per_s, "1/s"),
        "batch_p50_ms": (percentile(batch, 50), "ms"),
        "batch_p90_ms": (percentile(batch, 90), "ms"),
        "cpu_ms_per_query": (window.cpu * 1000.0 / window.answered, "ms"),
        "peak_rss_mb": (window.rss_mb, "MiB"),
    }


def workload_only(window: Window) -> Dict[str, Tuple[float, str]]:
    """Printed, not in the result line: metrics some workloads lack."""
    out = {}
    estimate = window.latencies_ms("estimate")
    if estimate:
        out["estimate_p50_ms"] = (percentile(estimate, 50), "ms")
        out["estimate_p90_ms"] = (percentile(estimate, 90), "ms")
    update = window.latencies_ms("update")
    if update:
        out["update_p50_ms"] = (percentile(update, 50), "ms")
    if window.workload.loop == "open":
        late = [(r.sent - r.due) * 1000.0 for r in window.records]
        out["lateness_p50_ms"] = (percentile(late, 50), "ms")
        out["lateness_max_ms"] = (max(late), "ms")
    return out


def per_layer(
    traced: Window, untraced: Window
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics from the traced window's spans, and a layer table.

    Per-request times come from the front-door process; counts and
    per-call times from every process of the deployment (README).
    """
    window = (traced.start, traced.end)
    front = tracing.load_spans(traced.servers[-1].spans)
    every = [front] + [
        tracing.load_spans(server.spans) for server in traced.servers[:-1]
    ]
    by_name = tracing.summarise(
        span for spans in every for span in tracing.in_window(spans, window)
    )
    setup = tracing.summarise(
        span for spans in every for span in spans if span[5] < window[0]
    )
    layers, requests, handler = tracing.attribute_requests(front, window)
    client = sum(r.done - r.sent for r in traced.records)
    per_req = max(requests, 1)

    def total(*names, key="seconds"):
        return sum(by_name[name][key] for name in names if name in by_name)

    def ratio(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    def per_call(*names, scale=1000.0):
        return ratio(total(*names), total(*names, key="calls"), scale)

    def per_request(layer):
        return layers.get(layer, 0.0) * 1000.0 / per_req

    plans = ("repro.engine.batch.plan_queries",
             "repro.distributed.service.plan_queries")
    fixpoints = ("repro.engine.batch.shared_reachability_fixpoint",
                 "repro.engine.batch.shared_fixpoint_vectorized")
    worlds = total("BatchEngine.world_masks", key="n")
    packed = "repro.util.bitset.pack_bool_matrix"
    lifts = total("ProbTreeEstimator.lifted_graph", key="calls")
    dispatch = per_call("ShardClient.shard_run")
    compute = per_call("ReliabilityService.shard_run")
    metrics = {
        "serve.self_ms_per_req": (per_request("serve"), "ms"),
        "serve.wire_ms_per_req": ((client - handler) * 1000.0 / per_req,
                                  "ms"),
        "api.codec_ms_per_req": (per_request("api.codec"), "ms"),
        "api.self_ms_per_req": (per_request("api"), "ms"),
        "routing.route_us_per_call": (
            per_call("AdaptiveRouter.route", scale=1e6), "us"),
        "routing.route_calls": (
            total("AdaptiveRouter.route", key="calls"), "count"),
        "routing.record_us_per_call": (
            per_call("QueryTelemetry.record", scale=1e6), "us"),
        "plan.ms_per_call": (per_call(*plans), "ms"),
        "plan.unique_ratio": (
            ratio(total(*plans, key="m"), total(*plans, key="n")), "ratio"),
        "cache.gets": (total("ResultCache.get", key="calls"), "count"),
        "cache.hit_ratio": (
            ratio(total("ResultCache.get", key="m"),
                  total("ResultCache.get", key="calls")), "ratio"),
        "cache.put_ms_per_call": (per_call("ResultCache.put_many"), "ms"),
        "worldgen.worlds": (worlds, "count"),
        "worldgen.us_per_world": (
            ratio(total("BatchEngine.world_masks"), worlds, 1e6), "us"),
        "pack.us_per_world": (
            ratio(total(packed), total(packed, key="n"), 1e6), "us"),
        "fixpoint.sweeps": (total(*fixpoints, key="calls"), "count"),
        "fixpoint.ms_per_sweep": (per_call(*fixpoints), "ms"),
        "pool.wait_ms_per_run": (per_call("WorkerPool.evaluate"), "ms"),
        "pool.tasks": (total("WorkerPool.evaluate", key="n"), "count"),
        "parallel.fork_runs": (
            total("repro.engine.parallel.evaluate_chunks_parallel",
                  key="calls"), "count"),
        "shard.dispatch_ms_per_range": (dispatch, "ms"),
        "shard.compute_ms_per_range": (compute, "ms"),
        "shard.overhead_ms_per_range": (dispatch - compute, "ms"),
        "shard.redispatches": (traced.redispatches, "count"),
        "prob_tree.lift_ms_per_call": (
            per_call("ProbTreeEstimator.lifted_graph"), "ms"),
        "prob_tree.lift_hit_ratio": (
            ratio(lifts - total("FWDProbTreeIndex.lifted_graph",
                                key="calls"), lifts), "ratio"),
        "mutation.apply_ms": (
            per_call("repro.api.service.apply_update"), "ms"),
        "update.rebuild_ms": (
            ratio(layers.get("update", 0.0),
                  total("ReliabilityService.update", key="calls"), 1000.0),
            "ms"),
        "setup.load_s": (
            setup["repro.datasets.suite.load_dataset"]["seconds"], "s"),
        "setup.prepare_s": (setup["Estimator.ensure_prepared"]["seconds"],
                            "s"),
        "unattributed_ms_per_req": (per_request(tracing.UNATTRIBUTED), "ms"),
        "trace.overhead_ratio": (
            traced.queries_per_s / untraced.queries_per_s, "ratio"),
    }
    rows = sorted(layers.items(), key=lambda item: -item[1])
    rows.append(("wire (client - handler)", client - handler))
    table = [f"layer time over {requests} requests (client latency "
             f"{client * 1000.0 / per_req:.2f} ms/req):"]
    for layer, seconds in rows:
        table.append(
            f"  {layer:28s} {seconds * 1000.0 / per_req:10.3f} ms/req  "
            f"{100.0 * seconds / client if client else 0.0:6.2f}%"
        )
    return metrics, table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # A terminated run unwinds, so every deployment it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print("host " + json.dumps(host_metadata(), sort_keys=True))
    print(f"{workload.name}: {workload.why} Loads {workload.loads}.",
          flush=True)
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        scratch = Path(scratch)
        untraced = Window(workload, args.seed, args.seconds, scratch, False,
                          "plain", repeats=1 if args.trace else SETUP_REPEATS)
        windows = [untraced]
        if args.trace:
            traced = Window(workload, args.seed, args.seconds, scratch, True,
                            "traced")
            windows.append(traced)
        verdicts = [check(workload, window) for window in windows]
        if args.trace:
            metrics, report = per_layer(traced, untraced)
        else:
            metrics = end_to_end(untraced)
            report = []
        printed = dict(metrics)
        printed.update(workload_only(untraced))
    declared = {
        entry["name"]: entry["unit"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"
        ]
    }
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"perfbench: metrics {produced} do not match BENCHMARK.json "
              f"{declared}", file=sys.stderr)
        return 3
    attempted = sum(len(window.records) for window in windows)
    transport_failures = sum(
        1 for window in windows for record in window.records if not record.ok
    )
    mismatches = [m for verdict in verdicts for m in verdict.mismatches]
    failed = transport_failures + len(mismatches)
    samples = {}
    for record in untraced.records:
        samples[record.request.kind] = samples.get(record.request.kind, 0) + 1
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {attempted} requests; untraced window "
          f"samples {json.dumps(samples, sort_keys=True)}")
    for line in report:
        print(line)
    for name, (value, unit) in sorted(printed.items()):
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(f"  {'failed_ratio':32s} {failed / max(attempted, 1):14.4f} ratio")
    print("oracle: " + json.dumps({
        "checked": sum(v.checked for v in verdicts),
        "mismatches": len(mismatches),
        "skipped_overlapping_update": sum(
            v.skipped_overlapping for v in verdicts),
    }))
    for mismatch in mismatches[:10]:
        print("  mismatch: " + mismatch)
    correct = not mismatches and transport_failures == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
