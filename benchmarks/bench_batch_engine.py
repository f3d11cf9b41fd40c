"""Batch engine speedup: shared worlds vs the per-query loop.

Not a paper table — this benchmarks the repo's own batch query engine
(:mod:`repro.engine`), which operationalises the paper's central finding
(§2.2/§3.7: sampling dominates, shared sampled work is the lever) at
workload granularity.  On one medium suite graph and a >=20-query workload
at equal K it times:

* ``engine (bitset)``     — the fast path: every world sampled once,
  chunks packed into BFS-Sharing-style bit matrices, one fixpoint per
  distinct source per chunk;
* ``engine (per-world)``  — same shared worlds, swept one world at a time
  with the fused Alg. 1 kernel;
* ``sequential loop``     — the per-query loop over the *same* world
  stream: each query re-materialises its K worlds (the exactness oracle);
* ``lazy MC loop``        — the classic baseline: ``estimate()`` per query
  with lazy edge sampling and early termination (different stream, so
  estimates differ statistically but not in expectation).

A second section scales the bitset sweep over worker processes
(``workers=1,2,4``): chunk ranges fan out over a ``ProcessPoolExecutor``
and, by the engine's determinism contract, every worker count produces
bit-identical estimates — asserted here, alongside >1.5x speedup at 4
workers when the hardware has the cores to show it.

Asserted: the three shared-stream strategies agree bit-for-bit, and the
bitset fast path beats the sequential loop.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_engine.py -q -s

Environment knobs: ``REPRO_BATCH_SCALE`` (default medium),
``REPRO_BATCH_PAIRS`` (default 24), ``REPRO_BATCH_K`` (default 500),
``REPRO_BATCH_WORKERS`` (default "1,2,4").

A kernel section times the engine's vectorized fixpoint
(:func:`~repro.engine.kernels.shared_fixpoint_vectorized`) against BFS
Sharing's per-node reference fixpoint on the same packed world chunks,
asserting bit-identical node bits.  A third section measures the
estimator fast paths (BFS Sharing served from engine world chunks;
ProbTree's bag-grouped lifts) against their per-query loops, and a
fourth the persistent result cache: a cold run that populates the SQLite
sidecar vs a fresh-process-equivalent warm run that must sample **zero**
worlds.

Machine-readable results land in ``benchmarks/output/batch_engine.json``
(uploaded as a CI artifact).
"""

import json
import os
import tempfile
import time

import numpy as np

from repro.core.estimators.base import Estimator
from repro.core.estimators.bfs_sharing import (
    BFSSharingEstimator,
    shared_reachability_fixpoint,
)
from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.core.estimators.prob_tree import ProbTreeEstimator
from repro.datasets.queries import generate_workload
from repro.datasets.suite import load_dataset
from repro.engine.batch import BatchEngine
from repro.engine.kernels import shared_fixpoint_vectorized
from repro.experiments.report import format_dict_rows
from repro.util import bitset

from benchmarks._shared import BENCH_SEED, OUTPUT_DIRECTORY, emit, paper_note

BATCH_SCALE = os.environ.get("REPRO_BATCH_SCALE", "medium")
BATCH_PAIRS = int(os.environ.get("REPRO_BATCH_PAIRS", "24"))
BATCH_K = int(os.environ.get("REPRO_BATCH_K", "500"))
BATCH_DATASET = os.environ.get("REPRO_BATCH_DATASET", "lastfm")
BATCH_WORKERS = [
    int(part)
    for part in os.environ.get("REPRO_BATCH_WORKERS", "1,2,4").split(",")
    if part.strip()
] or [1, 2, 4]
if BATCH_WORKERS[0] != 1:
    # The scaling table's baseline must be the serial sweep, whatever
    # worker counts the environment asks for.
    BATCH_WORKERS.insert(0, 1)

JSON_OUTPUT = OUTPUT_DIRECTORY / "batch_engine.json"

#: Collected by both benchmarks, flushed to JSON_OUTPUT as each finishes.
_JSON_PAYLOAD = {
    "dataset": BATCH_DATASET,
    "scale": BATCH_SCALE,
    "pairs": BATCH_PAIRS,
    "samples": BATCH_K,
    "cpu_count": os.cpu_count(),
}


def _write_json() -> None:
    OUTPUT_DIRECTORY.mkdir(exist_ok=True)
    JSON_OUTPUT.write_text(
        json.dumps(_JSON_PAYLOAD, indent=2) + "\n", encoding="utf-8"
    )


def _timed(callable_):
    started = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - started


def test_batch_engine_speedup():
    dataset = load_dataset(BATCH_DATASET, BATCH_SCALE, BENCH_SEED)
    graph = dataset.graph
    workload = generate_workload(
        graph, pair_count=BATCH_PAIRS, hop_distance=2, seed=BENCH_SEED
    )
    queries = [(source, target, BATCH_K) for source, target in workload]
    assert len(queries) >= 20

    bitset_engine = BatchEngine(graph, seed=BENCH_SEED)
    batch, batch_seconds = _timed(lambda: bitset_engine.run(queries))

    per_world_engine = BatchEngine(graph, seed=BENCH_SEED, sweep="per_world")
    per_world, per_world_seconds = _timed(
        lambda: per_world_engine.run(queries)
    )

    sequential, sequential_seconds = _timed(
        lambda: BatchEngine(graph, seed=BENCH_SEED).run_sequential(queries)
    )

    mc = MonteCarloEstimator(graph, seed=BENCH_SEED)
    _, lazy_seconds = _timed(
        lambda: Estimator.estimate_batch(mc, queries, seed=BENCH_SEED)
    )

    # Exactness: every shared-stream strategy produces identical estimates.
    np.testing.assert_array_equal(batch.estimates, sequential.estimates)
    np.testing.assert_array_equal(batch.estimates, per_world.estimates)

    # The point of the engine: beat the per-query loop at equal K.
    assert batch_seconds < sequential_seconds

    cached, cached_seconds = _timed(lambda: bitset_engine.run(queries))
    np.testing.assert_array_equal(batch.estimates, cached.estimates)
    assert cached.worlds_sampled == 0

    def row(strategy, seconds, worlds):
        return {
            "strategy": strategy,
            "time_s": f"{seconds:.3f}",
            "worlds": str(worlds),
            "speedup_vs_seq": f"{sequential_seconds / seconds:.2f}x",
        }

    emit(
        format_dict_rows(
            f"Batch engine: {len(queries)} queries, K={BATCH_K}, "
            f"{dataset.title} ({BATCH_SCALE}: n={graph.node_count}, "
            f"m={graph.edge_count})",
            [
                row("engine (bitset sweep)", batch_seconds,
                    batch.worlds_sampled),
                row("engine (per-world sweep)", per_world_seconds,
                    per_world.worlds_sampled),
                row("sequential shared-stream loop", sequential_seconds,
                    sequential.worlds_sampled),
                row("lazy MC per-query loop", lazy_seconds,
                    len(queries) * BATCH_K),
                row("engine re-run (cache hits)", cached_seconds, 0),
            ],
            ["strategy", "time_s", "worlds", "speedup_vs_seq"],
            headers=["Strategy", "Time (s)", "Worlds sampled",
                     "Speedup vs sequential"],
        ),
        filename="batch_engine.txt",
    )
    emit(paper_note(
        "sampling cost dominates (§2.2); sharing each sampled world across "
        "the workload is the batch analogue of §3.7's index amortisation"
    ))
    _JSON_PAYLOAD["strategies"] = [
        {"strategy": "bitset", "seconds": batch_seconds},
        {"strategy": "per_world", "seconds": per_world_seconds},
        {"strategy": "sequential", "seconds": sequential_seconds},
        {"strategy": "lazy_mc", "seconds": lazy_seconds},
        {"strategy": "cached_rerun", "seconds": cached_seconds},
    ]
    _write_json()


def test_parallel_scaling():
    """Serial vs parallel chunk evaluation: bit-identical, and faster.

    Fans the same workload out over 1, 2, and 4 worker processes
    (``REPRO_BATCH_WORKERS``).  Equality with the serial sweep is asserted
    unconditionally — it is the engine's determinism contract, and holds
    on any machine.  The >1.5x speedup at 4 workers is asserted only when
    the host actually has >= 4 cores (parallelism cannot be demonstrated
    on fewer), at medium+ scale where per-chunk work dwarfs pool startup.
    """
    dataset = load_dataset(BATCH_DATASET, BATCH_SCALE, BENCH_SEED)
    graph = dataset.graph
    workload = generate_workload(
        graph, pair_count=BATCH_PAIRS, hop_distance=2, seed=BENCH_SEED
    )
    queries = [(source, target, BATCH_K) for source, target in workload]
    # Parallel granularity is the chunk: size the chunks so the largest
    # worker count has several tasks each (results are chunk-independent).
    chunk_size = max(1, BATCH_K // (4 * max(BATCH_WORKERS)))

    reference = None
    rows = []
    scaling = []
    serial_seconds = None
    for workers in BATCH_WORKERS:
        engine = BatchEngine(
            graph, seed=BENCH_SEED, chunk_size=chunk_size, workers=workers
        )
        result, seconds = _timed(lambda: engine.run(queries))
        if reference is None:
            reference = result
            serial_seconds = seconds
        else:
            # The headline guarantee: worker count cannot change a bit.
            np.testing.assert_array_equal(
                reference.estimates, result.estimates
            )
            assert result.sweeps == reference.sweeps
        speedup = serial_seconds / seconds
        rows.append(
            {
                "workers": str(workers),
                "time_s": f"{seconds:.3f}",
                "speedup_vs_serial": f"{speedup:.2f}x",
                "identical": "yes",
            }
        )
        scaling.append(
            {"workers": workers, "seconds": seconds, "speedup": speedup}
        )

    emit(
        format_dict_rows(
            f"Parallel chunk sweep: {len(queries)} queries, K={BATCH_K}, "
            f"chunk={chunk_size}, {dataset.title} ({BATCH_SCALE}), "
            f"{os.cpu_count()} cores",
            rows,
            ["workers", "time_s", "speedup_vs_serial", "identical"],
            headers=["Workers", "Time (s)", "Speedup vs serial",
                     "Bit-identical"],
        ),
        filename="batch_engine.txt",
    )
    emit(paper_note(
        "worlds are index-keyed (world i = f(graph, seed, i)), so the "
        "chunk sweep parallelises with no statistical cost — serial and "
        "parallel runs agree bit-for-bit"
    ))

    _JSON_PAYLOAD["parallel_scaling"] = {
        "chunk_size": chunk_size,
        "rows": scaling,
    }
    _write_json()

    cores = os.cpu_count() or 1
    by_workers = {row["workers"]: row["speedup"] for row in scaling}
    if cores >= 4 and 4 in by_workers and BATCH_SCALE not in ("tiny", "small"):
        assert by_workers[4] > 1.5, (
            f"expected >1.5x at 4 workers on {cores} cores, got "
            f"{by_workers[4]:.2f}x"
        )
    else:
        emit(paper_note(
            f"speedup assertion skipped: {cores} core(s), "
            f"scale={BATCH_SCALE} — need >=4 cores and medium+ scale"
        ))


def test_kernel_comparison():
    """The engine's vectorized fixpoint vs BFS Sharing's reference loop.

    Packs the workload's world chunks once, exactly as the bitset sweep
    does, then runs one fixpoint per (chunk, distinct source) through
    :func:`shared_reachability_fixpoint` (the per-node worklist of the
    paper's Algorithms 2-3) and through
    :func:`shared_fixpoint_vectorized` (frontier-bulk NumPy rounds, the
    only kernel the engine runs).  Bit identity of every ``node_bits``
    matrix is asserted unconditionally — the monotone fixpoint has one
    solution whatever the evaluation schedule (see
    :mod:`repro.engine.kernels`), and ``tests/engine/test_kernels.py``
    pins it property-based.  Timings are recorded, not asserted.
    """
    dataset = load_dataset(BATCH_DATASET, BATCH_SCALE, BENCH_SEED)
    graph = dataset.graph
    workload = generate_workload(
        graph, pair_count=BATCH_PAIRS, hop_distance=2, seed=BENCH_SEED
    )
    sources = sorted({source for source, _ in workload})
    engine = BatchEngine(graph, seed=BENCH_SEED)
    chunks = []
    for start in range(0, BATCH_K, engine.chunk_size):
        count = min(engine.chunk_size, BATCH_K - start)
        chunks.append(
            (bitset.pack_bool_matrix(engine.world_masks(start, count)), count)
        )

    rows = []
    node_bits = {}
    for name, fixpoint in (
        ("python", shared_reachability_fixpoint),
        ("vectorized", shared_fixpoint_vectorized),
    ):
        node_bits[name], seconds = _timed(
            lambda: [
                fixpoint(graph, edge_bits, source, count)[0]
                for edge_bits, count in chunks
                for source in sources
            ]
        )
        rows.append({
            "kernel": name,
            "fixpoints": len(node_bits[name]),
            "seconds": seconds,
        })
    for reference, vectorized in zip(
        node_bits["python"], node_bits["vectorized"]
    ):
        np.testing.assert_array_equal(vectorized, reference)
    speedup = rows[0]["seconds"] / max(rows[1]["seconds"], 1e-12)

    emit(
        format_dict_rows(
            f"Fixpoint kernels: {len(sources)} sources x {len(chunks)} "
            f"chunks, K={BATCH_K}, {dataset.title} ({BATCH_SCALE})",
            [
                {
                    "kernel": row["kernel"],
                    "fixpoints": row["fixpoints"],
                    "time_s": f"{row['seconds']:.3f}",
                    "identical": "yes",
                }
                for row in rows
            ],
            ["kernel", "fixpoints", "time_s", "identical"],
            headers=["Kernel", "Fixpoints", "Time (s)", "Bit-identical"],
        ),
        filename="batch_engine.txt",
    )
    emit(paper_note(
        f"vectorized fixpoint {speedup:.2f}x the per-node worklist; the "
        "reachability fixpoint is monotone over a finite lattice, so both "
        "converge to the same bits"
    ))
    _JSON_PAYLOAD["kernels"] = {
        "rows": rows, "speedup": speedup, "bit_identical": True,
    }
    _write_json()


def test_estimator_fast_paths():
    """PR-3 fast paths: bfs_sharing / prob_tree batches vs per-query loops.

    The BFS-Sharing loop runs in the paper-faithful independent setting
    (``refresh_per_query=True``, Table 15): every query re-samples its
    O(Km) index, which is exactly the cost the engine-chunk fast path
    amortises away — one shared world stream serves the whole workload,
    bit-identically to the ``mc`` fast path.  ProbTree's fast path lifts
    one query graph per (s, t) bag pair and answers each group with an
    inner shared-world batch; its loop re-runs Alg. 8 per query.  The
    workload queries every pair twice — the repetition served traffic
    exhibits and the exact engine cache turns into free hits.
    """
    dataset = load_dataset(BATCH_DATASET, BATCH_SCALE, BENCH_SEED)
    graph = dataset.graph
    workload = generate_workload(
        graph, pair_count=BATCH_PAIRS, hop_distance=2, seed=BENCH_SEED
    )
    queries = [(s, t, BATCH_K) for s, t in workload] * 2

    bfs = BFSSharingEstimator(graph, seed=BENCH_SEED)
    bfs_fast, bfs_fast_seconds = _timed(
        lambda: bfs.estimate_batch(queries, seed=BENCH_SEED)
    )
    engine_reference = BatchEngine(graph, seed=BENCH_SEED).run(queries)
    np.testing.assert_array_equal(bfs_fast, engine_reference.estimates)

    bfs_loop = BFSSharingEstimator(
        graph, seed=BENCH_SEED, refresh_per_query=True
    )
    bfs_loop.prepare()
    _, bfs_loop_seconds = _timed(
        lambda: Estimator.estimate_batch(bfs_loop, queries, seed=BENCH_SEED)
    )
    assert bfs_fast_seconds < bfs_loop_seconds

    prob_tree = ProbTreeEstimator(graph, seed=BENCH_SEED)
    prob_tree.prepare()
    pt_fast, pt_fast_seconds = _timed(
        lambda: prob_tree.estimate_batch(queries, seed=BENCH_SEED)
    )
    _, pt_loop_seconds = _timed(
        lambda: Estimator.estimate_batch(prob_tree, queries, seed=BENCH_SEED)
    )
    assert ((pt_fast >= 0.0) & (pt_fast <= 1.0)).all()

    def row(strategy, seconds, baseline):
        return {
            "strategy": strategy,
            "time_s": f"{seconds:.3f}",
            "speedup_vs_loop": f"{baseline / seconds:.2f}x",
        }

    emit(
        format_dict_rows(
            f"Estimator batch fast paths: {len(queries)} queries "
            f"(each pair twice), K={BATCH_K}, {dataset.title} "
            f"({BATCH_SCALE})",
            [
                row("bfs_sharing fast path (engine chunks)",
                    bfs_fast_seconds, bfs_loop_seconds),
                row("bfs_sharing per-query loop (refreshed index)",
                    bfs_loop_seconds, bfs_loop_seconds),
                row("prob_tree fast path (bag-grouped lifts)",
                    pt_fast_seconds, pt_loop_seconds),
                row("prob_tree per-query loop",
                    pt_loop_seconds, pt_loop_seconds),
            ],
            ["strategy", "time_s", "speedup_vs_loop"],
            headers=["Strategy", "Time (s)", "Speedup vs its loop"],
        ),
        filename="batch_engine.txt",
    )
    emit(paper_note(
        "a BFS-Sharing index is a transposed engine world chunk (§2.3), "
        "and ProbTree queries sharing a bag pair share one lifted graph "
        "(§2.7) — both fast paths are the paper's own index reuse, "
        "applied at workload granularity"
    ))
    _JSON_PAYLOAD["estimator_fast_paths"] = {
        "queries": len(queries),
        "bfs_sharing": {
            "fast_seconds": bfs_fast_seconds,
            "loop_seconds": bfs_loop_seconds,
            "speedup": bfs_loop_seconds / bfs_fast_seconds,
        },
        "prob_tree": {
            "fast_seconds": pt_fast_seconds,
            "loop_seconds": pt_loop_seconds,
            "speedup": pt_loop_seconds / pt_fast_seconds,
        },
    }
    _write_json()


def test_persistent_cache_warm_vs_cold():
    """The sidecar across engine lifetimes: warm run samples zero worlds.

    Two engines share nothing but ``cache_dir`` — the same isolation two
    processes would have (the genuinely cross-process version lives in
    ``tests/integration/test_persistent_cache_cli.py``).  The cold run
    pays the full sampling bill and writes the sidecar; the warm run must
    answer bit-identically from disk without materialising a single
    world.
    """
    dataset = load_dataset(BATCH_DATASET, BATCH_SCALE, BENCH_SEED)
    graph = dataset.graph
    workload = generate_workload(
        graph, pair_count=BATCH_PAIRS, hop_distance=2, seed=BENCH_SEED
    )
    queries = [(s, t, BATCH_K) for s, t in workload]

    with tempfile.TemporaryDirectory() as cache_dir:
        cold_engine = BatchEngine(graph, seed=BENCH_SEED, cache_dir=cache_dir)
        cold, cold_seconds = _timed(lambda: cold_engine.run(queries))
        cold_engine.cache.close()

        warm_engine = BatchEngine(graph, seed=BENCH_SEED, cache_dir=cache_dir)
        warm, warm_seconds = _timed(lambda: warm_engine.run(queries))
        statistics = warm_engine.cache.statistics()
        warm_engine.cache.close()

    np.testing.assert_array_equal(cold.estimates, warm.estimates)
    assert warm.worlds_sampled == 0
    assert statistics["disk_hits"] == warm.cache_hits
    assert warm_seconds < cold_seconds

    emit(
        format_dict_rows(
            f"Persistent result cache: {len(queries)} queries, "
            f"K={BATCH_K}, {dataset.title} ({BATCH_SCALE})",
            [
                {
                    "run": "cold (populates sidecar)",
                    "time_s": f"{cold_seconds:.3f}",
                    "worlds": str(cold.worlds_sampled),
                    "disk_hits": "0",
                },
                {
                    "run": "warm (fresh engine, same sidecar)",
                    "time_s": f"{warm_seconds:.3f}",
                    "worlds": str(warm.worlds_sampled),
                    "disk_hits": str(statistics["disk_hits"]),
                },
            ],
            ["run", "time_s", "worlds", "disk_hits"],
            headers=["Run", "Time (s)", "Worlds sampled", "Disk hits"],
        ),
        filename="batch_engine.txt",
    )
    emit(paper_note(
        "an estimate is a pure function of (graph fingerprint, s, t, K, "
        "seed, max_hops), so persisting it is exact — the warm run "
        "replays the cold run's numbers without sampling (§2.2's cost "
        "model, taken past process lifetime)"
    ))
    _JSON_PAYLOAD["persistent_cache"] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "disk_hits": statistics["disk_hits"],
        "warm_worlds_sampled": warm.worlds_sampled,
    }
    _write_json()
