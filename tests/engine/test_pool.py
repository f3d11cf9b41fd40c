"""Lifecycle and conformance tests for the shared worker pool.

The pool is an *accelerator*, never a correctness dependency: every test
here pins either a lifecycle transition (lazy start, respawn after a
worker crash, idempotent close, graph-update rejection) or the bit-for-bit
agreement between pooled and in-process evaluation that the engine's
determinism contract promises.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.engine.batch import BatchEngine
from repro.engine.pool import (
    POOL_ENV_VAR,
    PoolClosedError,
    WorkerPool,
    close_shared_pools,
    pool_enabled,
    shared_pool,
)
from tests.conftest import random_graph

WORKLOAD = [
    (0, 3, 400),
    (0, 5, 400),
    (1, 4, 250),
    (2, 6, 300),
    (0, 3, 400, 2),
    (5, 2, 150),
]


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


@pytest.fixture
def pool(graph):
    with WorkerPool(graph, workers=2) as pool:
        yield pool


def run_pooled(graph, pool, **kwargs):
    engine = BatchEngine(
        graph, seed=5, chunk_size=64, workers=2, pool=pool, **kwargs
    )
    return engine.run(WORKLOAD)


class TestConformance:
    def test_pooled_run_bit_identical_to_serial(self, graph, pool):
        serial = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        pooled = run_pooled(graph, pool)
        np.testing.assert_array_equal(pooled.estimates, serial.estimates)
        assert pooled.sweeps == serial.sweeps
        assert pooled.worlds_sampled == serial.worlds_sampled

    def test_pool_is_reused_across_runs(self, graph, pool):
        first = run_pooled(graph, pool)
        pids = set(pool.worker_pids())
        second = run_pooled(graph, pool)
        np.testing.assert_array_equal(first.estimates, second.estimates)
        # Same workers served both runs: no per-request forking.
        assert set(pool.worker_pids()) == pids
        assert pool.statistics()["runs"] == 2

    def test_pooled_vectorized_kernels_conform(self, graph, pool):
        # Pooled workers run the vectorized sweep; the per-node Python
        # walk over the same world stream is the oracle.
        oracle = BatchEngine(graph, seed=5).run_sequential(WORKLOAD)
        pooled = run_pooled(graph, pool)
        np.testing.assert_array_equal(pooled.estimates, oracle.estimates)


class TestLifecycle:
    def test_lazy_start(self, graph):
        pool = WorkerPool(graph, workers=2)
        assert not pool.started
        assert pool.worker_pids() == ()
        assert pool.healthy()
        assert pool.started
        pool.close()

    def test_crashed_worker_respawn(self, graph, pool):
        baseline = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        assert pool.healthy()
        for pid in pool.worker_pids():
            os.kill(pid, signal.SIGKILL)
        # The dead workers surface as BrokenProcessPool on the next run;
        # the pool must re-fork and retry it transparently.
        pooled = run_pooled(graph, pool)
        np.testing.assert_array_equal(pooled.estimates, baseline.estimates)
        stats = pool.statistics()
        assert stats["respawns"] >= 1
        assert pool.healthy()

    def test_close_is_idempotent(self, graph):
        pool = WorkerPool(graph, workers=2)
        assert pool.healthy()
        pool.close()
        pool.close()
        assert pool.closed
        assert not pool.started

    def test_closed_pool_raises_and_engine_falls_back(self, graph):
        pool = WorkerPool(graph, workers=2)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.evaluate(
                BatchEngine(graph, seed=5), [(0, 1)], (), np.zeros(0, bool), 0
            )
        # The engine treats the closed pool as "no pool": the run still
        # completes (per-run fork path) with bit-identical results.
        serial = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        fallback = run_pooled(graph, pool)
        np.testing.assert_array_equal(fallback.estimates, serial.estimates)

    def test_graph_update_rejected(self, graph, pool):
        other = random_graph(seed=12, node_count=12, edge_probability=0.25)
        engine = BatchEngine(other, seed=5, chunk_size=64, workers=2, pool=pool)
        with pytest.raises(ValueError, match="does not match this pool"):
            engine.run(WORKLOAD)

    def test_healthy_false_after_close(self, graph):
        pool = WorkerPool(graph, workers=2)
        pool.close()
        assert not pool.healthy(timeout=5.0)

    def test_context_manager_closes(self, graph):
        with WorkerPool(graph, workers=1) as pool:
            assert pool.healthy()
        assert pool.closed


class TestSharedRegistry:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        close_shared_pools()
        yield
        close_shared_pools()

    def test_pool_enabled_env(self, monkeypatch):
        monkeypatch.delenv(POOL_ENV_VAR, raising=False)
        assert not pool_enabled()
        for value in ("1", "true", "YES", "on"):
            monkeypatch.setenv(POOL_ENV_VAR, value)
            assert pool_enabled()
        monkeypatch.setenv(POOL_ENV_VAR, "0")
        assert not pool_enabled()

    def test_same_graph_shares_one_pool(self, graph):
        first = shared_pool(graph, workers=2)
        second = shared_pool(graph, workers=4)
        assert first is second  # first-seen worker count wins

    def test_distinct_graphs_get_distinct_pools(self, graph):
        other = random_graph(seed=12, node_count=12, edge_probability=0.25)
        assert shared_pool(graph, 1) is not shared_pool(other, 1)

    def test_closed_registry_pool_is_replaced(self, graph):
        first = shared_pool(graph, workers=1)
        first.close()
        second = shared_pool(graph, workers=1)
        assert second is not first
        assert not second.closed

    def test_env_var_routes_engine_runs_through_registry(
        self, graph, monkeypatch
    ):
        monkeypatch.setenv(POOL_ENV_VAR, "1")
        serial = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        pooled = BatchEngine(graph, seed=5, chunk_size=64, workers=2).run(
            WORKLOAD
        )
        np.testing.assert_array_equal(pooled.estimates, serial.estimates)
        registry_pool = shared_pool(graph, workers=2)
        assert registry_pool.statistics()["runs"] >= 1


class TestRespawnTiming:
    def test_respawn_does_not_leak_old_workers(self, graph):
        with WorkerPool(graph, workers=2) as pool:
            assert pool.healthy()
            old_pids = set(pool.worker_pids())
            for pid in old_pids:
                os.kill(pid, signal.SIGKILL)
            run_pooled(graph, pool)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                alive = {pid for pid in old_pids if _process_alive(pid)}
                if not alive:
                    break
                time.sleep(0.05)
            assert not alive, f"old workers still alive: {alive}"


def _process_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Reaped zombies raise ProcessLookupError; an unreaped child is
    # "alive" only until the executor joins it, which close() guarantees.
    return True
