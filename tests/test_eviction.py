"""Bounded caches and crash recovery: the server-grade runtime contract.

Four load-bearing claims, each pinned here:

1. **Eviction reaches the workers** — :meth:`ParallelExecutor.evict`
   removes a token from the coordinator *and* from every pool worker's
   registry (asserted via worker-side stats, not coordinator counters).
2. **LRU order + byte budget** — a bounded :class:`repro.api.Session`
   evicts the least recently *used* entry, and ``max_bytes`` accounts
   the pickled context size.
3. **Evict-then-reuse recompiles exactly once** — eviction trades
   memory for recompute, deterministically: same results, one extra
   compile, one extra context shipment.
4. **Crash recovery** — a pool worker killed between calls is healed by
   a transparent re-install/retry; callers never see an error, and
   :class:`WorkerCrashError` (with token and shard index) appears only
   when recovery is exhausted.
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import c17, simple_alu
from repro.manufacturing.process import ProcessRecipe
from repro.runtime import ParallelExecutor, WorkerCrashError, new_context_token


def _double(context, task):
    return [context * value for value in task]


def _slow_double(context, task):
    time.sleep(context)
    return [2 * value for value in task]


def _exited(pid):
    """Whether child ``pid`` has exited; leaves it for its parent to reap."""
    try:
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, pid, flags) is not None
    except ChildProcessError:
        return True


# ------------------------------------------------------------- executor


class TestExecutorEviction:
    def test_evict_reaches_every_worker(self):
        with ParallelExecutor(2, persistent=True) as executor:
            token_a, token_b = new_context_token(), new_context_token()
            executor.map_shards(_double, 2, [[1], [2]], token=token_a)
            executor.map_shards(_double, 3, [[1], [2]], token=token_b)
            for stats in executor.worker_stats():
                assert stats["resident_contexts"] == 2
            assert executor.evict(token_a)
            for stats in executor.worker_stats():
                assert stats["resident_contexts"] == 1
                assert stats["tokens"] == [repr(token_b)]
            assert executor.contexts_evicted == 1
            assert token_a not in executor.installed_tokens

    def test_evicted_token_reships_on_reuse(self):
        with ParallelExecutor(2, persistent=True) as executor:
            token = new_context_token()
            executor.map_shards(_double, 2, [[1], [2]], token=token)
            shipped = executor.contexts_shipped
            executor.evict(token)
            result = executor.map_shards(_double, 2, [[3], [4]], token=token)
            assert result == [[6], [8]]
            assert executor.contexts_shipped == shipped + 1

    def test_evict_unknown_token_is_noop(self):
        with ParallelExecutor(2, persistent=True) as executor:
            assert not executor.evict(new_context_token())
            assert executor.contexts_evicted == 0

    def test_serial_executor_has_no_worker_stats(self):
        with ParallelExecutor(1, persistent=True) as executor:
            executor.map_shards(_double, 2, [[1]])
            assert executor.worker_stats() == []


class TestCrashRecovery:
    def _kill_all_workers(self, executor):
        pids = executor.worker_pids
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        # Wait for the killed workers to exit (without reaping them, which
        # is the executor's job) so the between-calls heal path (not an
        # in-flight crash) is what we exercise.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if all(_exited(pid) for pid in pids):
                return
            time.sleep(0.05)
        pytest.fail("pool workers did not exit in time")

    def test_transparent_reinstall_after_worker_crash(self):
        with ParallelExecutor(2, persistent=True) as executor:
            token = new_context_token()
            before = executor.map_shards(_double, 2, [[1], [2]], token=token)
            self._kill_all_workers(executor)
            after = executor.map_shards(_double, 2, [[1], [2]], token=token)
            assert after == before == [[2], [4]]
            assert executor.worker_recoveries == 1
            # The healed workers really hold the context again.
            for stats in executor.worker_stats():
                assert repr(token) in stats["tokens"]

    def test_in_flight_crash_detected_and_retried(self):
        # A plain pool.map would hang forever on a task that died with
        # its worker; the liveness poll must turn it into a transparent
        # rebuild + retry instead.
        with ParallelExecutor(2, persistent=True) as executor:
            token = new_context_token()
            executor.map_shards(_double, 2, [[1], [2]], token=token)
            victim = executor.worker_pids[0]
            killer = threading.Timer(
                0.7, lambda: os.kill(victim, signal.SIGKILL)
            )
            killer.start()
            try:
                slow_token = new_context_token()
                result = executor.map_shards(
                    _slow_double, 2.0, [[1], [2]], token=slow_token
                )
            finally:
                killer.cancel()
            assert result == [[2], [4]]
            assert executor.worker_recoveries >= 1

    def test_worker_crash_error_carries_location_through_pickle(self):
        error = WorkerCrashError("context missing", token=("ctx", 7), shard_index=3)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, WorkerCrashError)
        assert clone.token == ("ctx", 7)
        assert clone.shard_index == 3
        assert "context missing" in str(clone)


# -------------------------------------------------------------- session


@pytest.fixture(scope="module")
def chip_a():
    return c17()


@pytest.fixture(scope="module")
def chip_b():
    return simple_alu(2)


@pytest.fixture(scope="module")
def recipe():
    return ProcessRecipe(
        defect_density=3.0, clustering=0.5, mean_defect_radius=0.15
    )


class TestSessionLRU:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="max_contexts"):
            Session(workers=1, max_contexts=0)
        with pytest.raises(ValueError, match="max_bytes"):
            Session(workers=1, max_bytes=-5)

    def test_lru_evicts_least_recently_used(self, chip_a, chip_b):
        with Session(workers=1, max_contexts=2) as session:
            session.build_program(chip_a, random_patterns(chip_a, 8, seed=1))
            session.build_program(chip_b, random_patterns(chip_b, 8, seed=1))
            # Touch A so B is now the coldest entry.
            session.build_program(chip_a, random_patterns(chip_a, 8, seed=2))
            assert session.stats()["engine_compiles"] == 2
            chip_c = simple_alu(3)
            session.build_program(chip_c, random_patterns(chip_c, 8, seed=1))
            assert session._cached_engine(chip_a) is not None
            assert session._cached_engine(chip_b) is None
            assert session._cached_engine(chip_c) is not None
            assert session.stats()["evictions"] == 1

    def test_byte_budget_accounts_pickled_context_size(self, chip_a, chip_b):
        with Session(workers=1, max_bytes=1) as session:
            session.build_program(chip_a, random_patterns(chip_a, 8, seed=1))
            entry_a = next(iter(session._contexts.values()))
            assert entry_a.nbytes > 0
            assert session.stats()["resident_bytes"] == entry_a.nbytes
            # One entry over budget survives (most recent is never
            # evicted); the next insert displaces it.
            session.build_program(chip_b, random_patterns(chip_b, 8, seed=1))
            stats = session.stats()
            assert stats["cached_netlists"] == 1
            assert stats["evictions"] == 1
            assert session._cached_engine(chip_a) is None
            entry_b = next(iter(session._contexts.values()))
            assert stats["resident_bytes"] == entry_b.nbytes

    def test_evict_then_reuse_recompiles_exactly_once(self, chip_a, chip_b):
        with Session(workers=1, max_contexts=1) as session:
            patterns_a = random_patterns(chip_a, 8, seed=1)
            first = session.build_program(chip_a, patterns_a)
            assert session.stats()["engine_compiles"] == 1
            session.build_program(chip_a, patterns_a)
            assert session.stats()["engine_compiles"] == 1  # cache hit
            session.build_program(chip_b, random_patterns(chip_b, 8, seed=1))
            assert session.stats()["engine_compiles"] == 2  # A evicted
            again = session.build_program(chip_a, patterns_a)
            assert session.stats()["engine_compiles"] == 3  # exactly one recompile
            np.testing.assert_array_equal(
                first.coverage_curve, again.coverage_curve
            )

    def test_eviction_reaches_pool_workers(self, chip_a, chip_b):
        with Session(workers=2, max_contexts=1) as session:
            session.build_program(chip_a, random_patterns(chip_a, 16, seed=1))
            shipped = session.stats()["contexts_shipped"]
            assert shipped == 1
            session.build_program(chip_b, random_patterns(chip_b, 16, seed=1))
            stats = session.stats()
            assert stats["contexts_shipped"] == shipped + 1
            assert stats["contexts_evicted"] == 1
            # Worker-side ground truth: exactly one resident context —
            # the eviction broadcast actually reached the processes.
            for worker in session.executor.worker_stats():
                assert worker["resident_contexts"] == 1

    def test_fab_contexts_respect_lru(self, chip_a):
        recipes = [
            ProcessRecipe(
                defect_density=d, clustering=0.5, mean_defect_radius=0.15
            )
            for d in (2.0, 3.0, 4.0)
        ]
        with Session(workers=2, max_contexts=1) as session:
            for recipe in recipes:
                session.fabricate(chip_a, recipe, 8, dies_per_wafer=4, seed=1)
            stats = session.stats()
            assert stats["cached_fab_contexts"] == 1
            assert stats["evictions"] == 2
            # The budget bounds worker-resident fabrication contexts too.
            for worker in session.executor.worker_stats():
                assert worker["resident_contexts"] == 1

    def test_eviction_keeps_results_bit_identical(self, chip_a, chip_b, recipe):
        patterns_a = random_patterns(chip_a, 24, seed=5)
        with Session(workers=1) as unbounded:
            lot = unbounded.fabricate(chip_a, recipe, 12, dies_per_wafer=4, seed=3)
            reference_program = unbounded.build_program(chip_a, patterns_a)
            reference = unbounded.test(lot, reference_program)
        with Session(workers=1, max_contexts=1) as bounded:
            lot = bounded.fabricate(chip_a, recipe, 12, dies_per_wafer=4, seed=3)
            program = bounded.build_program(chip_a, patterns_a)
            # Force the A contexts out and back in mid-pipeline.
            bounded.build_program(chip_b, random_patterns(chip_b, 8, seed=1))
            result = bounded.test(lot, program)
        assert result.records == reference.records
        np.testing.assert_array_equal(
            program.coverage_curve, reference_program.coverage_curve
        )

    def test_session_heals_crashed_pool_worker(self, chip_a, recipe):
        patterns = random_patterns(chip_a, 24, seed=5)
        with Session(workers=2) as session:
            lot = session.fabricate(chip_a, recipe, 16, dies_per_wafer=4, seed=3)
            program = session.build_program(chip_a, patterns)
            before = session.test(lot, program)
            TestCrashRecovery()._kill_all_workers(session.executor)
            after = session.test(lot, program)
            assert after.records == before.records
            assert session.stats()["worker_recoveries"] >= 1
