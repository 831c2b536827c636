"""Stateful property test of the persistent worker pool.

Hypothesis drives one 2-worker persistent :class:`ParallelExecutor`
through random sequences of dispatches (under a new or an already-known
context token), evictions, SIGKILLs of one worker, and ``close()``
(after which the run goes on with a fresh executor).
Every buffer rides shared memory (``SHM_MIN_BYTES`` = 1), so segment
ownership is exercised on every step.  Invariants:

* every dispatch returns exactly what the serial map returns;
* each worker's registry holds exactly the coordinator's
  ``installed_tokens`` (eviction and crash recovery never let the two
  views drift apart);
* after ``close()`` every worker pid the executor ever reported is gone,
  and no ``/dev/shm`` segment is named under one of them.

No timing is asserted: a killed worker is healed by the next call,
whether the death is noticed between calls or in flight.

One directed case rides along: the watchdog must also cover a *send*
to a hung idle worker, which never drains its socket.
"""

import os
import signal

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.runtime import ParallelExecutor, new_context_token
from repro.runtime import wire


def _scale(context, task):
    return context * task


def _segments_of(pids) -> list[str]:
    prefixes = tuple(f"repro_{pid}_" for pid in pids)
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return [name for name in names if name.startswith(prefixes)]


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class ExecutorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.saved_threshold = wire.SHM_MIN_BYTES
        wire.SHM_MIN_BYTES = 1
        self.executor = ParallelExecutor(2, persistent=True)
        self.contexts: dict = {}  # token -> its (fixed) context
        self.seen_pids: set[int] = set()

    def teardown(self):
        try:
            self._close_and_check()
        finally:
            wire.SHM_MIN_BYTES = self.saved_threshold

    def _note_pids(self):
        self.seen_pids.update(self.executor.worker_pids)

    def _close_and_check(self):
        self._note_pids()
        self.executor.close()
        assert self.executor.worker_pids == ()
        assert self.executor.installed_tokens == frozenset()
        assert all(_gone(pid) for pid in self.seen_pids)
        assert _segments_of(self.seen_pids) == []

    @rule(
        reuse=st.booleans(),
        choice=st.integers(min_value=0, max_value=99),
        factor=st.integers(min_value=-3, max_value=3),
        tasks=st.lists(
            st.lists(st.integers(-100, 100), min_size=1, max_size=4),
            min_size=2,
            max_size=5,
        ),
    )
    def dispatch(self, reuse, choice, factor, tasks):
        if reuse and self.contexts:
            token = sorted(self.contexts, key=repr)[choice % len(self.contexts)]
        else:
            token = new_context_token()
            self.contexts[token] = np.array([factor], dtype=np.int64)
        context = self.contexts[token]
        arrays = [np.array(task, dtype=np.int64) for task in tasks]
        results = self.executor.map_shards(_scale, context, arrays, token=token)
        expected = [_scale(context, task) for task in arrays]
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)
        assert token in self.executor.installed_tokens
        self._note_pids()

    @precondition(lambda self: self.contexts)
    @rule(choice=st.integers(min_value=0, max_value=99))
    def evict(self, choice):
        token = sorted(self.contexts, key=repr)[choice % len(self.contexts)]
        was_installed = token in self.executor.installed_tokens
        assert self.executor.evict(token) == was_installed
        assert token not in self.executor.installed_tokens

    @precondition(lambda self: self.executor.worker_pids)
    @rule(which=st.integers(min_value=0, max_value=1))
    def kill_one_worker(self, which):
        self._note_pids()
        os.kill(self.executor.worker_pids[which], signal.SIGKILL)

    @rule()
    def close(self):
        self._close_and_check()
        self.executor = ParallelExecutor(2, persistent=True)
        self.contexts.clear()
        self.seen_pids.clear()

    @invariant()
    def workers_hold_exactly_the_installed_tokens(self):
        expected = sorted(repr(token) for token in self.executor.installed_tokens)
        for stats in self.executor.worker_stats():
            assert stats["pid"] in self.executor.worker_pids
            assert stats["tokens"] == expected


TestExecutorMachine = ExecutorMachine.TestCase
TestExecutorMachine.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None
)


def _total(context, task):
    return float(task.sum())


def test_watchdog_covers_a_send_to_a_stopped_idle_worker(monkeypatch):
    # Inline (non-shm) tasks larger than a socket buffer: sending one to a
    # SIGSTOPped worker blocks until the send timeout, never forever.
    monkeypatch.setattr(wire, "SHM_MIN_BYTES", 1 << 30)
    with ParallelExecutor(2, persistent=True, dispatch_timeout=0.5) as executor:
        executor.map_shards(_total, None, [np.ones(4), np.ones(4)], token="t")
        os.kill(executor.worker_pids[0], signal.SIGSTOP)
        tasks = [np.ones(80_000) for _ in range(3)]
        assert executor.map_shards(_total, None, tasks, token="t") == [80_000.0] * 3
        assert executor.timeouts >= 1
