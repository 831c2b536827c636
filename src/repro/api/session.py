"""The :class:`Session` facade: persistent pools + compile-once caches.

A session is the long-lived runtime object the ROADMAP's service
direction calls for: one object owns the execution policy (engine name,
worker count), a **persistent** :class:`~repro.runtime.ParallelExecutor`
pool, and per-netlist caches of compiled simulation engines, so many
cheap requests — fabricate a lot, build a program, test a lot, run an
experiment — amortize one expensive setup:

* the process pool is forked once per session, not once per call;
* each compiled context (batch circuit + packed pattern blocks, or a
  pre-built wafer layout) is pickled into the workers once per session,
  keyed by a context token, instead of once per call;
* a netlist seen twice compiles once — ``build_program`` and ``test``
  share the session's per-netlist engine cache.

``Session(workers=1)`` is a zero-overhead serial facade (no pool is ever
created), which is what :func:`resolve_session` builds for a caller
that passes no session.

Bounded caches
--------------

Plain sessions keep every compiled context resident until
:meth:`Session.close` — fine for a script, unbounded for the long-lived
:mod:`repro.server` process.  ``max_contexts`` / ``max_bytes`` turn the
caches into a server-grade LRU: engine, tester, and fabrication-context
entries are tracked in least-recently-used order (with their context's
pickled size when a byte budget is set), and inserting past either
budget evicts the coldest entries — dropping them from the coordinator
*and* broadcasting the eviction to the pool workers
(:meth:`~repro.runtime.ParallelExecutor.evict`), so the worker-resident
compiled arrays are actually released.  An evicted netlist seen again
simply recompiles and re-ships once; results are unaffected — eviction
changes *where bytes live*, never what is computed.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.circuit.netlist import Netlist
from repro.faults.fault_sim import engine_context_token
from repro.manufacturing.lot import (
    FabricatedLot,
    _cached_fab_context,
    fabricate_lot,
)
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import FabricatedChip
from repro.runtime import ParallelExecutor, resolve_workers
from repro.simulator import ENGINES, Engine, make_engine
from repro.simulator.kernels import autotune as kernel_autotune
from repro.tester.program import TestProgram
from repro.tester.results import LotTestResult
from repro.tester.tester import WaferTester

__all__ = ["Session", "aggregate_stats", "resolve_session"]


def aggregate_stats(stats_dicts: Iterable[dict[str, int]]) -> dict[str, int]:
    """Key-wise sum of :meth:`Session.stats` dicts across many sessions.

    Every ``Session.stats()`` value is a summable integer counter or
    gauge, so a fleet of sessions (the gateway's scheduler, a test
    harness pool) aggregates by plain addition — including sessions that
    have since closed, whose final stats were snapshotted.  Keys absent
    from some dicts (older snapshots) simply contribute nothing.
    """
    total: dict[str, int] = {}
    for stats in stats_dicts:
        for key, value in stats.items():
            total[key] = total.get(key, 0) + value
    return total


def _payload_nbytes(obj: Any) -> int:
    """Approximate context size as its pickled length.

    This is exactly the byte count that travels to a pool worker when
    the context ships, which makes it the honest unit for a
    ``max_bytes`` budget.  Unpicklable objects (none in this codebase's
    hot path) account as zero rather than failing the cache.
    """
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


@dataclass
class _CacheEntry:
    """One LRU slot: a compiled engine, tester, or fabrication context."""

    kind: str  # "engine" | "tester" | "fab"
    obj: Any
    token: Hashable
    nbytes: int
    # Testers are keyed by id(program); the anchor pins the program so
    # the id stays stable (and correct) for the entry's lifetime.
    anchor: Any = field(default=None, repr=False)
    # Engines and fab contexts: the netlist revision they were built at.
    revision: int | None = None


class Session:
    """Unified entry point for the fab-test-estimate pipeline.

    Parameters
    ----------
    engine:
        Fault-simulation engine name for everything the session runs:
        ``"batch"`` (default), ``"batch-jit"``, ``"batch-gpu"`` or
        ``"auto"`` — the kernel backend (see
        :data:`repro.simulator.ENGINES`).
    workers:
        Worker processes for the sharded stages: an integer, ``"auto"``
        (one per visible CPU, the default), or ``1`` for a fully serial
        session that never forks.
    max_contexts:
        Upper bound on resident compiled contexts (engines + testers),
        LRU-evicted.  ``None`` (default) means unbounded — the
        pre-server behavior.
    max_bytes:
        Upper bound on the summed pickled size of resident contexts,
        LRU-evicted.  The most recently used entry is never evicted, so
        a single context larger than the budget still works (and is
        evicted as soon as something else displaces it).
    dispatch_timeout:
        Watchdog deadline in seconds for each pool dispatch — the
        defense against *hung* (not dead) workers; see
        :class:`~repro.runtime.WorkerTimeoutError`.  ``None`` (default)
        reads ``REPRO_DISPATCH_TIMEOUT``; unset/<=0 disables the
        watchdog.

    Contracts
    ---------
    **Compile-once.**  A netlist is compiled at most once between
    evictions; repeated ``build_program`` / ``test`` calls reuse the
    compiled arrays, and a persistent pool receives each compiled
    context exactly once per residency (token-keyed shipping — see
    :meth:`~repro.runtime.ParallelExecutor.map_shards`).

    **Determinism.**  Results are bit-identical across engines, worker
    counts, pool lifecycles, and evictions: the session changes *where*
    the work runs and *which bytes stay resident*, never what is
    computed.

    **Lifecycle.**  Sessions are context managers; :meth:`close` tears
    down the worker pool and drops the caches, and any later call
    raises ``RuntimeError``.  A crashed pool worker is healed
    transparently (the executor re-ships the affected context and
    retries); see :class:`~repro.runtime.WorkerCrashError`.
    """

    def __init__(
        self,
        engine: str = "batch",
        workers: int | str = "auto",
        max_contexts: int | None = None,
        max_bytes: int | None = None,
        dispatch_timeout: float | None = None,
    ):
        self.engine = engine
        self.num_workers = self.check_args(engine, workers, max_contexts, max_bytes)
        self.max_contexts = max_contexts
        self.max_bytes = max_bytes
        self._executor = ParallelExecutor(
            self.num_workers,
            persistent=True,
            dispatch_timeout=dispatch_timeout,
        )
        # One LRU over both cache kinds: keys are ("engine", netlist)
        # and ("tester", id(program)); most recently used at the end.
        self._contexts: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._resident_bytes = 0
        self._engine_compiles = 0
        self._evictions = 0
        self._closed = False

    @staticmethod
    def check_args(engine: str, workers, max_contexts=None, max_bytes=None) -> int:
        """The constructor's argument checks (and resolved worker count), run alone."""
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
            )
        for name, bound in (("max_contexts", max_contexts), ("max_bytes", max_bytes)):
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, int) or bound < 1
            ):
                raise ValueError(f"{name} must be a positive integer or None, got {bound!r}")
        return resolve_workers(workers)

    # ------------------------------------------------------------ lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def executor(self) -> ParallelExecutor:
        """The session's persistent executor (for runtime-level callers)."""
        return self._executor

    def close(self) -> None:
        """Tear down the worker pool and drop the caches (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.close()
        self._contexts.clear()
        self._resident_bytes = 0

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # --------------------------------------------------------------- caches

    def _touch(self, key: tuple) -> _CacheEntry | None:
        """Look up an LRU entry, marking it most recently used."""
        entry = self._contexts.get(key)
        if entry is not None:
            self._contexts.move_to_end(key)
        return entry

    def _insert(self, key: tuple, entry: _CacheEntry) -> None:
        """Insert an entry as most recently used and enforce the budgets."""
        self._contexts[key] = entry
        self._contexts.move_to_end(key)
        self._resident_bytes += entry.nbytes
        while len(self._contexts) > 1 and (
            (self.max_contexts is not None and len(self._contexts) > self.max_contexts)
            or (self.max_bytes is not None and self._resident_bytes > self.max_bytes)
        ):
            self._evict_oldest()

    def _evict_oldest(self) -> None:
        """Evict the LRU entry — coordinator dict *and* pool workers."""
        self._drop(next(iter(self._contexts)))
        self._evictions += 1

    def _drop(self, key: tuple) -> None:
        """Remove one entry from the coordinator dict *and* pool workers."""
        entry = self._contexts.pop(key)
        self._resident_bytes -= entry.nbytes
        self._executor.evict(entry.token)

    def _payload_nbytes_if_budgeted(self, obj: Any) -> int:
        """Context size for the byte budget — skipped when unbudgeted.

        Pickling a compiled context just to weigh it is pure overhead
        for the (default) unbounded session, so sizes are recorded only
        when ``max_bytes`` is set.
        """
        return _payload_nbytes(obj) if self.max_bytes is not None else 0

    def _cached_engine(self, netlist: Netlist) -> Engine | None:
        """The resident compiled engine for ``netlist``, if any (no touch)."""
        entry = self._contexts.get(("engine", netlist))
        return None if entry is None else entry.obj

    def _engine_for(self, netlist: Netlist) -> Engine:
        """The compiled engine for ``netlist`` — compile once per residency.

        A cache hit refreshes the entry's LRU position; a miss compiles,
        mints the engine's stable context token (so a later eviction can
        reach the pool workers), and may evict colder entries.  A hit on
        a netlist edited since it compiled (its
        :attr:`~repro.circuit.netlist.Netlist.revision` moved) drops the
        stale entry and recompiles.
        """
        key = ("engine", netlist)
        entry = self._touch(key)
        if entry is not None:
            if entry.revision == netlist.revision:
                return entry.obj
            # The netlist was edited since it compiled: drop the stale
            # engine here and in the pool workers, then recompile.
            self._drop(key)
        engine = make_engine(netlist, self.engine)
        self._engine_compiles += 1
        self._insert(
            key,
            _CacheEntry(
                kind="engine",
                obj=engine,
                token=engine_context_token(engine),
                nbytes=self._payload_nbytes_if_budgeted(engine),
                revision=netlist.revision,
            ),
        )
        return engine

    def _tester_for(self, program: TestProgram) -> WaferTester:
        """The cached tester for ``program``, sharing compiled circuits.

        Keyed by program identity (a :class:`TestProgram` carries a
        NumPy curve, so it is not hashable); the entry anchors the
        program so the id stays stable while cached.  The tester's shard
        context (compiled circuit + packed pattern blocks) is what ships
        to the pool, so its pickled size is what the byte budget counts.
        """
        key = ("tester", id(program))
        entry = self._touch(key)
        if entry is not None and entry.anchor is program:
            return entry.obj
        engine = self._engine_for(program.netlist)
        tester = WaferTester(
            program,
            engine=self.engine,
            executor=self._executor,
            batch_circuit=engine.batch,
        )
        self._insert(
            key,
            _CacheEntry(
                kind="tester",
                obj=tester,
                token=tester._context_token,
                nbytes=self._payload_nbytes_if_budgeted(
                    tester._lot_shard_context()
                ),
                anchor=program,
            ),
        )
        return tester

    def stats(self) -> dict[str, int]:
        """Cache/pool observability counters.

        ``cached_netlists`` / ``cached_testers`` / ``cached_fab_contexts``
            Resident LRU entries of each kind.
        ``engine_compiles``
            Netlist compilations since the session opened — the
            compile-once observable (an evicted netlist seen again
            raises it by one).
        ``contexts_shipped`` / ``contexts_evicted``
            Context broadcasts to / removals from the persistent pool.
        ``evictions``
            LRU entries dropped by the ``max_contexts``/``max_bytes``
            budgets.
        ``resident_bytes``
            Summed pickled size of the resident contexts (tracked only
            when ``max_bytes`` is set; 0 otherwise).
        ``worker_recoveries``
            Crashed-worker re-install/retry cycles the executor healed.
        ``retries`` / ``timeouts`` / ``quarantined_shards``
            Resilience counters: dispatches retried after a crash or
            watchdog timeout, watchdog deadline expirations (hung
            workers), and poison-shard fingerprints currently
            quarantined (see
            :class:`~repro.runtime.PoisonShardError`).
        ``segments_reaped``
            Orphaned worker shared-memory segments unlinked during
            crash-recovery pool teardowns (results a failed dispatch
            discarded before the coordinator could adopt them).
        ``chaos_injections``
            Faults the active :mod:`repro.chaos` schedule has fired
            across every process (0 when no schedule is installed).
        ``kernel_blocks_numpy`` / ``kernel_blocks_jit`` / ``kernel_blocks_gpu``
            64-pattern blocks the kernel engines (``batch-jit``,
            ``batch-gpu``, ``auto``) executed per backend in *this*
            process — which backend is actually doing the work, visible
            per session and through the gateway ``/metrics``.  Like
            ``chaos_injections`` these are process-global, so the
            gateway scheduler counts them once, not per lane.
        ``ipc_bytes_out`` / ``ipc_bytes_in``
            Payload bytes the session's pool shipped to / received from
            its workers (wire-format frames: contexts, shard tasks,
            shard results).
        ``dispatches`` / ``pool_workers``
            Non-empty shard dispatches the session's executor served,
            and its configured worker count — the per-session pool
            accounting :func:`aggregate_stats` sums across a scheduler
            fleet.
        """
        from repro import chaos

        schedule = chaos.active_schedule()
        kinds = [entry.kind for entry in self._contexts.values()]
        return {
            "cached_netlists": kinds.count("engine"),
            "cached_testers": kinds.count("tester"),
            "cached_fab_contexts": kinds.count("fab"),
            "engine_compiles": self._engine_compiles,
            "contexts_shipped": self._executor.contexts_shipped,
            "contexts_evicted": self._executor.contexts_evicted,
            "evictions": self._evictions,
            "resident_bytes": self._resident_bytes,
            "worker_recoveries": self._executor.worker_recoveries,
            "retries": self._executor.dispatch_retries,
            "timeouts": self._executor.timeouts,
            "quarantined_shards": self._executor.quarantined_shards,
            "segments_reaped": self._executor.segments_reaped,
            "chaos_injections": (
                0 if schedule is None else schedule.total_injections()
            ),
            "kernel_blocks_numpy": kernel_autotune.BACKEND_BLOCKS["numpy"],
            "kernel_blocks_jit": kernel_autotune.BACKEND_BLOCKS["jit"],
            "kernel_blocks_gpu": kernel_autotune.BACKEND_BLOCKS["gpu"],
            "ipc_bytes_out": self._executor.ipc_bytes_out,
            "ipc_bytes_in": self._executor.ipc_bytes_in,
            "dispatches": self._executor.dispatches,
            "pool_workers": self._executor.num_workers,
        }

    # ------------------------------------------------------------- pipeline

    def fabricate(
        self,
        netlist: Netlist,
        recipe: ProcessRecipe,
        num_chips: int,
        dies_per_wafer: int = 100,
        seed=None,
    ) -> FabricatedLot:
        """Fabricate a lot of ``num_chips`` dies through the session pool.

        Wafer layouts are levelized once per (netlist, recipe, dies) and
        shipped to the pool workers once per residency; the fabrication
        shard context participates in the session's LRU like engines
        and testers, so ``max_contexts`` / ``max_bytes`` bound it in the
        workers too.  Fabrication runs on the array-native path (grid
        index + SoA chips — see ``docs/fabrication.md``), with shard
        workers returning compact array payloads rather than pickled
        object trees; the lot is bit-identical to
        :func:`~repro.manufacturing.lot.fabricate_lot` at any worker
        count.
        """
        self._check_open()
        # Track the fab shard context (pre-built wafer + token, cached
        # by the manufacturing layer) as an LRU entry so the budgets
        # also bound worker-resident fabrication contexts.
        key = ("fab", netlist, recipe, dies_per_wafer)
        entry = self._touch(key)
        if entry is not None and entry.revision != netlist.revision:
            # The netlist was edited since its wafer was built: drop the
            # stale context here and in the pool workers.
            self._drop(key)
            entry = None
        if entry is None:
            context, token = _cached_fab_context(
                netlist, recipe, dies_per_wafer
            )
            self._insert(
                key,
                _CacheEntry(
                    kind="fab",
                    obj=context,
                    token=token,
                    nbytes=self._payload_nbytes_if_budgeted(context),
                    revision=netlist.revision,
                ),
            )
        return fabricate_lot(
            netlist,
            recipe,
            num_chips,
            dies_per_wafer=dies_per_wafer,
            seed=seed,
            executor=self._executor,
        )

    def build_program(
        self,
        netlist: Netlist,
        patterns: Sequence[Mapping[str, int]],
        collapse: bool = True,
    ) -> TestProgram:
        """Fault-simulate ``patterns`` into a :class:`TestProgram`.

        The simulation engine is compiled once per netlist per residency
        (see the class docstring for the eviction contract); repeated
        builds on one netlist reuse the compiled arrays and the session
        pool, and the compiled engine ships to the pool workers once —
        only the packed pattern blocks travel per call.
        """
        self._check_open()
        return TestProgram.build(
            netlist,
            patterns,
            collapse=collapse,
            engine=self._engine_for(netlist),
            executor=self._executor,
        )

    def test(
        self,
        lot: FabricatedLot | Sequence[FabricatedChip],
        program: TestProgram,
    ) -> LotTestResult:
        """First-fail test a lot (or bare chip list) against ``program``.

        The tester — compiled circuit plus packed pattern blocks — is
        cached per program, so N small lots through one session ship the
        compiled context to the pool once, then only the chip shards
        travel.
        """
        self._check_open()
        tester = self._tester_for(program)
        return LotTestResult(program=program, records=tuple(tester.test_lot(lot)))

    def run_experiment(self, name: str) -> str:
        """Run one named paper experiment through this session.

        Returns the rendered report; see
        :data:`repro.experiments.runner.EXPERIMENTS` for the names.
        """
        self._check_open()
        # Imported lazily: the experiments packages themselves import
        # repro.api for their session parameters.
        from repro.experiments.runner import run_experiment

        return run_experiment(name, session=self)


@contextmanager
def resolve_session(session: Session | None = None) -> Iterator[Session]:
    """Yield the caller's session as-is (never closing it), or a serial
    throwaway session that is closed on exit."""
    if session is not None:
        yield session
        return
    with Session(workers=1) as throwaway:
        yield throwaway
