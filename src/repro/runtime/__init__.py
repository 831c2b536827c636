"""Process-sharded execution runtime.

The Monte-Carlo layers above the batch engine — fault-list scanning in
:class:`~repro.faults.fault_sim.FaultSimulator`, chip-list testing in
:class:`~repro.tester.tester.WaferTester`, wafer fabrication in
:func:`~repro.manufacturing.lot.fabricate_lot` — are embarrassingly
parallel: rows of the ``(num_faults + 1, num_signals)`` batch, chips of a
lot, and wafers of a fab run are all independent.  This package supplies
the one mechanism they share: partition an ordered work list into
contiguous shards (:class:`ShardPlan`), run one worker function per shard
on a process pool (:class:`ParallelExecutor`), and merge the per-shard
results back in shard order.

Parallel runtime
----------------

**Shard/merge contract.**  :meth:`ShardPlan.balanced` cuts ``num_items``
ordered items into at most ``workers`` contiguous, near-equal shards
(sizes differ by at most one; no shard is empty).  Workers compute their
shards fully independently — the fault simulator, for instance, runs its
block loop with *per-shard* compaction, dropping each shard's detected
faults between pattern blocks exactly as the serial scan does — and
:meth:`ShardPlan.merge` concatenates the per-shard results in shard
order.  Because shards are contiguous and never reordered, the merged
output is *position-identical* to the serial run for any worker count;
dropping a fault in one shard never changes another shard's arithmetic.

**RNG-tree contract.**  Stochastic shard tasks (wafer fabrication) must
not share a stream and must not let the worker count shape the random
tree.  The caller therefore spawns one child generator per *task* (per
wafer, not per worker) from the lot seed via
:func:`~repro.utils.rng.spawn_rngs` *before* sharding, and ships the
children inside the tasks.  The RNG tree depends only on the seed and
the task count, so fabrication is bit-identical at every ``workers``
setting — the determinism suite pins this down.

**Compile-once workers.**  Contexts carry the pre-compiled NumPy arrays
(:class:`~repro.simulator.batch_sim.BatchCompiledCircuit`, packed
pattern blocks, pre-built :class:`~repro.manufacturing.wafer.Wafer`
layouts), so workers never re-levelize a netlist per task; they decode
the compiled arrays once and reuse them for every shard they process.
A one-shot call's context is already in its workers when they fork;
*persistent* pools (``persistent=True``, owned by
:class:`repro.api.Session`) send a context to each worker once, keyed
by a :func:`new_context_token` token, so an unchanged context is
shipped once per pool lifetime no matter how many calls replay it.

**Pool lifecycle.**  The executor owns its worker processes: each is a
``multiprocessing.Process`` on its own duplex pipe, and nothing but the
executor starts or stops one.  Executors are context managers with an
explicit :meth:`ParallelExecutor.close` (stop message, a short join,
SIGKILL for stragglers); one-shot call sites wrap each call in
``with ParallelExecutor(n) as executor`` and long-lived owners (a
``Session``, the :mod:`repro.server` front end) close their executor
when they close.  Persistent pools additionally support token
**eviction** (:meth:`ParallelExecutor.evict` sends a context removal to
every worker, bounding worker-resident memory) and **crash recovery**:
the coordinator waits on the worker pipes and process sentinels
together, so a death is seen the moment it happens; the workers are
then restarted, the context re-shipped and the call retried — callers
see :class:`WorkerCrashError` only when recovery fails repeatedly, and
can tell it apart from user-code failures by type (it carries the
shard index and token).

**Serial fallback.**  ``workers=1`` (the default everywhere) never
touches ``multiprocessing``: the work runs in-process on the exact
serial code path, so default behavior, exception timing, and
determinism are unchanged.  ``workers="auto"`` resolves to the visible
CPU count.
"""

from repro.runtime.executor import (
    ParallelExecutor,
    PoisonShardError,
    WorkerCrashError,
    WorkerTimeoutError,
    new_context_token,
    resolve_workers,
    shard_fingerprint,
)
from repro.runtime.sharding import ShardPlan

__all__ = [
    "ParallelExecutor",
    "PoisonShardError",
    "ShardPlan",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "new_context_token",
    "resolve_workers",
    "shard_fingerprint",
]
