"""Process-pool execution of shard tasks with a per-process context.

:class:`ParallelExecutor` runs ``fn(context, task)`` for an ordered list
of tasks.  At ``workers=1`` it is a plain in-process loop (no worker
processes, no pickling — the serial fallback that keeps default
behavior unchanged).  Above that the executor owns its worker
processes outright: each is a :class:`multiprocessing.Process` on its
own duplex :func:`multiprocessing.Pipe`, running :func:`_worker_main`,
one loop that answers five messages — install a context under a token,
evict a token, report stats, run one shard, stop.  Nothing else starts,
respawns or stops a worker.

The coordinator hands each idle worker the next message and waits on
every pipe *and* every process sentinel with
:func:`multiprocessing.connection.wait`.  So:

* **A death is seen at once.**  A worker that dies (SIGKILL, a chaos
  ``kill``, an ``os._exit`` in user code) readies its sentinel; the
  dispatch raises :class:`WorkerCrashError` without polling.
* **A hang is bounded.**  With ``dispatch_timeout`` set (argument or
  ``REPRO_DISPATCH_TIMEOUT``) the wait's timeout is the watchdog
  deadline, and every send to a worker times out after the same span,
  so a dispatch stuck on a hung worker raises
  :class:`WorkerTimeoutError`.
* **Recovery is a restart.**  On a crash or timeout every worker is
  SIGKILLed, shared-memory segments still named under their pids are
  reaped (see :func:`repro.runtime.wire.reap_worker_segments`), and the
  (pure) call is retried on fresh workers that get their contexts
  re-shipped.  A worker found dead *between* calls is handled the same
  way before the next dispatch.  When retries run out the executor
  probes the shards one at a time and quarantines a shard that kills
  its worker even alone (:class:`PoisonShardError`).

Two lifecycles share that one dispatch path:

* **Persistent** (``persistent=True``): the workers start on the first
  parallel call and serve every call until :meth:`~ParallelExecutor.close`.
  Contexts are identified by **tokens** (see :func:`new_context_token`):
  a context is sent to every worker only the first time its token is
  seen, so a session that tests N small lots against one compiled
  circuit pays the fork and the context pickling once, not N times.
  :meth:`~ParallelExecutor.evict` drops a token from every worker.  This
  is the execution substrate of :class:`repro.api.Session` and the
  lot-testing server (:mod:`repro.server`).
* **One-shot** (``persistent=False``, the default): the workers start
  for one :meth:`~ParallelExecutor.map_shards` call and stop when it
  returns.  The call's context is handed to them at start (inherited
  through the fork), already installed, so it never travels as a
  message.

Worker functions must be pure (a retry re-runs them); every worker in
this codebase is.  Executors are context managers; one-shot call sites
should use ``with ParallelExecutor(n) as executor: ...`` so teardown is
explicit rather than left to garbage collection.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
import os
import pickle
import socket
import struct
import time
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, NamedTuple, TypeVar

from repro import chaos
from repro.runtime import wire

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "ParallelExecutor",
    "PoisonShardError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "new_context_token",
    "resolve_workers",
    "shard_fingerprint",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

# Tokens are unique per process; the counter is shared by every executor
# so a token can never collide across callers that feed one pool.
_TOKEN_COUNTER = itertools.count()

# Reserved token for contexts shipped without a caller-supplied token:
# always re-installed, so the worker-side registry stays bounded.
_ONESHOT_TOKEN = ("__oneshot__",)

# How many times one map_shards call re-installs its context and retries
# after a worker crash before giving up and raising WorkerCrashError.
_MAX_RECOVERIES_PER_CALL = 2

# How long close() lets idle workers exit on a stop message before it
# SIGKILLs them.  A healthy worker exits in milliseconds.
_STOP_GRACE_SECONDS = 0.5

# Environment default for the per-dispatch watchdog deadline (seconds);
# unset or <= 0 disables the watchdog.
_DISPATCH_TIMEOUT_ENV = "REPRO_DISPATCH_TIMEOUT"


class WorkerCrashError(RuntimeError):
    """A pool worker died, or could not map a payload, during a dispatch.

    :meth:`ParallelExecutor.map_shards` catches it, restarts the
    workers, re-ships the context, and retries transparently; callers
    only see it when recovery fails repeatedly.  Unlike exceptions
    raised by user worker functions, it carries where the failure
    happened when that is known:

    ``token``
        The context token of the failed dispatch.
    ``shard_index``
        0-based index of the shard task that failed.
    """

    def __init__(self, message: str, token=None, shard_index=None):
        super().__init__(message)
        self.token = token
        self.shard_index = shard_index

    def __reduce__(self):
        # Keep token/shard_index across the worker->parent pickle hop.
        return (type(self), (self.args[0], self.token, self.shard_index))


class WorkerTimeoutError(WorkerCrashError):
    """A dispatch exceeded its watchdog deadline.

    A worker that is SIGSTOPped, livelocked, or stuck in a syscall is
    alive but hung: its sentinel never fires.  With ``dispatch_timeout``
    set (constructor argument or ``REPRO_DISPATCH_TIMEOUT``), a dispatch
    that outlives the deadline raises this instead; the executor kills
    the workers and retries.  Subclasses :class:`WorkerCrashError` so
    existing recovery paths treat a hang exactly like a crash.
    """

    def __init__(self, message: str, token=None, shard_index=None, timeout=None):
        super().__init__(message, token=token, shard_index=shard_index)
        self.timeout = timeout

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.token, self.shard_index, self.timeout),
        )


class PoisonShardError(RuntimeError):
    """One specific shard payload reproducibly kills its worker.

    When a :meth:`ParallelExecutor.map_shards` call exhausts its crash-
    recovery budget, the executor re-dispatches the shards one at a time
    to find the killer.  A shard that crashes its worker even in
    isolation is *poison* — retrying it would burn the whole recovery
    budget on every future call — so its payload fingerprint
    (:func:`shard_fingerprint`) is quarantined: this error is raised
    now, and again immediately (no dispatch, no crash) whenever a
    quarantined fingerprint reappears in a task list.

    ``fingerprint``
        Hex digest of the poison shard's payload — stable across
        processes, so logs from different runs identify the same shard.
    ``token`` / ``shard_index``
        Where in the failing call the shard sat.
    """

    def __init__(self, message: str, token=None, shard_index=None, fingerprint=None):
        super().__init__(message)
        self.token = token
        self.shard_index = shard_index
        self.fingerprint = fingerprint

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.token, self.shard_index, self.fingerprint),
        )


def shard_fingerprint(task: Any) -> str:
    """A short, process-stable digest of one shard task's payload.

    SHA-256 over the task's pickle (protocol 5, buffers in-band so the
    array contents are covered), truncated for log friendliness.  This
    is the identity under which poison shards are quarantined.
    """
    return hashlib.sha256(pickle.dumps(task, protocol=5)).hexdigest()[:16]


def new_context_token() -> tuple[str, int]:
    """A fresh, process-unique token identifying one shard context.

    Callers that reuse a compiled context across
    :meth:`ParallelExecutor.map_shards` calls mint one token per context
    and pass it each time; a persistent pool then ships the context to
    its workers only on the first call, and can later drop it again via
    :meth:`ParallelExecutor.evict`.
    """
    return ("ctx", next(_TOKEN_COUNTER))


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers`` argument to a concrete process count.

    ``"auto"`` means one worker per visible CPU; ``None`` and ``1`` mean
    serial; any other value must be an integer >= 1.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers != "auto":
            raise ValueError(
                f"workers must be an integer >= 1 or 'auto', got {workers!r}"
            )
        return max(1, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(
            f"workers must be an integer >= 1 or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


# ------------------------------------------------------------------ worker


def _unpack(payload: wire.WirePayload, token, shard_index=None):
    """Decode a payload sent to this worker; a missing segment is a crash.

    A segment that vanished before this worker mapped it (creator crash,
    or injected) makes the payload unusable here, but a repack will
    succeed — so it surfaces as :class:`WorkerCrashError` for the retry
    loop.  Opened segments are abandoned to the decoded arrays.
    """
    try:
        obj, opened = wire.unpack_payload(payload)
    except wire.ShmAttachError as exc:
        raise WorkerCrashError(str(exc), token=token, shard_index=shard_index) from exc
    wire.abandon_segments(opened)
    return obj


def _serve(op: str, arg, contexts: dict, ipc: dict):
    """Answer one coordinator message (every op but ``stop``)."""
    if op == "run":
        token, index, task = arg
        # The chaos hook for worker-side faults (kill/hang/fail at a given
        # shard index).  Only pool workers are instrumented: a kill on the
        # serial path would take down the coordinator itself.
        chaos.fire("executor.shard", index=index)
        fn, context = contexts[token]
        obj = _unpack(task, token, index)
        ipc["bytes_in"] += task.nbytes
        result = fn(context, obj)
        del obj
        envelope, owned = wire.pack_payload(result)
        del result
        ipc["bytes_out"] += envelope.nbytes
        # The name persists for the coordinator to adopt on decode.
        for segment in owned:
            try:
                segment.close()
            except Exception:
                pass
        return envelope
    if op == "install":
        token, fn, payload = arg
        contexts[token] = (fn, _unpack(payload, token))
        ipc["bytes_in"] += payload.nbytes
        return None
    if op == "evict":
        contexts.pop(arg, None)
        return None
    if op == "stats":
        return {
            "pid": os.getpid(),
            "resident_contexts": len(contexts),
            "tokens": sorted(repr(t) for t in contexts),
            "ipc_bytes_in": ipc["bytes_in"],
            "ipc_bytes_out": ipc["bytes_out"],
        }
    raise ValueError(f"unknown pool message {op!r}")


def _worker_main(conn: Connection, contexts: dict) -> None:
    """A pool worker's whole life: answer ``conn`` until stop or EOF.

    ``contexts`` is this worker's token -> ``(fn, context)`` registry; a
    one-shot call's context arrives in it through the fork.  Every
    message but ``stop`` gets exactly one ``(ok, value)`` reply, where a
    failure's value is the exception.
    """
    ipc = {"bytes_in": 0, "bytes_out": 0}
    while True:
        try:
            op, arg = conn.recv()
        except (EOFError, OSError):
            return  # the coordinator is gone
        if op == "stop":
            return
        try:
            reply = (True, _serve(op, arg, contexts, ipc))
        except Exception as exc:
            # Re-raised in the coordinator with this worker's traceback
            # attached as its cause, as multiprocessing.Pool does.
            from multiprocessing.pool import ExceptionWithTraceback

            reply = (False, ExceptionWithTraceback(exc, exc.__traceback__))
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception:
            # The exception itself would not pickle; send its text.
            exc = reply[1].exc
            conn.send((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _bound_sends(conn: Connection, seconds: float) -> None:
    """Make a send on ``conn`` fail after ``seconds`` instead of blocking.

    A message larger than the socket buffer blocks its sender until the
    worker reads it, and a hung (e.g. SIGSTOPped) idle worker never
    does; with a send timeout the write raises ``BlockingIOError``.
    """
    sock = socket.socket(fileno=os.dup(conn.fileno()))
    try:
        whole = int(seconds)
        timeval = struct.pack("@ll", whole, int((seconds - whole) * 1e6))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
    finally:
        sock.close()


class _Worker(NamedTuple):
    process: multiprocessing.Process
    conn: Connection


# ------------------------------------------------------------- coordinator


class ParallelExecutor:
    """Maps a worker function over shard tasks, order-preserving.

    Parameters
    ----------
    workers:
        ``1`` (serial, the default), an integer process count, or
        ``"auto"`` for one process per visible CPU.
    persistent:
        Keep the worker processes alive across :meth:`map_shards` calls
        (started lazily on the first parallel call, stopped by
        :meth:`close`).  Persistent workers cache shard contexts by
        token, so an unchanged context is shipped to them only once.
        Token-keyed contexts stay resident in every worker until they
        are :meth:`evict`\\ ed or the executor is closed; a long-lived
        owner (a server session) bounds residency with an LRU that calls
        :meth:`evict`.  A worker that dies between calls is replaced
        before the next dispatch, and contexts re-ship on demand.
    dispatch_timeout:
        Watchdog deadline in seconds for each exchange with the workers
        (default from ``REPRO_DISPATCH_TIMEOUT``; unset, ``<= 0`` or
        infinite means none).

    Determinism: results are returned in task order and every shard is
    computed independently, so for the pure worker functions this
    codebase ships, output is bit-identical at every worker count and
    across one-shot/persistent/serial lifecycles.
    """

    def __init__(
        self,
        workers: int | str | None = 1,
        persistent: bool = False,
        dispatch_timeout: float | None = None,
    ):
        self.num_workers = resolve_workers(workers)
        self.persistent = bool(persistent)
        if dispatch_timeout is None:
            env = os.environ.get(_DISPATCH_TIMEOUT_ENV)
            if env:
                dispatch_timeout = float(env)
        # An infinite deadline is no deadline (and cannot be a wait timeout).
        self.dispatch_timeout = (
            float(dispatch_timeout)
            if dispatch_timeout is not None and 0 < dispatch_timeout < math.inf
            else None
        )
        if self.num_workers > 1:
            # Probe shared memory (spawning the resource_tracker) BEFORE
            # any worker forks, so every worker inherits the one tracker —
            # the single-registration discipline in repro.runtime.wire
            # depends on parent and children sharing it.
            wire._shm_usable()
        # Workers are this process's children; a forked copy of this
        # object (in a worker) must never touch them.
        self._owner_pid = os.getpid()
        self._workers: list[_Worker] = []
        self._installed: set[Hashable] = set()
        self._contexts_shipped = 0
        self._contexts_evicted = 0
        self._dispatches = 0
        self._worker_recoveries = 0
        self._dispatch_retries = 0
        self._timeouts = 0
        self._segments_reaped = 0
        self._quarantined: dict[str, dict] = {}
        self._ipc_bytes_out = 0
        self._ipc_bytes_in = 0
        self._ipc_by_token: dict[Hashable, list[int]] = {}
        self._closed = False

    @property
    def is_serial(self) -> bool:
        return self.num_workers == 1

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Pids of the running worker processes, in worker order.

        Empty before the first parallel dispatch, between one-shot
        calls, and after :meth:`close`.
        """
        return tuple(worker.process.pid for worker in self._workers)

    @property
    def contexts_shipped(self) -> int:
        """How many context broadcasts this executor's persistent pool made.

        The cache-hit observable: calling :meth:`map_shards` twice with
        the same token must raise this by one, not two.  Re-shipping a
        context during crash recovery counts again (the bytes really do
        travel again).
        """
        return self._contexts_shipped

    @property
    def contexts_evicted(self) -> int:
        """How many tokens :meth:`evict` has dropped from the pool."""
        return self._contexts_evicted

    @property
    def worker_recoveries(self) -> int:
        """How many times dead or hung workers were replaced."""
        return self._worker_recoveries

    @property
    def dispatch_retries(self) -> int:
        """How many dispatches were retried after a crash or timeout."""
        return self._dispatch_retries

    @property
    def timeouts(self) -> int:
        """How many dispatches hit the watchdog deadline (hung worker)."""
        return self._timeouts

    @property
    def quarantined_shards(self) -> int:
        """How many poison-shard fingerprints are currently quarantined."""
        return len(self._quarantined)

    @property
    def segments_reaped(self) -> int:
        """Orphaned worker shm segments unlinked after workers stopped."""
        return self._segments_reaped

    def quarantine_info(self) -> dict:
        """Fingerprint -> details for every quarantined poison shard."""
        return {fp: dict(info) for fp, info in self._quarantined.items()}

    @property
    def installed_tokens(self) -> frozenset:
        """Coordinator-side view of tokens currently installed in the pool."""
        return frozenset(self._installed)

    @property
    def dispatches(self) -> int:
        """Non-empty :meth:`map_shards` calls served (serial or pooled)."""
        return self._dispatches

    @property
    def ipc_bytes_out(self) -> int:
        """Total payload bytes shipped to the pool (tasks + contexts).

        Counted at the wire layer, per payload: a context broadcast that
        reaches N workers counts its payload once (with shared memory
        the large buffers genuinely transfer once), and a crash-recovery
        re-ship counts again — the bytes really travel again.  Zero on
        serial dispatch.
        """
        return self._ipc_bytes_out

    @property
    def ipc_bytes_in(self) -> int:
        """Total payload bytes returned from the pool (shard results)."""
        return self._ipc_bytes_in

    def ipc_stats(self) -> dict:
        """Shipped/returned payload bytes, total and per context token."""
        return {
            "bytes_out": self._ipc_bytes_out,
            "bytes_in": self._ipc_bytes_in,
            "by_token": {
                repr(token): {"out": counts[0], "in": counts[1]}
                for token, counts in self._ipc_by_token.items()
            },
        }

    def _count_ipc(self, token: Hashable, out: int = 0, in_: int = 0) -> None:
        self._ipc_bytes_out += out
        self._ipc_bytes_in += in_
        counts = self._ipc_by_token.setdefault(token, [0, 0])
        counts[0] += out
        counts[1] += in_

    def _decode_results(self, token: Hashable, raw: list) -> list:
        """Decode wire-framed shard results, adopting worker segments."""
        results = []
        for item in raw:
            obj, opened = wire.unpack_payload(item)
            # The creating worker already closed its handle; adopt
            # unlinks the name now and abandons the mapping to the
            # decoded arrays.
            wire.adopt_segments(opened)
            self._count_ipc(token, in_=item.nbytes)
            results.append(obj)
        return results

    # ------------------------------------------------------ worker lifecycle

    def _ensure_workers(self, count: int, inherited: dict) -> None:
        """Start ``count`` workers unless a full live set is running.

        ``inherited`` is the token -> ``(fn, context)`` registry the new
        workers start with (through the fork); those tokens count as
        installed.
        """
        if self._workers and not all(w.process.is_alive() for w in self._workers):
            # A worker died between calls: replace the whole set, so every
            # worker holds exactly the installed tokens.
            self._stop_workers()
            self._worker_recoveries += 1
        if self._workers:
            return
        ctx = multiprocessing.get_context()
        for _ in range(count):
            conn, child = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main, args=(child, inherited), daemon=True
            )
            process.start()
            child.close()
            if self.dispatch_timeout is not None:
                _bound_sends(conn, self.dispatch_timeout)
            self._workers.append(_Worker(process, conn))
        self._installed = set(inherited)

    def _stop_workers(self, grace: float = 0.0) -> None:
        """Stop every worker, wait for it, and reap what it left behind.

        With ``grace``, the (idle) workers get a stop message and that
        long to exit; any still running afterwards — all of them without
        grace — are SIGKILLed.  Once they are dead, every shared-memory
        segment still named under their pids is an orphan (a result no
        one adopted) and is unlinked.
        """
        workers, self._workers = self._workers, []
        self._installed.clear()
        if not workers:
            return
        if grace > 0:
            for worker in workers:
                try:
                    worker.conn.send(("stop", None))
                except OSError:
                    pass
            deadline = time.monotonic() + grace
            for worker in workers:
                worker.process.join(max(0.0, deadline - time.monotonic()))
        pids = []
        for worker in workers:
            if worker.process.exitcode is None:
                worker.process.kill()
            worker.process.join()
            pids.append(worker.process.pid)
            worker.conn.close()
            worker.process.close()
        self._segments_reaped += wire.reap_worker_segments(pids)

    def _exchange(self, messages: list) -> list:
        """Send ``messages`` to the workers; their replies in message order.

        Each idle worker takes the next message, one in flight per
        worker, so a list of one message per worker is a broadcast.  The
        wait covers every pipe and every process sentinel, with the
        watchdog deadline as its timeout: a death raises
        :class:`WorkerCrashError`, a missed deadline
        :class:`WorkerTimeoutError`, and both leave the workers stopped
        (their in-flight replies would otherwise answer the next
        exchange).  A worker-raised exception is re-raised once every
        in-flight message has been answered, with the workers kept.
        """
        from multiprocessing.connection import wait

        replies: list = [None] * len(messages)
        todo = iter(enumerate(messages))
        busy: dict[Connection, tuple[_Worker, int]] = {}
        sentinels = [worker.process.sentinel for worker in self._workers]
        error: Exception | None = None
        deadline = (
            None
            if self.dispatch_timeout is None
            else time.monotonic() + self.dispatch_timeout
        )

        def feed(worker: _Worker) -> None:
            item = next(todo, None)
            if item is None:
                return
            try:
                worker.conn.send(item[1])
            except BlockingIOError as exc:
                raise WorkerTimeoutError(
                    f"a pool worker took no message for "
                    f"{self.dispatch_timeout:g}s (it is hung, not dead)",
                    timeout=self.dispatch_timeout,
                ) from exc
            except OSError as exc:
                raise WorkerCrashError(
                    "a pool worker died before taking its message"
                ) from exc
            busy[worker.conn] = (worker, item[0])

        try:
            for worker in self._workers:
                feed(worker)
            while busy:
                timeout = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                ready = wait([*busy, *sentinels], timeout)
                if not ready:
                    raise WorkerTimeoutError(
                        f"pool dispatch exceeded its "
                        f"{self.dispatch_timeout:g}s watchdog deadline "
                        f"(a worker is hung, not dead)",
                        timeout=self.dispatch_timeout,
                    )
                if any(obj in sentinels for obj in ready):
                    raise WorkerCrashError(
                        "a pool worker died while a call was in flight"
                    )
                for conn in ready:
                    worker, index = busy.pop(conn)
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError) as exc:
                        raise WorkerCrashError(
                            "a pool worker died while a call was in flight"
                        ) from exc
                    if ok:
                        replies[index] = value
                    elif isinstance(value, WorkerCrashError):
                        raise value
                    elif error is None:
                        error = value
                    if error is None:
                        feed(worker)
        except BaseException:
            self._stop_workers()
            raise
        if error is not None:
            # Results of shards that did finish may sit in shared memory
            # under the (now idle) workers' pids; no one will adopt them.
            self._segments_reaped += wire.reap_worker_segments(self.worker_pids)
            raise error
        return replies

    # ------------------------------------------------------------- dispatch

    def map_shards(
        self,
        fn: Callable[[Any, TaskT], ResultT],
        context: Any,
        tasks: Iterable[TaskT],
        token: Hashable | None = None,
    ) -> list[ResultT]:
        """Run ``fn(context, task)`` for every task; results in task order.

        With one effective worker (or one task) this is an in-process
        loop.  Otherwise ``fn`` and ``context`` must be picklable and
        ``fn`` importable at module level.  ``token`` (persistent pools
        only) identifies the context: a token the workers already hold
        skips the context broadcast entirely, so only the tasks travel.
        Tokenless calls re-ship the context each time.

        If a worker dies or hangs during the call, the workers are
        restarted, ``context`` is re-shipped, and the call retried
        (``fn`` must be pure).  The error propagates only after repeated
        recovery failures.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        self._dispatches += 1
        if self._quarantined:
            # Fingerprinting costs a pickle per task, so the gate only
            # runs once a poison shard actually exists.
            for i, task in enumerate(tasks):
                fingerprint = shard_fingerprint(task)
                if fingerprint in self._quarantined:
                    raise PoisonShardError(
                        f"shard {i} matches quarantined poison fingerprint "
                        f"{fingerprint} (first seen at "
                        f"{self._quarantined[fingerprint]})",
                        token=token,
                        shard_index=i,
                        fingerprint=fingerprint,
                    )
        if min(self.num_workers, len(tasks)) == 1:
            return [fn(context, task) for task in tasks]
        if token is None:
            token = _ONESHOT_TOKEN
            self._installed.discard(token)
        if self.persistent:
            return self._run(fn, context, tasks, token, (self.num_workers, {}))
        spawn = (min(self.num_workers, len(tasks)), {token: (fn, context)})
        try:
            return self._run(fn, context, tasks, token, spawn)
        finally:
            self._stop_workers(_STOP_GRACE_SECONDS)

    def _run(self, fn, context, tasks: list, token, spawn) -> list:
        """Dispatch with crash recovery; isolate a poison shard at the end."""
        recoveries = 0
        while True:
            try:
                return self._attempt(fn, context, token, list(enumerate(tasks)), spawn)
            except WorkerCrashError as exc:
                # The workers are already stopped; the retry restarts
                # them and re-ships the context.  Shipped bytes stay
                # counted — they really traveled.
                timed_out = isinstance(exc, WorkerTimeoutError)
                if timed_out:
                    self._timeouts += 1
                recoveries += 1
                if recoveries > _MAX_RECOVERIES_PER_CALL:
                    if timed_out:
                        raise
                    # Crashes that keep recurring are the signature of one
                    # poison shard, not of environmental flakiness.
                    return self._isolate_poison(fn, context, tasks, token, spawn)
                self._dispatch_retries += 1
                self._worker_recoveries += 1

    def _attempt(self, fn, context, token, indexed_tasks: list, spawn) -> list:
        """One try at running ``(shard_index, task)`` pairs, no retries.

        Shards keep their original index so index-keyed behavior
        (including injected faults) reproduces exactly when probed alone.
        """
        self._ensure_workers(*spawn)
        owned: list = []
        try:
            if token not in self._installed:
                payload, ctx_owned = wire.pack_payload(context)
                owned.extend(ctx_owned)
                self._count_ipc(token, out=payload.nbytes)
                self._exchange([("install", (token, fn, payload))] * len(self._workers))
                self._installed.add(token)
                self._contexts_shipped += 1
            messages = []
            for index, task in indexed_tasks:
                envelope, task_owned = wire.pack_payload(task)
                owned.extend(task_owned)
                self._count_ipc(token, out=envelope.nbytes)
                messages.append(("run", (token, index, envelope)))
            return self._decode_results(token, self._exchange(messages))
        finally:
            # Every receiver that matters has mapped these segments
            # (success) or is dead (a retry repacks).
            wire.release_segments(owned)

    def _isolate_poison(self, fn, context, tasks, token, spawn) -> list:
        """Find which shard keeps killing workers; quarantine or recover.

        Called when a call's recovery budget is exhausted.  Each shard
        is probed alone: the one that still crashes its worker in
        isolation is quarantined by payload fingerprint and reported as
        :class:`PoisonShardError`.  If every shard survives isolation
        (the crashes were environmental, not payload-bound), the probe
        results themselves are the answer — the call degrades to
        shard-at-a-time execution instead of failing.
        """
        results = []
        for index, task in enumerate(tasks):
            try:
                results.extend(
                    self._attempt(fn, context, token, [(index, task)], spawn)
                )
            except WorkerTimeoutError:
                raise
            except WorkerCrashError as exc:
                fingerprint = shard_fingerprint(task)
                self._quarantined[fingerprint] = {
                    "token": repr(token),
                    "shard_index": index,
                }
                raise PoisonShardError(
                    f"shard {index} reproducibly kills its worker even in "
                    f"isolation; quarantined under fingerprint "
                    f"{fingerprint}",
                    token=token,
                    shard_index=index,
                    fingerprint=fingerprint,
                ) from exc
        return results

    def evict(self, token: Hashable) -> bool:
        """Drop ``token``'s context from the coordinator *and* every worker.

        Returns ``True`` if the token was installed.  Each worker
        releases its reference immediately (one message per worker), so
        the compiled arrays become collectable in every process without
        stopping the workers.  Evicting an unknown token is a no-op; the
        next :meth:`map_shards` with the token simply re-ships its
        context.
        """
        if self._closed or token not in self._installed:
            return False
        self._installed.discard(token)
        try:
            self._exchange([("evict", token)] * len(self._workers))
        except WorkerCrashError:
            # The workers are stopped, which drops every context anyway.
            self._worker_recoveries += 1
        self._contexts_evicted += 1
        return True

    def worker_stats(self) -> list[dict]:
        """Per-worker registry occupancy, one dict per live worker process.

        Each dict has ``pid``, ``resident_contexts``, ``tokens`` (token
        reprs, sorted), ``ipc_bytes_in`` and ``ipc_bytes_out``.  Empty
        when no workers run (serial executors, or a persistent executor
        before its first parallel call).  This talks to the workers: do
        not call it concurrently with :meth:`map_shards` from another
        thread.
        """
        if self._closed or not self._workers:
            return []
        try:
            return self._exchange([("stats", None)] * len(self._workers))
        except WorkerCrashError:
            self._worker_recoveries += 1
            return []

    def close(self) -> None:
        """Stop the workers and mark the executor unusable (idempotent)."""
        self._closed = True
        self._stop_workers(_STOP_GRACE_SECONDS)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        # Safety net only — call sites own teardown via close()/with.
        try:
            if self._workers and os.getpid() == self._owner_pid:
                self.close()
        except Exception:
            pass
