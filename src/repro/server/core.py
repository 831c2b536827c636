"""Transport-agnostic serving plumbing shared by the front ends.

The three network front ends — the framed-TCP
:class:`~repro.server.LotServer`, the HTTP/JSON
:class:`~repro.gateway.Gateway` and the federation
:class:`~repro.router.Router` — and their clients need the same pieces,
independent of how bytes arrive (the shared lifecycle and request path
built from them live in :mod:`repro.server.app`):

:class:`RequestError`
    A handler error carrying a protocol error code (and an optional
    ``retry_after`` backoff hint for ``overloaded`` rejections).
:func:`param`
    Type-checked request-parameter extraction with the bool/int
    distinction JSON blurs.
:class:`HandleRegistry`
    Bounded FIFO registry of server-retained objects (lots, programs)
    addressed by opaque string handles.
:class:`ReplayCache`
    The idempotent-replay store keyed by ``(client id, request id)``
    that lets a reconnecting client resend a request whose first reply
    died on the wire without re-running pipeline work.
:class:`JobQueues`
    Per-key FIFO request queues with queued+in-flight accounting and
    immediate ``overloaded`` rejection past a high-water mark.  *How* a
    dequeued job runs is injected (``runner``); its one runner is the
    :class:`~repro.server.scheduler.SessionScheduler` that both the TCP
    server (one lane) and the gateway (a bounded fleet) run on.
:func:`error_payload`
    The one exception -> protocol error mapping.
:func:`render_metrics`
    Table-driven Prometheus text exposition.
:func:`experiment_job`, :func:`lot_summary`, :func:`program_summary`
    The op results the pipeline front ends build.
:class:`RetryPolicy`, :class:`IdentityMap`, :func:`reply_result`
    The client side: the retry budget, capped exponential backoff with
    seeded jitter and resilience counters of both client families; the
    local-object -> server-identity cache; reply-envelope decoding.
``positive_int`` / ``positive_float`` / ``add_*_flags``
    The CLI flags and parsers the ``repro-*`` entry points share.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time
import traceback
from collections import Counter, OrderedDict
from typing import Any, Awaitable, Callable, Iterable

from repro.runtime import PoisonShardError, WorkerCrashError
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_POISON_SHARD,
    ERR_USER,
    ERR_WORKER_CRASH,
    ConnectionLost,
    ProtocolError,
    RemoteError,
)

__all__ = [
    "MISSING",
    "RequestError",
    "param",
    "HandleRegistry",
    "ReplayCache",
    "JobQueues",
    "error_body",
    "error_payload",
    "render_metrics",
    "RetryPolicy",
    "IdentityMap",
    "reply_result",
    "EXPERIMENT_QUEUE",
    "experiment_job",
    "lot_summary",
    "program_summary",
    "positive_int",
    "positive_float",
    "add_listen_flags",
    "add_session_flags",
    "session_kwargs",
]

MISSING = object()


class RequestError(Exception):
    """An error with a protocol code, raised by request handlers.

    ``retry_after`` (seconds) rides into the error payload when set —
    the backoff hint ``ERR_OVERLOADED`` replies carry.
    """

    def __init__(self, code: str, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


def param(params: dict, name: str, kinds, default=MISSING):
    """Fetch and type-check one request parameter."""
    value = params.get(name, MISSING)
    if value is MISSING:
        if default is MISSING:
            raise RequestError(ERR_BAD_REQUEST, f"missing parameter {name!r}")
        return default
    if kinds is not None:
        allowed = kinds if isinstance(kinds, tuple) else (kinds,)
        ok = isinstance(value, allowed)
        if isinstance(value, bool) and bool not in allowed:
            ok = False  # bool is an int subclass; reject it for int params
        if not ok:
            raise RequestError(
                ERR_BAD_REQUEST,
                f"parameter {name!r} has the wrong type ({type(value).__name__})",
            )
    return value


class HandleRegistry:
    """Bounded FIFO store of server-built objects behind string handles.

    Handles are ``"{prefix}-{n}"`` with a monotonically increasing
    counter (optionally shared between registries, so lot and program
    handles never collide even if a client mixes them up).  Past
    ``max_handles`` entries the oldest is dropped; an evicted handle
    answers ``unknown-handle`` and the client re-uploads.
    """

    def __init__(self, prefix: str, max_handles: int, counter: list[int] | None = None):
        if max_handles < 1:
            raise ValueError(f"max_handles must be >= 1, got {max_handles}")
        self._prefix = prefix
        self._max = max_handles
        # The counter is a one-cell list so several registries can share it.
        self._counter = counter if counter is not None else [0]
        self._entries: OrderedDict[str, Any] = OrderedDict()

    def add(self, obj: Any) -> str:
        self._counter[0] += 1
        handle = f"{self._prefix}-{self._counter[0]}"
        self._entries[handle] = obj
        while len(self._entries) > self._max:
            self._entries.popitem(last=False)
        return handle

    def get(self, handle: str) -> Any | None:
        return self._entries.get(handle)

    def __len__(self) -> int:
        return len(self._entries)


class ReplayCache:
    """Idempotent-replay store: ``(cid, rid) -> successful response``.

    Bounds are small on purpose — the cache only needs to cover the
    retry window of a reconnecting client: ``per_client`` responses per
    client id and ``clients`` client ids, both FIFO-evicted.
    """

    def __init__(self, per_client: int = 8, clients: int = 64):
        self._per_client = per_client
        self._clients = clients
        self._store: OrderedDict[str, OrderedDict[Any, Any]] = OrderedDict()
        self.hits = 0

    def lookup(self, cid: str, rid) -> Any | None:
        conn = self._store.get(cid)
        if conn is None:
            return None
        cached = conn.get(rid)
        if cached is not None:
            self._store.move_to_end(cid)
            self.hits += 1
        return cached

    def store(self, cid: str, rid, response: Any) -> None:
        conn = self._store.setdefault(cid, OrderedDict())
        conn[rid] = response
        while len(conn) > self._per_client:
            conn.popitem(last=False)
        self._store.move_to_end(cid)
        while len(self._store) > self._clients:
            self._store.popitem(last=False)


class JobQueues:
    """Per-key FIFO job queues with backpressure, draining onto ``runner``.

    ``runner(key, fn)`` is the injected execution policy: it is awaited
    once per dequeued job, exactly one at a time *per key* (each key has
    its own consumer task), and its result/exception resolves the
    submitter's future.  Fairness across keys is the runner's problem —
    the scheduler routes keys to session lanes, each a one-thread FIFO.

    ``pending(key)`` counts queued **plus in-flight** jobs (a queue's
    ``qsize()`` is 0 while its consumer holds the one dequeued job, so
    qsize alone undercounts by one).  With ``max_queue_depth`` set, a
    submission finding ``pending(key)`` at the high-water mark is
    rejected immediately with ``ERR_OVERLOADED`` and a ``retry_after``
    hint scaled to the backlog.
    """

    def __init__(
        self,
        runner: Callable[[str, Callable[[], Any]], Awaitable[Any]],
        max_queue_depth: int | None = None,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        self._runner = runner
        self._max_queue_depth = max_queue_depth
        self._queues: dict[str, asyncio.Queue] = {}
        self._consumers: dict[str, asyncio.Task] = {}
        self._pending: Counter[str] = Counter()
        self.overload_rejections = 0

    # ------------------------------------------------------------- metrics

    def pending(self, key: str) -> int:
        return self._pending[key]

    def total_pending(self) -> int:
        return sum(self._pending.values())

    def pending_by_queue(self) -> dict[str, int]:
        return {key: count for key, count in self._pending.items() if count}

    def queue_depths(self) -> dict[str, int]:
        return {key: queue.qsize() for key, queue in self._queues.items()}

    # ----------------------------------------------------------- execution

    async def submit(self, key: str, fn: Callable[[], Any]) -> Any:
        """Enqueue ``fn`` on ``key``'s queue and await its result."""
        pending = self._pending[key]
        if self._max_queue_depth is not None and pending >= self._max_queue_depth:
            self.overload_rejections += 1
            raise RequestError(
                ERR_OVERLOADED,
                f"queue {key!r} is at its high-water mark "
                f"({pending} pending >= {self._max_queue_depth})",
                retry_after=round(0.05 * max(1, pending), 3),
            )
        queue = self._queues.get(key)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[key] = queue
            self._consumers[key] = asyncio.ensure_future(self._consume(key, queue))
        future = asyncio.get_running_loop().create_future()
        self._pending[key] += 1
        await queue.put((fn, future))
        return await future

    async def _consume(self, key: str, queue: asyncio.Queue) -> None:
        while True:
            fn, future = await queue.get()
            try:
                result = await self._runner(key, fn)
            except Exception as exc:
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)
            finally:
                self._pending[key] -= 1
                queue.task_done()

    async def aclose(self) -> None:
        """Cancel every consumer task (queued jobs never resolve)."""
        for task in self._consumers.values():
            task.cancel()
        for task in self._consumers.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._consumers.clear()
        self._queues.clear()


# ------------------------------------------------------------------ errors


def error_body(code: str, message: str, retry_after: float | None = None) -> dict:
    """The ``error`` object of a failed reply (both transports)."""
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return error


def error_payload(exc: Exception) -> dict:
    """Map a handler exception onto its protocol ``error`` object.

    Call it from inside the ``except`` block: an unexpected exception
    (``internal``) prints its traceback to stderr.
    """
    if isinstance(exc, RequestError):
        return error_body(exc.code, str(exc), exc.retry_after)
    if isinstance(exc, PoisonShardError):
        return error_body(
            ERR_POISON_SHARD,
            f"quarantined poison shard: {exc} "
            f"(fingerprint={exc.fingerprint!r}, shard_index={exc.shard_index!r})",
        )
    if isinstance(exc, WorkerCrashError):
        return error_body(
            ERR_WORKER_CRASH,
            f"pool worker crash recovery exhausted: {exc} "
            f"(token={exc.token!r}, shard_index={exc.shard_index!r})",
        )
    if isinstance(exc, ProtocolError):
        return error_body(ERR_BAD_REQUEST, str(exc))
    if isinstance(exc, (ValueError, KeyError, IndexError, TypeError)):
        return error_body(ERR_USER, f"{type(exc).__name__}: {exc}")
    traceback.print_exc(file=sys.stderr)
    return error_body(ERR_INTERNAL, f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------- metrics


def escape_label(value: str) -> str:
    """A Prometheus label value: backslash, quote and newline escaped."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_metrics(families: Iterable[tuple[str, str, str, Any]]) -> str:
    """Prometheus text exposition (format 0.0.4) of metric families.

    Each family is ``(name, type, help, value)``: ``# HELP`` and
    ``# TYPE`` lines, then one sample.  ``value`` is a number for an
    unlabelled sample, or ``(label, [(label_value, number), ...])`` for
    one labelled sample per pair, emitted in the order given.
    """
    lines: list[str] = []
    for name, mtype, help_text, value in families:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        if isinstance(value, tuple):
            label, samples = value
            for label_value, sample in samples:
                lines.append(f'{name}{{{label}="{escape_label(label_value)}"}} {sample}')
        else:
            lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ results

# Queue key for requests that are not tied to a client netlist (the
# named paper experiments build their own circuits internally).
EXPERIMENT_QUEUE = "__experiments__"


def experiment_job(name: str) -> Callable[[Any], dict]:
    """The job running paper experiment ``name`` on a session.

    An unknown name raises ``user-error`` before anything is queued.
    """
    from repro.experiments.runner import EXPERIMENTS

    if name not in EXPERIMENTS:
        raise RequestError(
            ERR_USER, f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return lambda session: {"report": session.run_experiment(name)}


def lot_summary(handle: str, lot: Any) -> dict:
    """The reply fields every front end sends for a retained lot."""
    return {"lot_id": handle, "num_chips": len(lot), "empirical_yield": lot.empirical_yield()}


def program_summary(handle: str, program: Any) -> dict:
    """The reply fields every front end sends for a retained program."""
    return {
        "program_id": handle,
        "num_patterns": len(program),
        "final_coverage": program.final_coverage,
    }


# ---------------------------------------------------------------- clients


def reply_result(envelope: dict) -> dict:
    """A reply envelope's result; a failed reply raises :class:`RemoteError`."""
    if not envelope.get("ok"):
        error = envelope.get("error") or {}
        raise RemoteError(
            error.get("code", ERR_INTERNAL),
            error.get("message", "unknown error"),
            retry_after=error.get("retry_after"),
        )
    result = envelope.get("result")
    return result if isinstance(result, dict) else {}


class IdentityMap:
    """Client-side map from a local object to its server identity.

    Keyed by object identity; entries pin their objects so the ``id()``
    keys stay unambiguous for the map's lifetime.
    """

    def __init__(self):
        self._entries: dict[int, tuple[Any, str]] = {}

    def get(self, obj: Any) -> str | None:
        cached = self._entries.get(id(obj))
        return cached[1] if cached is not None and cached[0] is obj else None

    def put(self, obj: Any, identity: str) -> None:
        self._entries[id(obj)] = (obj, identity)

    def clear(self) -> None:
        self._entries.clear()


class RetryPolicy:
    """When and how long a client waits before retrying one request.

    One policy per client: ``retries`` bounds the retries of one logical
    request; a retry after a connection loss waits ~``backoff`` seconds,
    doubling per attempt, and a retry after an ``overloaded`` rejection
    waits the server's ``retry_after`` hint instead — either capped at
    ``backoff_max`` and scaled by ±50% jitter drawn from an RNG seeded
    with the client id, so a herd of clients never retries in lockstep
    yet one client's waits are reproducible.  Every other error is
    final.  :attr:`counters` is the client's resilience ledger (the
    transport adds ``reconnects`` and ``timeouts`` to it).
    """

    def __init__(
        self, cid: str, retries: int = 3, backoff: float = 0.05, backoff_max: float = 2.0
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_max = float(backoff_max)
        self._rng = random.Random(cid)
        self.counters = {
            "retries": 0,
            "reconnects": 0,
            "timeouts": 0,
            "overload_rejections": 0,
            "connection_losses": 0,
        }

    def delay(self, attempt: int, hint: float | None = None) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        base = hint if hint is not None else self.backoff * 2 ** max(0, attempt - 1)
        return min(base, self.backoff_max) * (0.5 + self._rng.random())

    def _retry_delay(self, exc: Exception, attempt: int) -> float | None:
        """Count failure ``attempt``; its retry delay, or None to give up."""
        if isinstance(exc, ConnectionLost):
            self.counters["connection_losses"] += 1
        elif isinstance(exc, RemoteError) and exc.code == ERR_OVERLOADED:
            self.counters["overload_rejections"] += 1
        else:
            return None
        if attempt > self.retries:
            return None
        self.counters["retries"] += 1
        return self.delay(attempt, getattr(exc, "retry_after", None))

    def call(self, once: Callable[[], Any]) -> Any:
        """Run ``once()`` until it returns or the policy gives up."""
        attempt = 0
        while True:
            try:
                return once()
            except (ConnectionLost, RemoteError) as exc:
                attempt += 1
                wait = self._retry_delay(exc, attempt)
                if wait is None:
                    raise
            time.sleep(wait)

    async def acall(self, once: Callable[[], Awaitable[Any]]) -> Any:
        """:meth:`call` for a coroutine function, sleeping on the loop."""
        attempt = 0
        while True:
            try:
                return await once()
            except (ConnectionLost, RemoteError) as exc:
                attempt += 1
                wait = self._retry_delay(exc, attempt)
                if wait is None:
                    raise
            await asyncio.sleep(wait)


# ------------------------------------------------------------------- CLIs


def positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {number}")
    return number


def positive_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {number}")
    return number


def add_listen_flags(parser: argparse.ArgumentParser, port: int) -> None:
    """``--host``, ``--port`` and ``--drain-timeout``: every front end's."""
    parser.add_argument("--host", default="127.0.0.1", help="bind host (default: %(default)s)")
    parser.add_argument(
        "--port", type=int, default=port,
        help="TCP port; 0 binds an ephemeral port (default: %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout", type=positive_float, default=None, metavar="SECONDS",
        help="shutdown wait for in-flight requests (default: $REPRO_DRAIN_TIMEOUT or 10)",
    )


# (flag, type, default, metavar, help) of the server's and gateway's
# session, queueing and deadline flags.
_SESSION_FLAGS = (
    ("--max-contexts", positive_int, None, None,
     "per-session LRU bound on resident compiled contexts (default: unbounded)"),
    ("--max-bytes", positive_int, None, None,
     "per-session LRU bound on resident context bytes (default: unbounded)"),
    ("--max-handles", positive_int, 256, None,
     "retained lot/program handles per kind (default: %(default)s)"),
    ("--max-queue-depth", positive_int, None, "N",
     "per-netlist backpressure high-water mark: requests past N pending "
     "answer 'overloaded' with a retry-after hint (default: unbounded)"),
    ("--request-timeout", positive_float, None, "SECONDS",
     "per-request deadline; a request past it answers 'deadline-exceeded' "
     "(default: none)"),
    ("--dispatch-timeout", positive_float, None, "SECONDS",
     "pool watchdog deadline against hung workers "
     "(default: $REPRO_DISPATCH_TIMEOUT or off)"),
)


def add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The session flags of the server and gateway, plus ``--debug``."""
    from repro.experiments.runner import _parse_workers
    from repro.simulator import ENGINES

    parser.add_argument(
        "--engine", choices=sorted(ENGINES), default="batch",
        help="fault-simulation engine of every session (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=_parse_workers, default=1,
        help="pool processes per session: an integer or 'auto' (default: %(default)s)",
    )
    for flag, kind, default, metavar, help_text in _SESSION_FLAGS:
        parser.add_argument(flag, type=kind, default=default, metavar=metavar, help=help_text)
    parser.add_argument(
        "--debug", action="store_true",
        help="log every request (operation, payload bytes in/out)",
    )


def session_kwargs(args: argparse.Namespace) -> dict:
    """Constructor keywords of the flags :func:`add_session_flags` adds."""
    names = ["engine", "workers", "drain_timeout"]
    names += [flag[2:].replace("-", "_") for flag, *_ in _SESSION_FLAGS]
    return {name: getattr(args, name) for name in names}
