"""The multi-client lot-testing server: :class:`LotServer`.

An asyncio front end that multiplexes many concurrent client
connections onto one shared :class:`repro.api.Session` — the same
shape as a test-floor DAQ service: many operators stream requests at
the one process that owns the hardware-facing hot path.

Execution model
---------------

* The event loop owns all sockets and never runs pipeline work.
* Requests that touch the pipeline (``fabricate``, ``build_program``,
  ``test_lot``, ``run_experiment``) are enqueued **per netlist** (FIFO
  order per netlist, round-robin fairness across netlists via queue
  consumers) and executed one at a time on a dedicated worker thread
  against the shared session.  Parallelism lives *below* that thread,
  in the session's process pool — so two clients hammering different
  netlists contend for the pool, not for locks.
* Because the session is shared, its compile-once caches are shared:
  any number of clients uploading the same netlist (same
  :func:`~repro.server.protocol.netlist_fingerprint`) compile its
  engine exactly once and ship its contexts to the pool once.  The
  session's ``max_contexts`` / ``max_bytes`` LRU bounds what stays
  resident, and a crashed pool worker is healed transparently by the
  executor's re-install/retry — in-flight requests from other clients
  never observe it.
* Results are **bit-identical** to direct ``Session`` calls: the server
  moves the same pickled bytes the in-process runtime ships to its pool
  workers; it never re-computes or re-rounds anything.

Responses on one connection are returned in request order; independent
connections interleave freely.  See ``docs/server.md`` for the protocol
spec and :mod:`repro.server.client` for the matching sync client.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import os
from typing import Any, Awaitable, Callable

from repro import chaos
from repro.api import Session
from repro.circuit.netlist import Netlist
from repro.manufacturing.lot import FabricatedLot
from repro.manufacturing.process import ProcessRecipe
from repro.server.app import ServingApp
from repro.server.core import (
    EXPERIMENT_QUEUE,
    MISSING,
    HandleRegistry,
    JobQueues,
    ReplayCache,
    RequestError,
    experiment_job,
    lot_summary,
    param,
    program_summary,
)
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_HANDLE,
    ERR_UNKNOWN_NETLIST,
    PROTOCOL_VERSION,
    LotArrays,
    WireObj,
    lot_from_arrays,
    netlist_fingerprint,
    pack_lot,
    pack_obj,
    unpack_obj,
)
from repro.tester.program import TestProgram

__all__ = ["LotServer"]

# The session-group label prefixed onto queue keys in stats: the TCP
# server runs every queue against its one shared session.
_SESSION_GROUP = "shared"


class LotServer(ServingApp):
    """Serve lot-testing requests from many clients over one session.

    Parameters
    ----------
    host, port:
        TCP endpoint; ``port=0`` binds an ephemeral port (read
        :attr:`address` after startup).  Mutually exclusive with
        ``socket_path``.
    socket_path:
        Unix-domain socket path to listen on instead of TCP.
    engine, workers, max_contexts, max_bytes:
        Forwarded to the shared :class:`repro.api.Session` — the
        server's execution policy and cache budget.
    max_handles:
        Upper bound on server-retained lot and program handles (each
        kind separately, FIFO-evicted).  Evicted handles answer
        ``unknown-handle``; clients can always re-upload.
    max_queue_depth:
        High-water mark per netlist queue (queued + in flight).  A
        pipeline request arriving past it is rejected immediately with
        ``ERR_OVERLOADED`` and a ``retry_after`` hint instead of
        queueing unboundedly.  ``None`` (default) keeps the historical
        unbounded behavior.
    request_timeout:
        Per-request deadline in seconds.  A request that outlives it is
        answered ``ERR_DEADLINE``; the reply slot is freed even though
        the underlying pipeline job (uninterruptible on its thread) may
        still run to completion.  ``None`` disables deadlines.
    drain_timeout:
        How long graceful shutdown (SIGTERM/SIGINT or the ``shutdown``
        op) waits for in-flight requests to finish before closing
        anyway.  Defaults from ``REPRO_DRAIN_TIMEOUT``, else 10 s.
    dispatch_timeout:
        Forwarded to the shared session's executor — the pool-level
        watchdog against hung workers (``REPRO_DISPATCH_TIMEOUT``).
    backend_id:
        Set when this server runs as one backend of a
        :class:`repro.router.Router` federation.  Purely
        observability + chaos plumbing: the id rides the ``ping``
        banner and ``stats``, and the exec thread arms the
        ``router.backend`` injection point with it — which is how the
        chaos suite SIGKILLs *a specific backend* mid-request.

    Run it blocking with :meth:`run` (the ``repro-server`` CLI does), or
    in a thread via :func:`repro.server.testing.running_server`.
    """

    _kind = "server"
    _log = logging.getLogger("repro.server")
    _REPLY_SEAM = "server.reply"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        engine: str = "batch",
        workers: int | str = 1,
        max_contexts: int | None = None,
        max_bytes: int | None = None,
        max_handles: int = 256,
        max_queue_depth: int | None = None,
        request_timeout: float | None = None,
        drain_timeout: float | None = None,
        dispatch_timeout: float | None = None,
        backend_id: int | None = None,
    ):
        if socket_path is not None and port:
            raise ValueError("pass either port or socket_path, not both")
        super().__init__(drain_timeout, request_timeout, ReplayCache())
        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._backend_id = backend_id
        self._netlists: dict[str, Netlist] = {}
        # Lot and program handles share one counter (preserves the
        # historical numbering where handles never collide across kinds).
        handle_counter = [0]
        self._lots = HandleRegistry("lot", max_handles, handle_counter)
        # handle -> (netlist fingerprint, program); the fingerprint is
        # stored so test_lot-by-handle never re-hashes the netlist.
        self._programs = HandleRegistry("prog", max_handles, handle_counter)
        # Per-netlist FIFO queues with backpressure; every queue drains
        # onto the one exec thread via _exec_runner.
        self._jobs = JobQueues(self._exec_runner, max_queue_depth)
        self._session = Session(
            engine=engine,
            workers=workers,
            max_contexts=max_contexts,
            max_bytes=max_bytes,
            dispatch_timeout=dispatch_timeout,
        )
        # The one thread that touches the shared session; its FIFO queue
        # is what serializes pipeline work across netlist queues.
        self._exec: Any = None

    # ----------------------------------------------------------- lifecycle

    async def _listen(self) -> list:
        from concurrent.futures import ThreadPoolExecutor

        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-server-exec"
        )
        if self._socket_path is not None:
            server = await asyncio.start_unix_server(
                self._serve_frames, path=self._socket_path
            )
            self.address = f"unix:{self._socket_path}"
        else:
            server = await asyncio.start_server(
                self._serve_frames, host=self._host, port=self._port
            )
            bound = server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        return [server]

    def _pending(self) -> int:
        return self._jobs.total_pending()

    async def _close(self) -> None:
        await self._jobs.aclose()
        # Let an in-flight pipeline call finish, then release the pool.
        self._exec.shutdown(wait=True)
        self._session.close()
        if self._socket_path is not None:
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass

    # ------------------------------------------------------ queued execution

    async def _exec_runner(self, key: str, fn: Callable[[], Any]) -> Any:
        """Run one dequeued job on the single exec thread.

        All queue consumers submit to the same single-thread executor,
        whose FIFO run queue interleaves ready requests from different
        netlists fairly while keeping the shared session single-threaded.
        Backpressure lives in :class:`~repro.server.core.JobQueues`.
        """
        return await self._loop.run_in_executor(  # type: ignore[union-attr]
            self._exec, self._run_job, fn
        )

    def _run_job(self, fn: Callable[[], Any]) -> Any:
        """Run one pipeline job on the exec thread (chaos-instrumented)."""
        chaos.fire("server.job")  # delay faults sleep here, off the loop
        if self._backend_id is not None:
            # Federation seam: lets a schedule SIGKILL *this* backend
            # (by id) mid-request, which the router must absorb by
            # rerouting to the ring's next node.
            chaos.fire("router.backend", index=self._backend_id)
        return fn()

    def _netlist_for(self, params: dict) -> tuple[str, Netlist]:
        netlist_id = param(params, "netlist_id", str)
        netlist = self._netlists.get(netlist_id)
        if netlist is None:
            raise RequestError(
                ERR_UNKNOWN_NETLIST,
                f"netlist {netlist_id!r} is not registered; call register_netlist first",
            )
        return netlist_id, netlist

    @staticmethod
    def _obj_param(params: dict, name: str, default=MISSING):
        """Fetch a domain-object parameter in either wire format.

        JSON-frame clients send base64 pickle strings; binary-frame
        clients send the object itself (already decoded from the frame's
        buffer section).  Both are accepted on every request, regardless
        of which format the *envelope* used.
        """
        value = param(params, name, None, default=default)
        if isinstance(value, str):
            return unpack_obj(value)
        return value

    # ------------------------------------------------------------------ ops

    async def _op_ping(self, params: dict, binary: bool) -> dict:
        banner = {
            "pong": True,
            "server": "repro-server",
            "protocol": PROTOCOL_VERSION,
        }
        if self._backend_id is not None:
            banner["backend_id"] = self._backend_id
        return banner

    async def _op_register_netlist(self, params: dict, binary: bool) -> dict:
        netlist = self._obj_param(params, "netlist")
        if not isinstance(netlist, Netlist):
            raise RequestError(
                ERR_BAD_REQUEST,
                f"netlist payload must be a Netlist, got {type(netlist).__name__}",
            )
        fingerprint = netlist_fingerprint(netlist)
        known = fingerprint in self._netlists
        if not known:
            self._netlists[fingerprint] = netlist
        return {"netlist_id": fingerprint, "known": known}

    async def _op_fabricate(self, params: dict, binary: bool) -> dict:
        netlist_id, netlist = self._netlist_for(params)
        recipe = self._obj_param(params, "recipe")
        if not isinstance(recipe, ProcessRecipe):
            raise RequestError(
                ERR_BAD_REQUEST,
                f"recipe payload must be a ProcessRecipe, got {type(recipe).__name__}",
            )
        num_chips = param(params, "num_chips", int)
        dies_per_wafer = param(params, "dies_per_wafer", int, default=100)
        seed = param(params, "seed", (int, str, type(None)), default=None)
        return_lot = param(params, "return_lot", bool, default=True)

        def job() -> dict:
            lot = self._session.fabricate(
                netlist,
                recipe,
                num_chips,
                dies_per_wafer=dies_per_wafer,
                seed=seed,
            )
            result = lot_summary(self._lots.add(lot), lot)
            if return_lot:
                if binary:
                    result["lot"] = WireObj(pack_lot(netlist, lot))
                else:
                    result["lot"] = pack_obj(lot)
            return result

        return await self._jobs.submit(netlist_id, job)

    async def _op_build_program(self, params: dict, binary: bool) -> dict:
        netlist_id, netlist = self._netlist_for(params)
        patterns = self._obj_param(params, "patterns")
        collapse = param(params, "collapse", bool, default=True)
        return_program = param(params, "return_program", bool, default=True)

        def job() -> dict:
            program = self._session.build_program(netlist, patterns, collapse=collapse)
            result = program_summary(self._programs.add((netlist_id, program)), program)
            if return_program:
                result["program"] = (
                    WireObj(program) if binary else pack_obj(program)
                )
            return result

        return await self._jobs.submit(netlist_id, job)

    def _resolve_program(self, params: dict) -> tuple[str, TestProgram]:
        """The request's program and its netlist queue key.

        Accepts a server handle (``program_id``) or an uploaded pickled
        program; uploads are canonicalized onto the server's registered
        netlist (by fingerprint) so they share the compiled caches, and
        register their netlist implicitly when it is new.
        """
        if "program_id" in params:
            handle = param(params, "program_id", str)
            entry = self._programs.get(handle)
            if entry is None:
                raise RequestError(
                    ERR_UNKNOWN_HANDLE, f"unknown or expired program handle {handle!r}"
                )
            return entry
        program = self._obj_param(params, "program")
        if not isinstance(program, TestProgram):
            raise RequestError(
                ERR_BAD_REQUEST,
                f"program payload must be a TestProgram, got {type(program).__name__}",
            )
        fingerprint = netlist_fingerprint(program.netlist)
        canonical = self._netlists.get(fingerprint)
        if canonical is None:
            self._netlists[fingerprint] = program.netlist
        elif canonical is not program.netlist:
            program = dataclasses.replace(program, netlist=canonical)
        return fingerprint, program

    def _resolve_chips(self, params: dict):
        if "lot_id" in params:
            handle = param(params, "lot_id", str)
            lot = self._lots.get(handle)
            if lot is None:
                raise RequestError(
                    ERR_UNKNOWN_HANDLE, f"unknown or expired lot handle {handle!r}"
                )
            return lot
        chips = self._obj_param(params, "chips")
        if isinstance(chips, LotArrays):
            netlist = self._netlists.get(chips.fingerprint)
            if netlist is None:
                raise RequestError(
                    ERR_UNKNOWN_NETLIST,
                    f"lot arrays reference unregistered netlist "
                    f"{chips.fingerprint!r}; call register_netlist first",
                )
            return lot_from_arrays(netlist, chips)
        if isinstance(chips, FabricatedLot):
            return chips
        return tuple(chips)

    async def _op_test_lot(self, params: dict, binary: bool) -> dict:
        # Program first: an uploaded program registers its netlist, so a
        # LotArrays chips payload drawn on it resolves by fingerprint.
        netlist_id, program = self._resolve_program(params)
        chips = self._resolve_chips(params)

        def job() -> dict:
            result = self._session.test(chips, program)
            return {
                "result": WireObj(result) if binary else pack_obj(result),
                "num_records": result.lot_size,
                "fraction_rejected": result.fraction_rejected(),
            }

        return await self._jobs.submit(netlist_id, job)

    async def _op_run_experiment(self, params: dict, binary: bool) -> dict:
        job = experiment_job(param(params, "name", str))
        return await self._jobs.submit(EXPERIMENT_QUEUE, lambda: job(self._session))

    async def _op_stats(self, params: dict, binary: bool) -> dict:
        def job() -> dict:
            # Runs on the exec thread so the worker_stats pool broadcast
            # never interleaves with a pipeline map on the shared pool.
            return {
                "session": self._session.stats(),
                "workers": self._session.executor.worker_stats(),
            }

        stats = await self._jobs.submit(EXPERIMENT_QUEUE, job)
        stats["server"] = {
            "protocol": PROTOCOL_VERSION,
            "backend_id": self._backend_id,
            "connections_open": self._connections_open,
            "connections_total": self._connections_total,
            "requests_by_op": dict(self._counters),
            "registered_netlists": len(self._netlists),
            "lots_retained": len(self._lots),
            "programs_retained": len(self._programs),
            # Queue keys carry the session-group prefix ("shared/" —
            # the TCP server has exactly one session group), so the
            # labels line up with the gateway's multi-group metrics.
            "queue_depths": {
                f"{_SESSION_GROUP}/{key}": depth
                for key, depth in self._jobs.queue_depths().items()
            },
            "pending_by_queue": {
                f"{_SESSION_GROUP}/{key}": count
                for key, count in self._jobs.pending_by_queue().items()
            },
            "overload_rejections": self._jobs.overload_rejections,
            "bad_frames": self._bad_frames,
            "deadline_expirations": self._deadline_expirations,
            "replay_hits": self._replay.hits,
            "draining": self._stopping,
        }
        return stats

    # Ops whose successful responses enter the idempotent replay cache.
    # ping/stats/shutdown are cheap or stateful-by-design and always
    # re-execute.
    _REPLAY_OPS = frozenset(
        {"register_netlist", "fabricate", "build_program", "test_lot", "run_experiment"}
    )

    _OPS: dict[str, Callable[["LotServer", dict, bool], Awaitable[dict]]] = {
        "ping": _op_ping,
        "register_netlist": _op_register_netlist,
        "fabricate": _op_fabricate,
        "build_program": _op_build_program,
        "test_lot": _op_test_lot,
        "run_experiment": _op_run_experiment,
        "stats": _op_stats,
        "shutdown": ServingApp._op_shutdown,
    }
