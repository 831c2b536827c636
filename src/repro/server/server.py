"""The multi-client lot-testing server: :class:`LotServer`.

An asyncio front end that multiplexes many concurrent client
connections onto one shared :class:`repro.api.Session` — the same
shape as a test-floor DAQ service: many operators stream requests at
the one process that owns the hardware-facing hot path.

Execution model
---------------

* The event loop owns all sockets and never runs pipeline work.
* The pipeline ops are the gateway's too, written once in
  :class:`~repro.server.app.PipelineApp`; this module keeps only the
  framed protocol's pickle/binary codec.  Their jobs are enqueued **per
  netlist** (FIFO per netlist, round-robin fairness across netlists) on
  a one-lane :class:`~repro.server.scheduler.SessionScheduler`: one
  thread runs them one at a time against the shared session.
  Parallelism lives *below* that thread, in the session's process pool
  — so two clients hammering different netlists contend for the pool,
  not for locks.
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
from repro.circuit.netlist import Netlist
from repro.manufacturing.lot import FabricatedLot
from repro.manufacturing.process import ProcessRecipe
from repro.server.app import PipelineApp, ServingApp
from repro.server.core import EXPERIMENT_QUEUE, RequestError, param
from repro.server.protocol import (
    ERR_BAD_REQUEST,
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


class LotServer(PipelineApp):
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
        banner and ``stats``, and every pipeline job arms the
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
        # One lane: every netlist queue drains onto one session thread.
        super().__init__(
            drain_timeout,
            request_timeout,
            max_handles,
            max_sessions=1,
            max_queue_depth=max_queue_depth,
            engine=engine,
            workers=workers,
            max_contexts=max_contexts,
            max_bytes=max_bytes,
            dispatch_timeout=dispatch_timeout,
        )
        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._backend_id = backend_id

    # ----------------------------------------------------------- lifecycle

    async def _listen(self) -> list:
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

    async def _close(self) -> None:
        # Let an in-flight pipeline call finish, then release the pool.
        await super()._close()
        if self._socket_path is not None:
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass

    def _submit(self, key: str, job: Callable[[Any], Any]) -> Awaitable[Any]:
        if self._backend_id is None:
            return super()._submit(key, job)

        def backend_job(session) -> Any:
            # Federation seam, after the scheduler's server.job seam: a
            # schedule SIGKILLs *this* backend mid-request, and the
            # router must reroute to the ring's next node.
            chaos.fire("router.backend", index=self._backend_id)
            return job(session)

        return super()._submit(key, backend_job)

    # ---------------------------------------------------------------- codec

    @staticmethod
    def _obj_param(params: dict, name: str, kind: type | None = None):
        """Fetch a domain-object parameter in either wire format.

        JSON-frame clients send base64 pickle strings; binary-frame
        clients send the object itself (already decoded from the frame's
        buffer section).  Both are accepted on every request, regardless
        of which format the *envelope* used.  With ``kind`` set, any
        other type is a ``bad-request``.
        """
        value = param(params, name, None)
        if isinstance(value, str):
            value = unpack_obj(value)
        if kind is not None and not isinstance(value, kind):
            raise RequestError(
                ERR_BAD_REQUEST,
                f"{name} payload must be a {kind.__name__}, got {type(value).__name__}",
            )
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
        return self._register(self._obj_param(params, "netlist", Netlist))

    async def _op_fabricate(self, params: dict, binary: bool) -> dict:
        def encode_lot(netlist: Netlist, lot: FabricatedLot) -> Any:
            return WireObj(pack_lot(netlist, lot)) if binary else pack_obj(lot)

        return await self._fabricate(
            params, lambda p: self._obj_param(p, "recipe", ProcessRecipe), encode_lot
        )

    async def _op_build_program(self, params: dict, binary: bool) -> dict:
        return await self._build(
            params, lambda p: self._obj_param(p, "patterns"), WireObj if binary else pack_obj
        )

    def _resolve_program(self, params: dict) -> tuple[str, TestProgram]:
        """The request's ``(netlist_id, program)``.

        Accepts a server handle (``program_id``) or an uploaded pickled
        program; uploads are canonicalized onto the server's registered
        netlist (by fingerprint) so they share the compiled caches, and
        register their netlist implicitly when it is new.
        """
        if "program_id" in params:
            return self._entry(self._programs, "program", param(params, "program_id", str))
        program = self._obj_param(params, "program", TestProgram)
        fingerprint = netlist_fingerprint(program.netlist)
        canonical = self._netlists.setdefault(fingerprint, program.netlist)
        if canonical is not program.netlist:
            program = dataclasses.replace(program, netlist=canonical)
        return fingerprint, program

    def _resolve_chips(self, params: dict) -> tuple[str | None, Any]:
        """The request's chips and the netlist they were drawn on, if known."""
        if "lot_id" in params:
            return self._entry(self._lots, "lot", param(params, "lot_id", str))
        chips = self._obj_param(params, "chips")
        if isinstance(chips, LotArrays):
            netlist = self._netlists.get(chips.fingerprint)
            if netlist is None:
                raise RequestError(
                    ERR_UNKNOWN_NETLIST,
                    f"lot arrays reference unregistered netlist "
                    f"{chips.fingerprint!r}; {self._REGISTER_HINT}",
                )
            return chips.fingerprint, lot_from_arrays(netlist, chips)
        return None, chips if isinstance(chips, FabricatedLot) else tuple(chips)

    async def _op_test_lot(self, params: dict, binary: bool) -> dict:
        # Program first: an uploaded program registers its netlist, so a
        # LotArrays chips payload drawn on it resolves by fingerprint.
        program_entry = self._resolve_program(params)
        lot_netlist_id, chips = self._resolve_chips(params)
        encode = WireObj if binary else pack_obj

        def encode_result(result) -> dict:
            return {
                "result": encode(result),
                "num_records": result.lot_size,
                "fraction_rejected": result.fraction_rejected(),
            }

        return await self._test(lot_netlist_id, chips, program_entry, encode_result)

    async def _op_run_experiment(self, params: dict, binary: bool) -> dict:
        return await self._experiment(param(params, "name", str))

    async def _op_stats(self, params: dict, binary: bool) -> dict:
        def job(session) -> dict:
            # Runs on the lane's thread so the worker_stats pool
            # broadcast never interleaves with a pipeline map on the
            # shared pool.
            return {
                "session": session.stats(),
                "workers": session.executor.worker_stats(),
            }

        stats = await self._submit(EXPERIMENT_QUEUE, job)
        stats["server"] = {
            "protocol": PROTOCOL_VERSION,
            "backend_id": self._backend_id,
            "connections_open": self._connections_open,
            "connections_total": self._connections_total,
            "requests_by_op": dict(self._counters),
            "registered_netlists": len(self._netlists),
            "lots_retained": len(self._lots),
            "programs_retained": len(self._programs),
            # Queue keys carry the session-group prefix (the one lane,
            # "s1/"), so the labels line up with the gateway's metrics.
            "queue_depths": self._scheduler.queue_depths(),
            "pending_by_queue": self._scheduler.pending_by_queue(),
            "overload_rejections": self._scheduler.overload_rejections,
            "bad_frames": self._bad_frames,
            "deadline_expirations": self._deadline_expirations,
            "replay_hits": self._replay.hits,
            "draining": self._stopping,
        }
        return stats

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
