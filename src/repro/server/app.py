"""The serving core the three front ends share.

:class:`ServingApp`
    :class:`~repro.server.LotServer`, :class:`~repro.gateway.Gateway`
    and :class:`~repro.router.Router` differ in their ops and transports
    only; their lifecycle, request-execution path and (for the two
    framed-TCP front ends) connection loop are defined here, once.
:class:`PipelineApp`
    The pipeline ops the server and the gateway both serve (register,
    fabricate, build, test, experiment), their netlist and
    handle registries and the :class:`SessionScheduler` they run on.
    The two front ends keep only their wire codecs.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import threading
from collections import Counter
from contextlib import asynccontextmanager
from typing import Any, Awaitable, Callable

from repro import chaos
from repro.circuit.netlist import Netlist
from repro.server.core import (
    EXPERIMENT_QUEUE,
    HandleRegistry,
    ReplayCache,
    RequestError,
    error_body,
    error_payload,
    experiment_job,
    lot_summary,
    param,
    program_summary,
)
from repro.server.protocol import (
    ERR_BAD_FRAME,
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_HANDLE,
    ERR_UNKNOWN_NETLIST,
    ERR_UNKNOWN_OP,
    FrameDecodeError,
    ProtocolError,
    encode_frame,
    netlist_fingerprint,
    read_frame_info,
)
from repro.server.scheduler import SessionScheduler

__all__ = ["PipelineApp", "ServingApp", "error_response"]

# Environment default for the graceful-drain window (seconds): how long
# shutdown waits for in-flight requests before closing anyway.
DRAIN_TIMEOUT_ENV = "REPRO_DRAIN_TIMEOUT"
_DEFAULT_DRAIN_TIMEOUT = 10.0

# Poll interval of the drain wait, and the grace given to replies that
# just finished before their connection handlers are cancelled.
_DRAIN_TICK = 0.05


def error_response(rid, code: str, message: str, retry_after: float | None = None) -> dict:
    """A framed-protocol error reply."""
    return {"id": rid, "ok": False, "error": error_body(code, message, retry_after)}


class ServingApp:
    """Lifecycle and request path shared by the network front ends.

    * **Lifecycle.**  :meth:`run` binds the listeners, announces them,
      and serves until SIGINT/SIGTERM, a ``shutdown`` request or
      :meth:`request_shutdown` (from any thread, even before startup).
      Shutdown stops accepting, waits up to the drain timeout
      (``REPRO_DRAIN_TIMEOUT``, default 10 s) for the requests in
      flight to finish, cancels idle connection handlers, and closes.
    * **Request execution.**  :meth:`_execute`: the shutting-down
      check, ``(cid, rid)`` replay, the per-request deadline
      (``shutdown`` exempt) and the exception -> error mapping.
    * **Framed TCP.**  :meth:`_serve_frames` reads protocol frames,
      checks each envelope, dispatches through ``_OPS`` and answers in
      the request's format.

    A front end sets :attr:`_kind` (``"server"``, ``"gateway"``,
    ``"router"``: it names the app in announce lines, messages and the
    CLI summary) and implements :meth:`_listen`, :meth:`_pending` and,
    if it owns resources, :meth:`_close`.  Framed-TCP front ends also
    set ``_OPS`` (op name -> ``handler(self, params, binary)``) and may
    override :meth:`_unknown_op`.  An app built with a replay cache
    declares the ops it covers in ``_REPLAY_OPS`` (:class:`PipelineApp`
    does); those are answered from the cache on a retried ``(cid, rid)``.
    """

    _kind = "server"
    _log = logging.getLogger("repro.server")
    # Chaos seam fired before every framed reply (None: no seam).
    _REPLY_SEAM: str | None = None
    _OPS: dict[str, Callable[..., Awaitable[Any]]] = {}

    def __init__(
        self,
        drain_timeout: float | None = None,
        request_timeout: float | None = None,
        replay: ReplayCache | None = None,
    ):
        if drain_timeout is None:
            env = os.environ.get(DRAIN_TIMEOUT_ENV)
            drain_timeout = float(env) if env else _DEFAULT_DRAIN_TIMEOUT
        self._drain_timeout = max(0.0, float(drain_timeout))
        self._request_timeout = request_timeout
        self._replay = replay
        self._counters: Counter[str] = Counter()  # requests by op or route
        self._deadline_expirations = 0
        self._bad_frames = 0
        self._connections_open = 0
        self._connections_total = 0
        # Live connection handlers and background tasks, cancelled at stop.
        self._tasks: set[asyncio.Task] = set()
        # Requests that were in flight when shutdown began and finished
        # inside the drain window (the CLI's exit message).
        self.drained_requests = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._stopping = False
        self._started = threading.Event()
        self._finished = threading.Event()
        self.address: str | None = None

    # ------------------------------------------------------- front-end hooks

    async def _listen(self) -> list:
        """Start the listeners (setting :attr:`address`); return them."""
        raise NotImplementedError

    def _announce(self) -> list[str]:
        """The startup lines printed by ``run(verbose=True)``."""
        return [f"repro-{self._kind} listening on {self.address}"]

    def _pending(self) -> int:
        """Requests in flight — what the shutdown drain waits for."""
        raise NotImplementedError

    async def _close(self) -> None:
        """Release the front end's resources after its listeners closed."""

    def summary(self) -> str:
        """The one-line exit message of the front end's CLI."""
        return f"repro-{self._kind}: drained {self.drained_requests} in-flight request(s)"

    # ------------------------------------------------------------ lifecycle

    def run(self, verbose: bool = False) -> None:
        """Bind, announce (``verbose``), and serve until shutdown (blocking)."""
        try:
            asyncio.run(self._main(verbose))
        finally:
            self._finished.set()
            self._started.set()  # unblock waiters even on startup failure

    def run_cli(self, debug: bool = False) -> int:
        """:meth:`run` as a console entry point; prints :meth:`summary`.

        ``debug`` logs every request to stderr.
        """
        if debug:
            logging.basicConfig(
                level=logging.DEBUG,
                format="%(asctime)s %(name)s %(levelname)s %(message)s",
            )
        try:
            # SIGINT/SIGTERM are handled inside the event loop (graceful
            # drain); the KeyboardInterrupt fallback only fires on
            # platforms where the loop could not register handlers.
            self.run(verbose=True)
        except KeyboardInterrupt:
            pass
        print(self.summary(), flush=True)
        return 0

    def wait_started(self, timeout: float = 30.0) -> None:
        """Block until the app is listening (for run-in-a-thread users)."""
        if not self._started.wait(timeout):
            raise TimeoutError(f"{self._kind} did not start listening in time")
        if self.address is None:
            raise RuntimeError(f"{self._kind} failed during startup")

    def request_shutdown(self) -> None:
        """Ask the app to stop, from any thread (idempotent)."""
        loop, stop = self._loop, self._stop_event
        if loop is None or stop is None:
            self._stopping = True  # shutdown requested before startup
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # loop already closed — the app is already down

    async def _main(self, verbose: bool) -> None:
        self._loop = loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stopping:
            self._stop_event.set()
        # Ctrl-C / SIGTERM trigger the same graceful drain as the
        # shutdown request.  Registration fails off the main thread
        # (the running_app helpers) and on exotic loops — both fall
        # back to the default handlers.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._stop_event.set)
            except (ValueError, NotImplementedError, OSError, RuntimeError):
                pass
        listeners = await self._listen()
        if verbose:
            for line in self._announce():
                print(line, flush=True)
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            # Graceful drain: stop accepting, let requests in flight
            # finish (their handlers are still alive to deliver the
            # replies), then close.  Requests arriving meanwhile answer
            # ERR_SHUTTING_DOWN.
            self._stopping = True
            for listener in listeners:
                listener.close()
            in_flight = self._pending()
            await self._drain(self._pending)
            self.drained_requests = in_flight - self._pending()
            if in_flight:
                await asyncio.sleep(_DRAIN_TICK)  # let those replies flush
            # Cancel until every task is done: on Python 3.11 a cancel
            # that lands as an inner asyncio.wait_for completes is
            # swallowed, and the task (a router health probe) runs on.
            tasks = set(self._tasks)
            while tasks:
                for task in tasks:
                    task.cancel()
                done, tasks = await asyncio.wait(tasks, timeout=_DRAIN_TICK)
                await asyncio.gather(*done, return_exceptions=True)
            for listener in listeners:
                try:
                    await listener.wait_closed()
                except Exception:
                    pass
            await self._close()

    async def _drain(self, pending: Callable[[], int]) -> None:
        """Wait until ``pending()`` is zero, at most the drain timeout."""
        deadline = self._loop.time() + self._drain_timeout  # type: ignore[union-attr]
        while pending() and self._loop.time() < deadline:  # type: ignore[union-attr]
            await asyncio.sleep(_DRAIN_TICK)

    @asynccontextmanager
    async def _connection(self, writer, count: bool = True):
        """Track one connection handler; close its stream when it ends."""
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        if count:
            self._connections_open += 1
            self._connections_total += 1
        try:
            yield
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._tasks.discard(task)
            if count:
                self._connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------ request execution

    async def _execute(
        self,
        name: str,
        call: Callable[[], Awaitable[Any]],
        replay: tuple[str, Any] | None = None,
    ) -> tuple[Any, dict | None]:
        """Run one request: ``(result, None)`` or ``(None, error)``.

        ``call()`` makes the handler coroutine; it runs only once the
        shutting-down check passed.  With ``replay = (cid, rid)`` a
        cached success answers a retried request without re-running
        it, and a new success enters the cache.
        """
        if replay is not None:
            cached = self._replay.lookup(*replay)
            if cached is not None:
                return cached, None
        try:
            if self._stopping:
                raise RequestError(ERR_SHUTTING_DOWN, f"{self._kind} is shutting down")
            coro = call()
            if self._request_timeout is not None and name != "shutdown":
                try:
                    result = await asyncio.wait_for(coro, self._request_timeout)
                except asyncio.TimeoutError:
                    # The reply slot is freed now; a pipeline job is
                    # uninterruptible on its thread and may still finish
                    # (harmlessly) behind the deadline.
                    self._deadline_expirations += 1
                    raise RequestError(
                        ERR_DEADLINE,
                        f"request exceeded the {self._request_timeout:g}s "
                        f"{self._kind} deadline",
                    ) from None
            else:
                result = await coro
        except Exception as exc:
            return None, error_payload(exc)
        if replay is not None:
            self._replay.store(*replay, result)
        return result, None

    # ------------------------------------------------------------ framed TCP

    async def _serve_frames(self, reader, writer) -> None:
        """One framed-protocol connection: read, execute, reply, in order."""
        async with self._connection(writer):
            while True:
                try:
                    frame = await read_frame_info(reader)
                except FrameDecodeError as exc:
                    # The body was read in full, so the stream is still
                    # frame-synchronized: report the bad frame and keep
                    # serving this connection.  (No request id — the
                    # body never decoded far enough to have one.)
                    self._bad_frames += 1
                    writer.write(encode_frame(error_response(None, ERR_BAD_FRAME, str(exc))))
                    await writer.drain()
                    continue
                except ProtocolError:
                    break  # stream desynchronized; drop the connection
                if frame is None:
                    break
                # Answer in the format the request arrived in, so one
                # app serves protocol-1 and protocol-2 clients alike.
                response, stop_after = await self._handle_request(
                    frame.message, frame.binary
                )
                reply = encode_frame(response, binary=frame.binary)
                if self._log.isEnabledFor(logging.DEBUG):
                    self._log.debug(
                        "op=%s id=%s format=%s bytes_in=%d bytes_out=%d",
                        frame.message.get("op"),
                        frame.message.get("id"),
                        "binary" if frame.binary else "json",
                        frame.nbytes,
                        len(reply),
                    )
                if self._REPLY_SEAM is not None:
                    fault = chaos.fire(self._REPLY_SEAM, defer=("delay",))
                    if fault is not None and fault.action == "reset":
                        break  # injected: connection dies with the reply unsent
                    if fault is not None and fault.action == "truncate":
                        writer.write(reply[: max(1, len(reply) // 2)])
                        await writer.drain()
                        break  # injected: half a frame, then a dead socket
                    if fault is not None and fault.action == "delay":
                        await asyncio.sleep(fault.value if fault.value is not None else 0.1)
                writer.write(reply)
                await writer.drain()
                if stop_after:
                    self._stop_event.set()  # type: ignore[union-attr]
                    break

    async def _handle_request(self, request: dict, binary: bool = False) -> tuple[dict, bool]:
        """One request envelope -> ``(reply envelope, stop after)``."""
        rid = request.get("id")
        if not isinstance(rid, int) or isinstance(rid, bool):
            return error_response(None, ERR_BAD_REQUEST, "request id must be an integer"), False
        op = request.get("op")
        params = request.get("params", {})
        if not isinstance(op, str):
            return error_response(rid, ERR_BAD_REQUEST, "request op must be a string"), False
        if not isinstance(params, dict):
            return error_response(rid, ERR_BAD_REQUEST, "request params must be an object"), False
        # Idempotent replay: a client that reconnected mid-request
        # retries the same (cid, id); if the first attempt already
        # succeeded (its reply died on the wire), answer from the cache
        # instead of running the pipeline work — and its handles — twice.
        cid = request.get("cid")
        replays = self._replay is not None and op in self._REPLAY_OPS
        replay = (cid, rid) if isinstance(cid, str) and replays else None
        result, error = await self._execute(
            op, lambda: self._call_op(op, params, request, binary), replay
        )
        if error is not None:
            return {"id": rid, "ok": False, "error": error}, False
        return {"id": rid, "ok": True, "result": result}, op == "shutdown"

    async def _op_shutdown(self, params: dict, binary: bool) -> dict:
        """The ``shutdown`` op: the reply is sent, then the app drains."""
        return {"stopping": True}

    def _call_op(self, op: str, params: dict, request: dict, binary: bool):
        handler = self._OPS.get(op)
        if handler is None:
            return self._unknown_op(op, params, request)
        self._counters[op] += 1
        return handler(self, params, binary)

    def _unknown_op(self, op: str, params: dict, request: dict):
        """An op missing from ``_OPS``: ``unknown-op`` unless overridden."""
        raise RequestError(
            ERR_UNKNOWN_OP, f"unknown op {op!r}; choose from {sorted(self._OPS)}"
        )


class PipelineApp(ServingApp):
    """The pipeline ops of the TCP server and the gateway, written once.

    Owns the registered netlists (by structural fingerprint), the lot
    and program handle registries (one shared counter; entries are
    ``(netlist_id, obj)``) and the :class:`SessionScheduler` every job
    runs on.  A front end decodes its wire format, calls these ops and
    passes the encoders of their results.
    """

    # Ops whose successes enter the replay cache, on either transport;
    # ping/stats/shutdown always re-execute.
    _REPLAY_OPS = frozenset(
        {"register_netlist", "fabricate", "build_program", "test_lot", "run_experiment"}
    )
    _REGISTER_HINT = "call register_netlist first"  # the unknown-netlist hint

    def __init__(self, drain_timeout, request_timeout, max_handles: int, **scheduler_kwargs):
        super().__init__(drain_timeout, request_timeout, ReplayCache())
        self._netlists: dict[str, Netlist] = {}
        handle_counter = [0]
        self._lots = HandleRegistry("lot", max_handles, handle_counter)
        self._programs = HandleRegistry("prog", max_handles, handle_counter)
        self._scheduler = SessionScheduler(**scheduler_kwargs)

    def _pending(self) -> int:
        return self._scheduler.total_pending()

    async def _close(self) -> None:
        await self._scheduler.aclose()

    def _submit(self, key: str, job: Callable[[Any], Any]) -> Awaitable[Any]:
        """Queue ``job(session)`` under ``key`` on the scheduler."""
        return self._scheduler.submit(key, job)

    def _netlist_for(self, params: dict) -> tuple[str, Netlist]:
        netlist_id = param(params, "netlist_id", str)
        netlist = self._netlists.get(netlist_id)
        if netlist is None:
            raise RequestError(
                ERR_UNKNOWN_NETLIST,
                f"netlist {netlist_id!r} is not registered; {self._REGISTER_HINT}",
            )
        return netlist_id, netlist

    @staticmethod
    def _entry(registry: HandleRegistry, kind: str, handle: str) -> tuple[str, Any]:
        """A retained ``(netlist_id, obj)``; ``unknown-handle`` if gone."""
        entry = registry.get(handle)
        if entry is None:
            raise RequestError(
                ERR_UNKNOWN_HANDLE, f"unknown or expired {kind} handle {handle!r}"
            )
        return entry

    # ------------------------------------------------------------------ ops

    def _register(self, netlist: Netlist) -> dict:
        fingerprint = netlist_fingerprint(netlist)
        known = fingerprint in self._netlists
        self._netlists.setdefault(fingerprint, netlist)
        return {"netlist_id": fingerprint, "known": known}

    async def _fabricate(
        self, params: dict, decode_recipe: Callable, encode_lot: Callable
    ) -> dict:
        netlist_id, netlist = self._netlist_for(params)
        recipe = decode_recipe(params)
        num_chips = param(params, "num_chips", int)
        dies_per_wafer = param(params, "dies_per_wafer", int, default=100)
        seed = param(params, "seed", (int, str, type(None)), default=None)
        return_lot = param(params, "return_lot", bool, default=True)

        def job(session) -> dict:
            lot = session.fabricate(
                netlist, recipe, num_chips, dies_per_wafer=dies_per_wafer, seed=seed
            )
            result = lot_summary(self._lots.add((netlist_id, lot)), lot)
            if return_lot:
                result["lot"] = encode_lot(netlist, lot)
            return result

        return await self._submit(netlist_id, job)

    async def _build(
        self, params: dict, decode_patterns: Callable, encode_program: Callable
    ) -> dict:
        netlist_id, netlist = self._netlist_for(params)
        patterns = decode_patterns(params)
        collapse = param(params, "collapse", bool, default=True)
        return_program = param(params, "return_program", bool, default=True)

        def job(session) -> dict:
            program = session.build_program(netlist, patterns, collapse=collapse)
            result = program_summary(self._programs.add((netlist_id, program)), program)
            if return_program:
                result["program"] = encode_program(program)
            return result

        return await self._submit(netlist_id, job)

    async def _test(
        self, lot_netlist_id: str | None, chips, program_entry: tuple, encode_result: Callable
    ) -> dict:
        """Test ``chips``, drawn on ``lot_netlist_id`` if known, against a program.

        A lot drawn on another netlist than the program's is refused:
        its faults would be re-read by signal name on the wrong circuit.
        """
        netlist_id, program = program_entry
        if lot_netlist_id is not None and lot_netlist_id != netlist_id:
            raise RequestError(
                ERR_BAD_REQUEST,
                f"the lot was drawn on netlist {lot_netlist_id!r}, "
                f"the program tests netlist {netlist_id!r}",
            )
        return await self._submit(
            netlist_id, lambda session: encode_result(session.test(chips, program))
        )

    async def _experiment(self, name: str) -> dict:
        return await self._submit(EXPERIMENT_QUEUE, experiment_job(name))
