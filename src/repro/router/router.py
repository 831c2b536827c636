"""The federation front end: :class:`Router`.

An asyncio tier that speaks the *same* framed TCP protocol as
:class:`~repro.server.LotServer` — protocol-1 JSON and protocol-2
binary frames alike, so every existing client (``repro.server.Client``,
``repro-experiments --server``) connects to a router exactly as it
would to a single server — and forwards each request to one of N
backends chosen by consistent-hashing the request's **netlist
fingerprint** on a bounded-load :class:`~repro.router.ring.HashRing`.

Why hash on fingerprints: the expensive per-netlist state (compiled
engine contexts, tester pattern blocks, fab contexts) lives in each
backend's :class:`~repro.api.Session` caches.  Stable fingerprint →
backend placement means every request for a circuit lands where that
circuit is already compiled, so adding a node moves (and re-compiles)
only ~1/N of the fingerprints.

Failure semantics — PR 7's recovery ladder, one level up:

* **Health.**  Each backend is pinged on a fresh connection every
  ``health_interval`` seconds; ``eject_failures`` consecutive failures
  mark it *down* (no new traffic), a later successful probe re-admits
  it.  Ring membership is untouched by ejection, so a recovered
  backend gets its exact old shard back — cache-warm.
* **Mid-request death.**  A backend dying with requests in flight
  fails them over to the ring's next node.  The original envelope is
  replayed verbatim — same ``(cid, rid)`` — so per backend the
  idempotent replay cache guarantees at-most-once execution, and
  across backends the pipeline's determinism guarantees bit-identical
  bytes.  Netlists the new owner has never seen are lazily re-uploaded
  from the router's fingerprint cache (the ``WorkerCrashError`` lazy
  context re-ship, at federation scale); lots/programs referenced by
  now-dead handles surface ``unknown-handle`` to the client, whose
  existing recovery re-uploads from its local objects.
* **Planned removal.**  ``router_remove`` (the ``repro-router
  --remove`` admin op) takes the backend out of the ring immediately,
  waits out its in-flight requests (bounded by ``drain_timeout``), and
  only then drops it — degraded, never wrong.

The router also exposes an optional HTTP listener (``http_port``) with
``/healthz``, Prometheus ``/metrics``, ``/v1/stats``, and
``POST``/``DELETE /v1/backends`` admin routes, mirroring the gateway's
observability surface.  See ``docs/federation.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import uuid
from collections import OrderedDict, deque
from typing import Any, Iterable

from repro import chaos
from repro.chaos import InjectedFault
from repro.router.ring import HashRing, bounded_choice
from repro.server.app import ServingApp
from repro.server.client import parse_address
from repro.server.core import RequestError, render_metrics
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_UNAVAILABLE,
    ERR_UNKNOWN_NETLIST,
    PROTOCOL_VERSION,
    LotArrays,
    ProtocolError,
    WireObj,
    encode_frame,
    netlist_fingerprint,
    read_frame_info,
    unpack_obj,
)

__all__ = ["BackendDown", "Router"]

# Bound on the handle -> (backend, fingerprint) routing map; backends
# themselves retain at most max_handles handles, so this only needs to
# cover the live window across the fleet.
_MAX_TRACKED_HANDLES = 4096


class BackendDown(Exception):
    """A backend connection died or desynchronized mid-call (internal)."""


def _wire_wrap(value: Any) -> Any:
    """Re-mark decoded domain objects for re-encoding.

    A frame the router *received* carries decoded objects (binary
    frames) or base64 strings (JSON frames) in its envelope.  To
    forward that envelope on another connection — possibly in the
    other format — every non-JSON value must be wrapped back into
    :class:`WireObj` so :func:`encode_frame` routes it to the right
    wire form (raw pickle-5 buffers on binary links, base64 pickle on
    JSON links).  Idempotent; JSON scalars pass through.
    """
    if value is None or isinstance(value, (WireObj, bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {k: _wire_wrap(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_wire_wrap(v) for v in value]
    return WireObj(value)


async def _handshake(address: str, timeout: float):
    """Connect to a backend and ping it: ``(reader, writer, pong frame)``.

    The pong is ``None`` if the backend closed instead of answering.
    Each step is bounded by ``timeout``.
    """
    kind, target = parse_address(address)
    if kind == "unix":
        connect = asyncio.open_unix_connection(target)
    else:
        connect = asyncio.open_connection(target[0], target[1])
    reader, writer = await asyncio.wait_for(connect, timeout)
    try:
        writer.write(encode_frame({"id": 0, "op": "ping", "params": {}}))
        await writer.drain()
        return reader, writer, await asyncio.wait_for(read_frame_info(reader), timeout)
    except BaseException:
        writer.close()
        raise


class _BackendLink:
    """One pipelined connection to a backend, FIFO response matching.

    The server protocol guarantees responses on one connection arrive
    in request order, so correlation is a deque of pending futures.
    Any transport failure fails *every* pending future with
    :class:`BackendDown` — their requests are the ones the router
    fails over to the ring's next node.
    """

    def __init__(self, address: str):
        self.address = address
        self.binary = False
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: deque[tuple[Any, asyncio.Future]] = deque()
        self._write_lock = asyncio.Lock()
        self._closed = False

    async def open(self, timeout: float) -> None:
        try:
            # Format handshake, exactly like the sync client: a JSON
            # ping; protocol >= 2 switches the link to binary frames.
            self._reader, self._writer, info = await _handshake(self.address, timeout)
        except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
            await self.close()
            raise BackendDown(f"{self.address}: {exc or type(exc).__name__}") from exc
        if info is None:
            await self.close()
            raise BackendDown(f"{self.address}: closed during handshake")
        result = info.message.get("result") or {}
        self.binary = isinstance(result, dict) and result.get("protocol", 1) >= 2
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                info = await read_frame_info(self._reader)
                if info is None:
                    raise BackendDown(f"{self.address}: connection closed")
                if not self._pending:
                    continue  # unsolicited frame (should not happen); drop
                rid, future = self._pending.popleft()
                if info.message.get("id") != rid:
                    raise BackendDown(
                        f"{self.address}: response id {info.message.get('id')!r} "
                        f"does not match request id {rid!r}"
                    )
                if not future.done():
                    future.set_result(info.message)
        except asyncio.CancelledError:
            self._fail_pending(BackendDown(f"{self.address}: link closed"))
            raise
        except (BackendDown, ProtocolError, OSError) as exc:
            error = (
                exc
                if isinstance(exc, BackendDown)
                else BackendDown(f"{self.address}: {exc}")
            )
            self._fail_pending(error)
            await self.close(cancel_reader=False)

    def _fail_pending(self, error: BackendDown) -> None:
        while self._pending:
            _, future = self._pending.popleft()
            if not future.done():
                future.set_exception(error)

    async def call(self, message: dict) -> dict:
        """Send one envelope; await its (FIFO-matched) response."""
        if self._closed or self._writer is None:
            raise BackendDown(f"{self.address}: link is closed")
        future = asyncio.get_running_loop().create_future()
        payload = encode_frame(_wire_wrap(message), binary=self.binary)
        async with self._write_lock:
            if self._closed:
                raise BackendDown(f"{self.address}: link is closed")
            self._pending.append((message.get("id"), future))
            try:
                self._writer.write(payload)
                await self._writer.drain()
            except (OSError, ConnectionError) as exc:
                error = BackendDown(f"{self.address}: {exc}")
                self._fail_pending(error)
                await self.close()
        return await future

    async def close(self, cancel_reader: bool = True) -> None:
        self._closed = True
        if cancel_reader and self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
        self._fail_pending(BackendDown(f"{self.address}: link is closed"))


@dataclasses.dataclass(eq=False)
class _Backend:
    """Router-side state of one backend node."""

    address: str
    index: int
    state: str = "up"  # up | down | draining
    in_flight: int = 0
    forwarded: int = 0
    deaths: int = 0
    consecutive_failures: int = 0
    link: _BackendLink | None = None

    def snapshot(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "link"}

    async def drop_link(self) -> None:
        link, self.link = self.link, None
        if link is not None:
            await link.close()


class Router(ServingApp):
    """Consistent-hash request router over N ``LotServer`` backends.

    Parameters
    ----------
    host, port:
        TCP endpoint for the protocol front end; ``port=0`` binds an
        ephemeral port (read :attr:`address` after startup).
    backends:
        Initial backend addresses (``"host:port"`` or ``"unix:/path"``),
        indexed 0..N-1 in order — matching the ``--backend-id`` each
        federation server is started with.
    http_port:
        Optional HTTP observability/admin listener (``/healthz``,
        ``/metrics``, ``/v1/stats``, ``POST``/``DELETE /v1/backends``);
        ``None`` disables it, ``0`` binds an ephemeral port.
    replicas, load_factor:
        Ring smoothness and the bounded-load cap (in-flight requests
        per backend at most ``load_factor`` times the fair share;
        ``None`` disables load bounding → pure ring order).
    health_interval, health_timeout, eject_failures:
        Probe cadence, per-probe deadline, and the consecutive-failure
        count that ejects a backend from routing (re-admitted on the
        next successful probe).
    retries:
        How many *distinct* backends one request may be attempted on
        before answering ``unavailable``.
    connect_timeout:
        Deadline for opening + handshaking a backend link.
    drain_timeout:
        Bound on waiting out in-flight requests — both for planned
        backend removal and for router shutdown.  Defaults from
        ``REPRO_DRAIN_TIMEOUT``, else 10 s.
    """

    _kind = "router"
    _log = logging.getLogger("repro.router")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backends: Iterable[str] = (),
        http_port: int | None = None,
        replicas: int = 96,
        load_factor: float | None = 1.25,
        health_interval: float = 0.5,
        health_timeout: float = 5.0,
        eject_failures: int = 3,
        retries: int = 3,
        connect_timeout: float = 10.0,
        drain_timeout: float | None = None,
    ):
        if eject_failures < 1:
            raise ValueError(f"eject_failures must be >= 1, got {eject_failures}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        super().__init__(drain_timeout)
        self._host = host
        self._port = port
        self._http_port = http_port
        self._load_factor = load_factor
        self._health_interval = float(health_interval)
        self._health_timeout = float(health_timeout)
        self._eject_failures = int(eject_failures)
        self._retries = int(retries)
        self._connect_timeout = float(connect_timeout)
        self._ring = HashRing(replicas=replicas)
        self._backends: dict[str, _Backend] = {}
        self._next_index = 0
        for address in backends:
            self._admit(address)
        # fingerprint -> canonical netlist: the lazy re-upload source.
        self._netlists: dict[str, Any] = {}
        # handle -> (backend address, routing fingerprint).
        self._handles: OrderedDict[str, tuple[str, str]] = OrderedDict()
        self._cid = f"router-{uuid.uuid4().hex}"
        self._next_rid = 0
        self.backend_deaths = 0
        self.reroutes = 0
        self.netlist_reuploads = 0
        self.ejections = 0
        self.readmissions = 0
        self.http_address: str | None = None

    # ----------------------------------------------------------- membership

    def _admit(self, address: str) -> _Backend:
        parse_address(address)  # validate early
        backend = self._backends.get(address)
        if backend is not None:
            return backend
        backend = _Backend(address, self._next_index)
        self._next_index += 1
        self._backends[address] = backend
        self._ring.add(address)
        return backend

    def _up_backends(self) -> list[_Backend]:
        return [b for b in self._backends.values() if b.state == "up"]

    def add_backend(self, address: str, timeout: float = 30.0) -> dict:
        """Thread-safe admin add (tests/tools); see also ``router_add``."""
        return self._run_threadsafe(self._admin_add(address), timeout)

    def remove_backend(self, address: str, timeout: float = 30.0) -> dict:
        """Thread-safe admin drain+remove; see also ``router_remove``."""
        return self._run_threadsafe(self._admin_remove(address), timeout)

    def _run_threadsafe(self, coro, timeout: float):
        loop = self._loop
        if loop is None:
            raise RuntimeError("router is not running")
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)

    async def _admin_add(self, address: str) -> dict:
        try:
            parse_address(address)
        except ValueError as exc:
            raise RequestError(ERR_BAD_REQUEST, str(exc)) from None
        known = address in self._backends
        backend = self._admit(address)
        if backend.state != "up":
            # A re-added draining/down backend returns to service.
            backend.state = "up"
            backend.consecutive_failures = 0
            self._ring.add(address)
        return {"added": address, "known": known, "index": backend.index}

    async def _admin_remove(self, address: str) -> dict:
        backend = self._backends.get(address)
        if backend is None:
            raise RequestError(ERR_BAD_REQUEST, f"unknown backend {address!r}")
        # Out of the ring first: no new request routes here, in-flight
        # ones finish inside the drain window.
        self._ring.remove(address)
        backend.state = "draining"
        await self._drain(lambda: backend.in_flight)
        drained = backend.in_flight == 0
        await backend.drop_link()
        del self._backends[address]
        self._handles = OrderedDict(
            (handle, entry)
            for handle, entry in self._handles.items()
            if entry[0] != address
        )
        return {"removed": address, "drained": drained}

    # ----------------------------------------------------------- lifecycle

    async def _listen(self) -> list:
        listeners = [
            await asyncio.start_server(
                self._serve_frames, host=self._host, port=self._port
            )
        ]
        bound = listeners[0].sockets[0].getsockname()
        self.address = f"{bound[0]}:{bound[1]}"
        if self._http_port is not None:
            listeners.append(
                await asyncio.start_server(
                    self._handle_http_connection, host=self._host, port=self._http_port
                )
            )
            http_bound = listeners[1].sockets[0].getsockname()
            self.http_address = f"http://{http_bound[0]}:{http_bound[1]}"
        self._tasks.add(asyncio.ensure_future(self._health_loop()))
        return listeners

    def _announce(self) -> list[str]:
        lines = super()._announce()
        if self.http_address:
            lines.append(f"repro-router http on {self.http_address}")
        return lines

    def _pending(self) -> int:
        return sum(b.in_flight for b in self._backends.values())

    async def _close(self) -> None:
        for backend in self._backends.values():
            await backend.drop_link()

    def summary(self) -> str:
        return (
            f"repro-router: {self.backend_deaths} backend death(s), "
            f"{self.reroutes} reroute(s)"
        )

    # --------------------------------------------------------------- health

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            for backend in list(self._backends.values()):
                if backend.state == "draining":
                    continue
                if await self._probe(backend):
                    backend.consecutive_failures = 0
                    if backend.state == "down":
                        backend.state = "up"
                        self.readmissions += 1
                else:
                    self._note_failure(backend)

    async def _probe(self, backend: _Backend) -> bool:
        """One liveness ping on a *fresh* connection.

        A dedicated connection (not the pipelined link) so a probe is
        never FIFO-queued behind a long-running pipeline request —
        slow must not look like dead.
        """
        try:
            _, writer, info = await _handshake(backend.address, self._health_timeout)
        except (OSError, ProtocolError, asyncio.TimeoutError):
            return False
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
        return info is not None and info.message.get("ok") is True

    def _note_failure(self, backend: _Backend) -> None:
        backend.consecutive_failures += 1
        if (
            backend.state == "up"
            and backend.consecutive_failures >= self._eject_failures
        ):
            # Ejection stops new traffic but leaves ring membership
            # intact: a re-admitted backend gets its exact shard back.
            backend.state = "down"
            self.ejections += 1

    # ------------------------------------------------------------------ ops

    async def _op_ping(self, params: dict, binary: bool) -> dict:
        return {
            "pong": True,
            "server": "repro-router",
            "protocol": PROTOCOL_VERSION,
            "backends_up": len(self._up_backends()),
            "backends": len(self._backends),
        }

    async def _op_stats(self, params: dict, binary: bool) -> dict:
        return _wire_wrap(await self._stats())

    @staticmethod
    def _address(params: dict, op: str) -> str:
        address = params.get("address")
        if not isinstance(address, str):
            raise RequestError(ERR_BAD_REQUEST, f"{op} needs an address")
        return address

    async def _op_router_add(self, params: dict, binary: bool) -> dict:
        return await self._admin_add(self._address(params, "router_add"))

    async def _op_router_remove(self, params: dict, binary: bool) -> dict:
        return await self._admin_remove(self._address(params, "router_remove"))

    # Ops the router answers itself; everything else is forwarded.
    _OPS = {
        "ping": _op_ping,
        "stats": _op_stats,
        "shutdown": ServingApp._op_shutdown,
        "router_add": _op_router_add,
        "router_remove": _op_router_remove,
    }

    async def _unknown_op(self, op: str, params: dict, request: dict) -> Any:
        """Forward a non-local op; relay the backend's reply."""
        self._counters[op] += 1
        response = await self._route(request, op, params)
        if response.get("ok"):
            return _wire_wrap(response.get("result"))
        error = response.get("error") or {}
        raise RequestError(
            error.get("code", ERR_INTERNAL),
            error.get("message", "unknown error"),
            error.get("retry_after"),
        )

    # -------------------------------------------------------------- routing

    def _routing_key(self, op: str, params: dict) -> tuple[str, str | None]:
        """(ring key, pinned backend address or None) for one request.

        The key is the netlist fingerprint wherever one is knowable —
        that is the whole federation contract.  Handle references pin
        the request to the backend that minted the handle (handles are
        backend-local); experiments hash on their name so the named
        figures spread across the fleet.
        """
        if op == "register_netlist":
            netlist = params.get("netlist")
            if isinstance(netlist, str):
                netlist = unpack_obj(netlist)
            if netlist is not None and not isinstance(netlist, (bytes, int, float)):
                try:
                    fingerprint = netlist_fingerprint(netlist)
                except Exception:
                    return "op:register_netlist", None
                # The re-upload cache: on backend failover the new
                # owner gets this object re-registered lazily.
                self._netlists.setdefault(fingerprint, netlist)
                return fingerprint, None
            return "op:register_netlist", None
        if op == "run_experiment":
            name = params.get("name")
            return f"experiment:{name}", None
        pinned = None
        key = None
        for handle_param in ("program_id", "lot_id"):
            handle = params.get(handle_param)
            if isinstance(handle, str) and handle in self._handles:
                address, fingerprint = self._handles[handle]
                if pinned is None:
                    pinned = address
                    key = fingerprint
        netlist_id = params.get("netlist_id")
        if key is None and isinstance(netlist_id, str):
            key = netlist_id
        if key is None:
            program = params.get("program")
            if program is not None:
                if isinstance(program, str):
                    program = unpack_obj(program)
                netlist = getattr(program, "netlist", None)
                if netlist is not None:
                    key = netlist_fingerprint(netlist)
                    self._netlists.setdefault(key, netlist)
        if key is None:
            chips = params.get("chips")
            if isinstance(chips, LotArrays):
                key = chips.fingerprint
        return key if key is not None else f"op:{op}", pinned

    def _pick_backend(
        self, key: str, pinned: str | None, exclude: set[str]
    ) -> _Backend | None:
        if pinned is not None and pinned not in exclude:
            backend = self._backends.get(pinned)
            if backend is not None and backend.state == "up":
                return backend
        preference = [
            address
            for address in self._ring.preference(key)
            if address not in exclude
            and (backend := self._backends.get(address)) is not None
            and backend.state == "up"
        ]
        if not preference:
            return None
        if self._load_factor is None:
            return self._backends[preference[0]]
        loads = {
            address: self._backends[address].in_flight for address in preference
        }
        choice = bounded_choice(preference, loads, self._load_factor)
        return self._backends[choice] if choice else None

    async def _route(self, request: dict, op: str, params: dict) -> dict:
        key, pinned = self._routing_key(op, params)
        message = _wire_wrap(request)
        tried: set[str] = set()
        last_failure = "no live backends"
        for attempt in range(self._retries + 1):
            backend = self._pick_backend(key, pinned if not tried else None, tried)
            if backend is None:
                break
            tried.add(backend.address)
            if attempt:
                self.reroutes += 1
            try:
                fault = chaos.fire(
                    "router.forward", index=backend.index, defer=("delay",)
                )
            except InjectedFault as exc:
                self._note_backend_death(backend)
                last_failure = str(exc)
                continue
            if fault is not None and fault.action == "delay":
                await asyncio.sleep(fault.value if fault.value is not None else 0.1)
            if fault is not None and fault.action == "reset":
                # Injected: the backend link dies before the forward.
                await backend.drop_link()
                self._note_backend_death(backend)
                last_failure = "injected backend reset"
                continue
            backend.in_flight += 1
            backend.forwarded += 1
            try:
                response = await self._call_backend(backend, message)
                response = await self._maybe_reupload(backend, message, params, response)
            except BackendDown as exc:
                self._note_backend_death(backend)
                last_failure = str(exc)
                continue
            finally:
                backend.in_flight -= 1
            self._track_handles(backend, op, key, response)
            return response
        raise RequestError(
            ERR_UNAVAILABLE,
            f"no live backend could serve this request "
            f"(tried {sorted(tried) or 'none'}: {last_failure})",
        )

    def _note_backend_death(self, backend: _Backend) -> None:
        backend.deaths += 1
        self.backend_deaths += 1
        self._note_failure(backend)

    async def _call_backend(self, backend: _Backend, message: dict) -> dict:
        link = backend.link
        if link is None:
            link = _BackendLink(backend.address)
            await link.open(self._connect_timeout)
            backend.link = link
        try:
            return await link.call(message)
        except BackendDown:
            if backend.link is link:
                backend.link = None
            await link.close()
            raise

    async def _call_own(self, backend: _Backend, op: str, params: dict) -> dict:
        """A request of the router's own (client id ``router-...``)."""
        self._next_rid += 1
        message = {"id": self._next_rid, "cid": self._cid, "op": op, "params": params}
        return await self._call_backend(backend, message)

    async def _maybe_reupload(
        self, backend: _Backend, message: dict, params: dict, response: dict
    ) -> dict:
        """Lazy netlist re-ship: heal ``unknown-netlist`` on a new owner.

        After failover (or ring growth) a backend may have never seen a
        fingerprint its predecessor knew.  If the router holds the
        netlist — every ``register_netlist`` that passed through cached
        it — it re-registers and replays the request once, exactly like
        the executor's lazy context re-ship after a worker crash.
        """
        error = response.get("error") if isinstance(response, dict) else None
        if response.get("ok") or not isinstance(error, dict):
            return response
        if error.get("code") != ERR_UNKNOWN_NETLIST:
            return response
        fingerprints = []
        netlist_id = params.get("netlist_id")
        if isinstance(netlist_id, str):
            fingerprints.append(netlist_id)
        chips = params.get("chips")
        if isinstance(chips, LotArrays):
            fingerprints.append(chips.fingerprint)
        shipped = False
        for fingerprint in fingerprints:
            netlist = self._netlists.get(fingerprint)
            if netlist is None:
                continue
            reply = await self._call_own(
                backend, "register_netlist", {"netlist": WireObj(netlist)}
            )
            if reply.get("ok"):
                shipped = True
                self.netlist_reuploads += 1
        if not shipped:
            return response
        return await self._call_backend(backend, message)

    def _track_handles(
        self, backend: _Backend, op: str, key: str, response: dict
    ) -> None:
        """Remember which backend minted each lot/program handle."""
        if not isinstance(response, dict) or not response.get("ok"):
            return
        result = response.get("result")
        if not isinstance(result, dict):
            return
        for handle_key in ("lot_id", "program_id"):
            handle = result.get(handle_key)
            if isinstance(handle, str):
                self._handles[handle] = (backend.address, key)
                self._handles.move_to_end(handle)
        while len(self._handles) > _MAX_TRACKED_HANDLES:
            self._handles.popitem(last=False)

    # ---------------------------------------------------------------- stats

    def router_stats(self) -> dict:
        """The router's own section of ``stats`` (loop-state free)."""
        return {
            "protocol": PROTOCOL_VERSION,
            "server": "repro-router",
            "backends": [b.snapshot() for b in self._backends.values()],
            "backends_up": len(self._up_backends()),
            "ring_nodes": list(self._ring.nodes),
            "requests_by_op": dict(self._counters),
            "backend_deaths": self.backend_deaths,
            "reroutes": self.reroutes,
            "netlist_reuploads": self.netlist_reuploads,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "registered_netlists": len(self._netlists),
            "handles_tracked": len(self._handles),
            "bad_frames": self._bad_frames,
            "connections_open": self._connections_open,
            "connections_total": self._connections_total,
            "draining": self._stopping,
        }

    async def _stats(self) -> dict:
        backends: dict[str, Any] = {}
        for backend in self._up_backends():
            try:
                reply = await self._call_own(backend, "stats", {})
            except BackendDown as exc:
                self._note_backend_death(backend)
                continue
            if reply.get("ok"):
                backends[backend.address] = reply.get("result")
        return {"router": self.router_stats(), "backends": backends}

    # ----------------------------------------------------------------- HTTP

    async def _handle_http_connection(self, reader, writer) -> None:
        from repro.gateway.http import HttpError, encode_response, read_request

        async with self._connection(writer, count=False):
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    body = json.dumps({"ok": False, "error": str(exc)}).encode()
                    writer.write(
                        encode_response(exc.status, body, keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, body, content_type = await self._http_route(request)
                writer.write(
                    encode_response(
                        status, body, content_type, keep_alive=request.keep_alive
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break

    async def _http_route(self, request) -> tuple[int, bytes, str]:
        def reply(status: int, payload: dict) -> tuple[int, bytes, str]:
            return status, json.dumps(payload).encode(), "application/json"

        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            up = len(self._up_backends())
            status = "ok" if up else "degraded"
            return reply(
                200 if up else 503,
                {"status": status, "backends_up": up, "backends": len(self._backends)},
            )
        if path == "/metrics" and method == "GET":
            return 200, self._metrics().encode(), "text/plain; version=0.0.4"
        if path == "/v1/stats" and method == "GET":
            return reply(200, await self._stats())
        if path == "/v1/backends" and method == "GET":
            return reply(
                200, {"backends": [b.snapshot() for b in self._backends.values()]}
            )
        if path == "/v1/backends" and method == "POST":
            try:
                payload = json.loads(request.body or b"{}")
                result = await self._admin_add(payload["address"])
            except (ValueError, KeyError, TypeError, RequestError) as exc:
                return reply(400, {"ok": False, "error": str(exc)})
            return reply(200, result)
        if path.startswith("/v1/backends/") and method == "DELETE":
            address = path[len("/v1/backends/"):]
            try:
                result = await self._admin_remove(address)
            except RequestError as exc:
                return reply(400, {"ok": False, "error": str(exc)})
            return reply(200, result)
        return reply(404, {"ok": False, "error": f"no route {method} {path}"})

    def _metrics(self) -> str:
        """Prometheus text exposition of the router's counters."""
        stats = self.router_stats()
        backends = stats["backends"]
        return render_metrics([
            ("repro_router_backends_up", "gauge",
             "Backends currently routable.", stats["backends_up"]),
            ("repro_router_backends", "gauge",
             "Backends known to the router.", len(backends)),
            ("repro_router_backend_deaths_total", "counter",
             "Backend connection failures observed while forwarding.",
             stats["backend_deaths"]),
            ("repro_router_reroutes_total", "counter",
             "Requests retried on another backend after a failure.",
             stats["reroutes"]),
            ("repro_router_netlist_reuploads_total", "counter",
             "Netlists lazily re-registered to a new owner.",
             stats["netlist_reuploads"]),
            ("repro_router_ejections_total", "counter",
             "Backends ejected after consecutive health failures.",
             stats["ejections"]),
            ("repro_router_readmissions_total", "counter",
             "Ejected backends re-admitted after a successful probe.",
             stats["readmissions"]),
            ("repro_router_requests_total", "counter",
             "Requests accepted on the protocol front end.",
             sum(stats["requests_by_op"].values())),
            ("repro_router_backend_in_flight", "gauge",
             "In-flight requests per backend.",
             ("backend", [(b["address"], b["in_flight"]) for b in backends])),
            ("repro_router_backend_forwarded_total", "counter",
             "Requests forwarded per backend.",
             ("backend", [(b["address"], b["forwarded"]) for b in backends])),
        ])
