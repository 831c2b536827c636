"""Synchronous client for the lot-testing server: :class:`Client`.

The client mirrors the :class:`repro.api.Session` surface —
``fabricate`` / ``build_program`` / ``test`` / ``run_experiment`` — so
moving an experiment onto a remote server is a one-line change::

    from repro.server import Client

    with Client("127.0.0.1:7642") as client:
        lot = client.fabricate(chip, recipe, num_chips=277, seed=27)
        program = client.build_program(chip, patterns)
        result = client.test(lot, program)      # bit-identical to Session

Netlists are registered once per client (keyed by structural
fingerprint, so every client sharing a circuit shares the server's
compiled caches), and objects the server built — lots, programs — are
remembered by their server handle: passing them back to :meth:`test`
sends the small handle, not the pickled object.  Objects the client
built locally are uploaded transparently instead.

Failure handling
----------------

The client treats the connection as disposable and the *request* as the
durable unit:

* Every request carries a client id (``cid``) plus a request id that is
  allocated **once** per logical call — a retry resends the same pair,
  so the server's idempotent replay cache can answer a request whose
  first reply died on the wire without re-running the pipeline work.
* Any transport failure — reset, broken pipe, a reply that never
  decodes, or a ``socket.timeout`` **mid-frame** (after which leftover
  reply bytes would corrupt the next request: the socket is
  desynchronized, not slow) — marks the connection dead and raises the
  typed :class:`~repro.server.protocol.ConnectionLost`; the client
  reconnects, re-handshakes, and replays the request.
* ``ERR_OVERLOADED`` replies are retried after the server's
  ``retry_after`` hint; every other server error raises
  :class:`~repro.server.protocol.RemoteError` immediately.  The retry
  budget, backoff and jitter are the
  :class:`~repro.server.core.RetryPolicy` the gateway client shares.
* After a *server restart*, cached netlist ids and handles are stale;
  pipeline calls catch ``unknown-netlist`` / ``unknown-handle``, drop
  the caches, re-register / re-upload from the local objects, and retry
  once — so a bounced server is invisible to callers.

Everything the resilience layer does is visible in
:attr:`Client.counters` (``retries``, ``reconnects``, ``timeouts``,
``overload_rejections``, ``connection_losses``).
"""

from __future__ import annotations

import socket
import uuid
from typing import Any, Callable, Mapping, Sequence

from repro import chaos
from repro.circuit.netlist import Netlist
from repro.manufacturing.lot import FabricatedLot
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import FabricatedChip
from repro.server.core import IdentityMap, RetryPolicy, reply_result
from repro.server.protocol import (
    ERR_UNKNOWN_HANDLE,
    ERR_UNKNOWN_NETLIST,
    ConnectionLost,
    LotArrays,
    ProtocolError,
    RemoteError,
    WireObj,
    encode_frame,
    lot_from_arrays,
    netlist_fingerprint,
    pack_lot,
    pack_obj,
    recv_frame,
    unpack_obj,
)
from repro.tester.program import TestProgram
from repro.tester.results import LotTestResult

__all__ = ["Client", "parse_address"]


def parse_address(address: str) -> tuple[str, Any]:
    """Parse a server address into ``("tcp", (host, port))`` or ``("unix", path)``.

    Accepted forms: ``"host:port"`` (TCP) and ``"unix:/path/to.sock"``
    (Unix-domain socket).  Anything else — a non-string, or an address
    containing whitespace or control characters — is a ``ValueError``.
    """
    if not isinstance(address, str):
        raise ValueError(f"address must be a string, got {type(address).__name__}")
    if any(ch.isspace() or not ch.isprintable() for ch in address):
        raise ValueError(
            f"address must not contain whitespace or control characters: {address!r}"
        )
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError("empty unix socket path")
        return ("unix", path)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address must be 'host:port' or 'unix:/path', got {address!r}"
        )
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        raise ValueError(f"invalid port in address {address!r}") from None


class Client:
    """A synchronous connection to one :class:`~repro.server.LotServer`.

    Parameters
    ----------
    address:
        ``"host:port"`` or ``"unix:/path"`` (see :func:`parse_address`).
        A comma-separated list (``"host:port,host:port"``) names
        failover endpoints — typically several ``repro-router``
        front ends over one federation: the client connects to the
        first that answers and rotates to the next on every reconnect
        attempt, so one dead front end costs a retry, not the run.
    timeout:
        Socket timeout in seconds for connect and each response
        (pipeline requests can be slow — fabricating a big lot *is* the
        request — so the default is generous).
    retries:
        How many times one logical request is retried after a
        connection loss or an ``overloaded`` rejection before the error
        propagates.  ``0`` disables retries.
    backoff, backoff_max:
        Exponential reconnect/retry backoff: the first retry waits
        ~``backoff`` seconds, doubling per attempt up to
        ``backoff_max``, with ±50% deterministic jitter (seeded by the
        client id) so a herd of clients doesn't reconnect in lockstep
        (see :class:`~repro.server.core.RetryPolicy`).

    Clients are context managers; they are not thread-safe (use one
    client per thread — the server multiplexes them).
    """

    def __init__(
        self,
        address: str,
        timeout: float = 600.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
    ):
        self.address = address
        self._addresses = [
            part.strip() for part in address.split(",") if part.strip()
        ]
        if not self._addresses:
            raise ValueError("address must name at least one endpoint")
        for endpoint in self._addresses:
            parse_address(endpoint)  # validate the whole list up front
        self._address_index = 0
        self._timeout = timeout
        # The idempotency key: (cid, request id) names one logical
        # request across however many sockets it takes to deliver it.
        self._cid = uuid.uuid4().hex
        self._retry = RetryPolicy(self._cid, retries, backoff, backoff_max)
        self.counters = self._retry.counters
        self._sock: socket.socket | None = None
        self._next_id = 0
        self._closed = False
        self._netlist_ids = IdentityMap()
        self._netlists_by_fid: dict[str, Netlist] = {}
        self._handles = IdentityMap()
        self._binary = False
        # Try each failover endpoint once, in order.
        for _ in range(len(self._addresses)):
            try:
                self._connect()
                break
            except ConnectionLost as exc:
                last = exc
        else:
            if len(self._addresses) == 1:
                raise last
            raise ConnectionLost(
                f"could not connect to any of {self._addresses}: {last}"
            )

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._drop_socket()
        finally:
            self._netlist_ids.clear()
            self._handles.clear()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- transport

    def _drop_socket(self) -> None:
        """Mark the connection dead; the next request must reconnect."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _connect(self) -> None:
        """Open a fresh socket and run the format handshake.

        A failure raises :class:`ConnectionLost` and rotates to the next
        failover endpoint, so the next attempt tries the next front end.
        """
        try:
            kind, target = parse_address(self._addresses[self._address_index])
            if kind == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self._timeout)
                sock.connect(target)
            else:
                sock = socket.create_connection(target, timeout=self._timeout)
            self._sock = sock
            # Handshake: a protocol-2 server gets binary frames (raw
            # array payloads); anything older falls back to base64-in-JSON.
            self._binary = False
            self._next_id += 1
            pong = self._request_once(self._next_id, "ping", {})
        except OSError as exc:
            self._drop_socket()
            self._address_index = (self._address_index + 1) % len(self._addresses)
            if isinstance(exc, ConnectionLost):
                raise
            raise ConnectionLost(str(exc)) from exc
        self._binary = pong.get("protocol", 1) >= 2

    def _request_once(self, rid: int, op: str, params: dict) -> dict:
        """One request/response round trip on the current socket.

        Every transport failure — including a mid-frame timeout, after
        which the stream is desynchronized (the next bytes belong to
        the stale reply, not to any future request) — drops the socket
        and raises :class:`ConnectionLost`; this socket is never reused.
        """
        sock = self._sock
        assert sock is not None
        payload = encode_frame(
            {"id": rid, "cid": self._cid, "op": op, "params": params},
            binary=self._binary,
        )
        try:
            fault = chaos.fire("client.send")
            if fault is not None and fault.action == "reset":
                # Injected: ship a partial frame, then cut the line.
                cut = (
                    int(fault.value)
                    if fault.value
                    else max(1, len(payload) // 2)
                )
                sock.sendall(payload[:cut])
                raise ConnectionLost("injected connection reset mid-request")
            sock.sendall(payload)
            response = recv_frame(sock)
        except ConnectionLost:
            self._drop_socket()
            raise
        except socket.timeout as exc:
            self.counters["timeouts"] += 1
            self._drop_socket()
            raise ConnectionLost(
                f"no reply within {self._timeout:g}s; dropping the "
                f"desynchronized connection"
            ) from exc
        except ProtocolError as exc:
            self._drop_socket()
            raise ConnectionLost(f"undecodable reply: {exc}") from exc
        except OSError as exc:
            self._drop_socket()
            raise ConnectionLost(str(exc)) from exc
        if response is None:
            self._drop_socket()
            raise ConnectionLost("server closed the connection")
        if response.get("id") != rid:
            self._drop_socket()
            raise ConnectionLost(
                f"response id {response.get('id')!r} does not match request "
                f"id {rid}; dropping the desynchronized connection"
            )
        return reply_result(response)

    # ------------------------------------------------------------- request

    def request(self, op: str, **params) -> dict:
        """Send one request and block for its response (low-level API).

        The request id is allocated once; connection losses reconnect
        and *replay* it (the server's idempotent cache recognizes the
        retry), and ``overloaded`` rejections back off per the server's
        ``retry_after`` hint — up to the ``retries`` budget.

        A successful reconnect forgets the cached netlist ids (one cheap
        idempotent ``register_netlist`` per circuit re-proves them on
        whatever server is now answering); handles are kept — if the
        server really restarted, the pipeline helpers fall back to
        re-upload on ``unknown-handle``.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        self._next_id += 1
        rid = self._next_id

        def once() -> dict:
            if self._sock is None:
                self._connect()
                self.counters["reconnects"] += 1
                self._netlist_ids.clear()
            return self._request_once(rid, op, params)

        return self._retry.call(once)

    def _pipeline_request(self, op: str, build_params: Callable[[], dict]) -> dict:
        """A pipeline request that survives server-side state loss.

        ``build_params`` is re-invoked on retry so the request is
        rebuilt against *current* caches: if the server answers
        ``unknown-netlist`` / ``unknown-handle`` (it restarted, or FIFO-
        evicted our handles), the cached identities are dropped and the
        same logical call re-registers / re-uploads from the local
        objects — one extra round trip, identical results.
        """
        try:
            return self.request(op, **build_params())
        except RemoteError as exc:
            if exc.code not in (ERR_UNKNOWN_NETLIST, ERR_UNKNOWN_HANDLE):
                raise
            self._netlist_ids.clear()
            self._handles.clear()
            return self.request(op, **build_params())

    def _pack(self, obj: Any) -> Any:
        """An object parameter in this connection's wire format."""
        return WireObj(obj) if self._binary else pack_obj(obj)

    @staticmethod
    def _unpack(value: Any) -> Any:
        """A result object in either wire format (str = base64 pickle)."""
        return unpack_obj(value) if isinstance(value, str) else value

    # ------------------------------------------------------------ pipeline

    def ping(self) -> dict:
        """Round-trip liveness check; returns the server's banner."""
        return self.request("ping")

    def register(self, netlist: Netlist) -> str:
        """Ensure ``netlist`` is registered server-side; return its id.

        Idempotent and cached per client — later pipeline calls on the
        same object send only the id.
        """
        cached = self._netlist_ids.get(netlist)
        if cached is not None:
            return cached
        result = self.request("register_netlist", netlist=self._pack(netlist))
        netlist_id = result["netlist_id"]
        assert netlist_id == netlist_fingerprint(netlist)
        self._netlist_ids.put(netlist, netlist_id)
        self._netlists_by_fid[netlist_id] = netlist
        return netlist_id

    def fabricate(
        self,
        netlist: Netlist,
        recipe: ProcessRecipe,
        num_chips: int,
        dies_per_wafer: int = 100,
        seed=None,
    ) -> FabricatedLot:
        """Fabricate a lot on the server; bit-identical to ``Session.fabricate``."""
        result = self._pipeline_request(
            "fabricate",
            lambda: {
                "netlist_id": self.register(netlist),
                "recipe": self._pack(recipe),
                "num_chips": num_chips,
                "dies_per_wafer": dies_per_wafer,
                "seed": seed,
            },
        )
        lot = self._unpack(result["lot"])
        if isinstance(lot, LotArrays):
            # The server shipped arrays; rebuild against our own netlist
            # object so the chips share its cached layout and universe.
            lot = lot_from_arrays(
                self._netlists_by_fid.get(lot.fingerprint, netlist), lot
            )
        self._handles.put(lot, result["lot_id"])
        return lot

    def build_program(
        self,
        netlist: Netlist,
        patterns: Sequence[Mapping[str, int]],
        collapse: bool = True,
    ) -> TestProgram:
        """Build a test program on the server; bit-identical to ``Session``."""
        result = self._pipeline_request(
            "build_program",
            lambda: {
                "netlist_id": self.register(netlist),
                "patterns": self._pack([dict(p) for p in patterns]),
                "collapse": collapse,
            },
        )
        program = self._unpack(result["program"])
        self._handles.put(program, result["program_id"])
        return program

    def test(
        self,
        lot: FabricatedLot | Sequence[FabricatedChip],
        program: TestProgram,
    ) -> LotTestResult:
        """First-fail test a lot against ``program`` on the server.

        Server-built lots and programs are referenced by handle (no
        re-upload); locally built ones — and any whose handle the
        server no longer recognizes — are uploaded transparently, a
        column-backed lot as arrays under the netlist it was drawn on.
        """

        def build_params() -> dict:
            params: dict[str, Any] = {}
            program_handle = self._handles.get(program)
            if program_handle is not None:
                params["program_id"] = program_handle
            else:
                params["program"] = self._pack(program)
            lot_handle = self._handles.get(lot)
            if lot_handle is not None:
                params["lot_id"] = lot_handle
            else:
                chips = lot if isinstance(lot, FabricatedLot) else tuple(lot)
                if isinstance(chips, FabricatedLot) and chips.layout is not None:
                    # A column-backed lot goes up as SoA arrays under the
                    # netlist it was drawn on, so the server refuses it
                    # against a program for another circuit.
                    self.register(chips.layout.netlist)
                    chips = pack_lot(chips.layout.netlist, chips)
                elif self._binary and isinstance(chips, FabricatedLot):
                    # A chip-built lot names no netlist: its arrays are
                    # keyed on the program's (the server resolves the
                    # program — registering its netlist if uploaded —
                    # before the chips).
                    chips = pack_lot(program.netlist, chips)
                params["chips"] = self._pack(chips)
            return params

        result = self._pipeline_request("test_lot", build_params)
        return self._unpack(result["result"])

    def run_experiment(self, name: str) -> str:
        """Run one named paper experiment on the server; returns the report."""
        return self.request("run_experiment", name=name)["report"]

    def stats(self) -> dict:
        """Server, session, and pool-worker observability counters."""
        return self.request("stats")

    def shutdown_server(self) -> None:
        """Ask the server to shut down cleanly (the connection then closes)."""
        self.request("shutdown")
