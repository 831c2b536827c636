"""Clients for the HTTP gateway: pipelined :class:`AsyncClient` and the
thread-backed sync :class:`GatewayClient` shim.

:class:`AsyncClient` keeps **one** connection and pipelines every
in-flight request on it: requests are written as they are issued, and
because the gateway answers strictly in request order, responses are
correlated by arrival order (each echo of ``X-Repro-Request-Id`` is
checked, so a desynchronized stream is detected, not mis-delivered).
One slow fabricate therefore no longer blocks the *submission* of ten
more — they queue server-side across scheduler sessions instead of
client-side.

Failure semantics are the TCP client's — both drive the one
:class:`~repro.server.core.RetryPolicy`: a client id plus a per-call
request id form the idempotency key, so a retry after a connection
loss is answered from the gateway's replay cache; ``429 overloaded``
responses honor the server's ``retry_after`` hint; ``unknown-netlist``
/ ``unknown-handle`` responses re-register / re-upload from local
objects once.  Everything is counted in :attr:`AsyncClient.counters`.

:class:`GatewayClient` wraps an :class:`AsyncClient` in a background
event-loop thread and exposes the blocking ``Session``-shaped surface
(``fabricate`` / ``build_program`` / ``test`` / ``run_experiment``) —
what ``repro-experiments --server http://...`` uses.
"""

from __future__ import annotations

import asyncio
import json
import ssl as ssl_module
import threading
import uuid
from collections import deque
from typing import Any, Awaitable, Callable, Mapping, Sequence
from urllib.parse import urlsplit

from repro.circuit.netlist import Netlist
from repro.gateway import codec, http
from repro.manufacturing.lot import FabricatedLot
from repro.manufacturing.process import ProcessRecipe
from repro.server.core import IdentityMap, RetryPolicy, reply_result
from repro.server.protocol import (
    ERR_UNKNOWN_HANDLE,
    ERR_UNKNOWN_NETLIST,
    ConnectionLost,
    RemoteError,
)
from repro.tester.program import TestProgram
from repro.tester.results import LotTestResult

__all__ = ["AsyncClient", "GatewayClient", "parse_url"]


def parse_url(url: str) -> tuple[str, str, int]:
    """``http[s]://host:port`` -> ``(scheme, host, port)``."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"gateway URL must be http:// or https://, got {url!r}")
    if not parts.hostname:
        raise ValueError(f"gateway URL has no host: {url!r}")
    port = parts.port or (443 if parts.scheme == "https" else 80)
    return parts.scheme, parts.hostname, port


def _json_result(response: http.HttpResponse) -> dict:
    """A JSON envelope's result; an error envelope raises :class:`RemoteError`."""
    try:
        envelope = json.loads(response.body)
        if not isinstance(envelope, dict):
            raise ValueError("not an object")
    except (ValueError, UnicodeDecodeError):
        raise RemoteError(
            "internal",
            f"undecodable {response.status} response ({response.body[:120]!r})",
        )
    return reply_result(envelope)


class AsyncClient:
    """A pipelined asyncio connection to one :class:`~repro.gateway.Gateway`.

    Parameters
    ----------
    url:
        ``http://host:port`` or ``https://host:port``.
    token:
        Bearer token sent on every request when set.
    timeout:
        Seconds to wait for each response (pipeline requests can be
        slow — fabricating a big lot *is* the request).
    retries, backoff, backoff_max:
        Retry budget and exponential backoff for connection losses and
        ``overloaded`` rejections, ±50% deterministic jitter.
    ssl_context:
        TLS context for ``https`` URLs; defaults to
        :func:`ssl.create_default_context` (pass a custom context to
        trust a self-signed test certificate).

    Use as an async context manager, or call :meth:`connect` /
    :meth:`close` explicitly.  Coroutine-safe: many tasks may issue
    requests concurrently on one client.
    """

    def __init__(
        self,
        url: str,
        token: str | None = None,
        timeout: float = 600.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        ssl_context: ssl_module.SSLContext | None = None,
    ):
        self.url = url.rstrip("/")
        self._scheme, self._host, self._port = parse_url(url)
        self._ssl = ssl_context
        if self._scheme == "https" and self._ssl is None:
            self._ssl = ssl_module.create_default_context()
        self._token = token
        self._timeout = timeout
        self._cid = uuid.uuid4().hex
        self._retry = RetryPolicy(self._cid, retries, backoff, backoff_max)
        self.counters = self._retry.counters
        self.counters["pipelined_max"] = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        # (request id, future) in write order — the correlation queue.
        self._inflight: deque[tuple[str, asyncio.Future]] = deque()
        self._write_lock = asyncio.Lock()
        self._conn_lock = asyncio.Lock()
        self._generation = 0
        self._connected_once = False
        self._next_id = 0
        self._closed = False
        self._netlist_ids = IdentityMap()
        self._handles = IdentityMap()

    # ----------------------------------------------------------- lifecycle

    async def connect(self) -> "AsyncClient":
        await self._ensure_connected()
        return self

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._drop_connection(ConnectionLost("client closed"))
        self._netlist_ids.clear()
        self._handles.clear()

    async def __aenter__(self) -> "AsyncClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ----------------------------------------------------------- transport

    def _drop_connection(self, exc: ConnectionLost, generation: int | None = None) -> None:
        """Kill the connection and fail every in-flight future with ``exc``."""
        if generation is not None and generation != self._generation:
            return  # a newer connection already replaced the failed one
        self._generation += 1
        writer, self._writer = self._writer, None
        self._reader = None
        task, self._reader_task = self._reader_task, None
        if task is not None and not task.done():
            task.cancel()
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass
        while self._inflight:
            _rid, future = self._inflight.popleft()
            if not future.done():
                future.set_exception(
                    ConnectionLost(str(exc))
                )

    async def _ensure_connected(self) -> None:
        if self._closed:
            raise RuntimeError("client is closed")
        async with self._conn_lock:
            if self._writer is not None:
                return
            try:
                reader, writer = await asyncio.open_connection(
                    self._host, self._port, ssl=self._ssl
                )
            except OSError as exc:
                raise ConnectionLost(str(exc)) from exc
            self._reader, self._writer = reader, writer
            if self._connected_once:
                self.counters["reconnects"] += 1
                # Netlist ids are re-proved on whatever server answers
                # now; handles fall back to re-upload on unknown-handle.
                self._netlist_ids.clear()
            self._connected_once = True
            generation = self._generation
            self._reader_task = asyncio.ensure_future(
                self._read_loop(reader, generation)
            )

    async def _read_loop(self, reader: asyncio.StreamReader, generation: int) -> None:
        """Resolve in-flight futures strictly in response order."""
        try:
            while True:
                response = await http.read_response(reader)
                if not self._inflight:
                    raise http.HttpError(400, "response with no request in flight")
                rid, future = self._inflight.popleft()
                echo = response.headers.get("x-repro-request-id")
                if echo is not None and echo != rid:
                    raise http.HttpError(
                        400,
                        f"response correlates to request {echo!r}, expected "
                        f"{rid!r}; the stream is desynchronized",
                    )
                if not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            pass
        except Exception as exc:
            self._drop_connection(ConnectionLost(str(exc)), generation)

    async def _send_once(
        self, method: str, path: str, body: bytes, rid: str
    ) -> http.HttpResponse:
        """Write one request and await its (in-order) response."""
        await self._ensure_connected()
        headers = {
            "x-repro-client-id": self._cid,
            "x-repro-request-id": rid,
        }
        if self._token is not None:
            headers["authorization"] = f"Bearer {self._token}"
        data = http.encode_request(method, path, body, headers, host=self._host)
        future: asyncio.Future
        async with self._write_lock:
            writer = self._writer
            if writer is None:
                raise ConnectionLost("connection lost before send")
            future = asyncio.get_running_loop().create_future()
            self._inflight.append((rid, future))
            self.counters["pipelined_max"] = max(
                self.counters["pipelined_max"], len(self._inflight)
            )
            generation = self._generation
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                self._drop_connection(ConnectionLost(str(exc)), generation)
        try:
            return await asyncio.wait_for(future, self._timeout)
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            # The stream still owes us this response: it is
            # desynchronized for every later request too.
            lost = ConnectionLost(
                f"no reply within {self._timeout:g}s; dropping the "
                f"desynchronized connection"
            )
            self._drop_connection(lost)
            raise lost from None

    # ------------------------------------------------------------- request

    async def _call(self, method: str, path: str, body: bytes, decode: Callable) -> Any:
        """One logical call with retry/replay: ``decode(response)``.

        The request id is allocated once per logical call; retries after
        a connection loss resend the same ``(cid, rid)`` so the
        gateway's idempotent replay cache never re-runs completed work.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        self._next_id += 1
        rid = f"{self._next_id}"

        async def once() -> Any:
            return decode(await self._send_once(method, path, body, rid))

        return await self._retry.acall(once)

    async def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One JSON API call with retry/replay (low-level surface)."""
        body = json.dumps(payload).encode() if payload is not None else b""
        return await self._call(method, path, body, _json_result)

    async def request_text(self, method: str, path: str) -> str:
        """A non-JSON endpoint (``/metrics``) as text, with retry/replay."""
        return await self._call(
            method, path, b"", lambda r: r.body.decode("utf-8", errors="replace")
        )

    async def _with_reupload(
        self, attempt: Callable[[], Awaitable[dict]]
    ) -> dict:
        """Re-register/re-upload once after server-side state loss."""
        try:
            return await attempt()
        except RemoteError as exc:
            if exc.code not in (ERR_UNKNOWN_NETLIST, ERR_UNKNOWN_HANDLE):
                raise
            self._netlist_ids.clear()
            self._handles.clear()
            return await attempt()

    # ------------------------------------------------------------ pipeline

    async def healthz(self) -> dict:
        return await self.request("GET", "/healthz")

    async def metrics_text(self) -> str:
        return await self.request_text("GET", "/metrics")

    async def register(self, netlist: Netlist) -> str:
        """Ensure ``netlist`` is registered; return its fingerprint id."""
        cached = self._netlist_ids.get(netlist)
        if cached is not None:
            return cached
        result = await self.request(
            "POST", "/v1/netlists", {"netlist": codec.netlist_to_json(netlist)}
        )
        netlist_id = result["netlist_id"]
        self._netlist_ids.put(netlist, netlist_id)
        return netlist_id

    async def fabricate(
        self,
        netlist: Netlist,
        recipe: ProcessRecipe,
        num_chips: int,
        dies_per_wafer: int = 100,
        seed=None,
    ) -> FabricatedLot:
        """Fabricate a lot on the gateway; bit-identical to ``Session``."""

        async def attempt() -> dict:
            return await self.request(
                "POST",
                "/v1/lots",
                {
                    "netlist_id": await self.register(netlist),
                    "recipe": codec.recipe_to_json(recipe),
                    "num_chips": num_chips,
                    "dies_per_wafer": dies_per_wafer,
                    "seed": seed,
                },
            )

        result = await self._with_reupload(attempt)
        lot = codec.lot_from_json(netlist, result["lot"])
        self._handles.put(lot, result["lot_id"])
        return lot

    async def build_program(
        self,
        netlist: Netlist,
        patterns: Sequence[Mapping[str, int]],
        collapse: bool = True,
    ) -> TestProgram:
        """Build a test program on the gateway; bit-identical to ``Session``."""

        async def attempt() -> dict:
            return await self.request(
                "POST",
                "/v1/programs",
                {
                    "netlist_id": await self.register(netlist),
                    "patterns": codec.patterns_to_json(patterns),
                    "collapse": collapse,
                },
            )

        result = await self._with_reupload(attempt)
        program = codec.program_from_json(netlist, result["program"])
        self._handles.put(program, result["program_id"])
        return program

    async def test(self, lot: FabricatedLot, program: TestProgram) -> LotTestResult:
        """First-fail test ``lot`` against ``program`` on the gateway.

        Gateway-built lots and programs go up by handle; locally built
        ones (and any whose handle expired) are uploaded as JSON first.
        """

        async def attempt() -> dict:
            netlist_id = await self.register(program.netlist)
            lot_handle = self._handles.get(lot)
            if lot_handle is None:
                # A column-backed lot goes up under the netlist it was
                # drawn on, so the gateway refuses it against a program
                # for another circuit.
                lot_netlist = (
                    program.netlist if lot.layout is None else lot.layout.netlist
                )
                uploaded = await self.request(
                    "POST",
                    "/v1/lots",
                    {
                        "netlist_id": await self.register(lot_netlist),
                        "lot": codec.lot_to_json(lot_netlist, lot),
                    },
                )
                lot_handle = uploaded["lot_id"]
                self._handles.put(lot, lot_handle)
            program_handle = self._handles.get(program)
            if program_handle is None:
                uploaded = await self.request(
                    "POST",
                    "/v1/programs",
                    {
                        "netlist_id": netlist_id,
                        "program": codec.program_to_json(program),
                    },
                )
                program_handle = uploaded["program_id"]
                self._handles.put(program, program_handle)
            return await self.request(
                "POST",
                f"/v1/lots/{lot_handle}/test",
                {"program_id": program_handle},
            )

        result = await self._with_reupload(attempt)
        return codec.result_from_json(program, result)

    async def run_experiment(self, name: str) -> str:
        """Run one named paper experiment on the gateway; returns the report."""
        result = await self.request("POST", f"/v1/experiments/{name}", {})
        return result["report"]

    async def stats(self) -> dict:
        """Scheduler + HTTP observability counters."""
        return await self.request("GET", "/v1/stats")

    async def shutdown_server(self) -> None:
        """Ask the gateway to drain and exit."""
        await self.request("POST", "/v1/shutdown", {})


class GatewayClient:
    """Blocking facade over :class:`AsyncClient` (own event-loop thread).

    The drop-in for sync call sites — ``repro-experiments --server
    http://host:port`` and the gateway benchmarks::

        with GatewayClient("http://127.0.0.1:8080") as client:
            lot = client.fabricate(chip, recipe, num_chips=12, seed=7)
            program = client.build_program(chip, patterns)
            result = client.test(lot, program)
    """

    def __init__(self, url: str, **kwargs):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-gw-client", daemon=True
        )
        self._thread.start()
        self._client = AsyncClient(url, **kwargs)
        try:
            self._call(self._client.connect())
        except BaseException:
            self._stop_loop()
            raise

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    @property
    def counters(self) -> dict:
        return self._client.counters

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self._client.close())
        finally:
            self._stop_loop()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Blocking mirrors of the async surface.

    def healthz(self) -> dict:
        return self._call(self._client.healthz())

    def metrics_text(self) -> str:
        return self._call(self._client.metrics_text())

    def register(self, netlist: Netlist) -> str:
        return self._call(self._client.register(netlist))

    def fabricate(self, *args, **kwargs) -> FabricatedLot:
        return self._call(self._client.fabricate(*args, **kwargs))

    def build_program(self, *args, **kwargs) -> TestProgram:
        return self._call(self._client.build_program(*args, **kwargs))

    def test(self, lot, program) -> LotTestResult:
        return self._call(self._client.test(lot, program))

    def run_experiment(self, name: str) -> str:
        return self._call(self._client.run_experiment(name))

    def stats(self) -> dict:
        return self._call(self._client.stats())

    def shutdown_server(self) -> None:
        self._call(self._client.shutdown_server())
