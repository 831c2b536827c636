"""The HTTP/JSON front door: :class:`Gateway`.

An asyncio HTTP/1.1 server (stdlib only) exposing the lot-testing op
surface as REST resources over safe JSON payloads — the front end for
clients that cannot (or should not) speak the framed-pickle TCP
protocol:

========  ============================  =====================================
Method    Path                          Meaning
========  ============================  =====================================
POST      ``/v1/netlists``              register a netlist (dedup by
                                        structural fingerprint)
POST      ``/v1/lots``                  fabricate a lot (``recipe``) or
                                        upload one (``lot``)
POST      ``/v1/programs``              build a test program (``patterns``)
                                        or upload one (``program``)
POST      ``/v1/lots/{id}/test``        first-fail test a lot by handle
POST      ``/v1/experiments/{name}``    run a named paper experiment
GET       ``/healthz``                  liveness (never auth-gated)
GET       ``/metrics``                  Prometheus text exposition
GET       ``/v1/stats``                 scheduler + HTTP stats as JSON
POST      ``/v1/shutdown``              graceful drain and exit
========  ============================  =====================================

The pipeline ops are the TCP server's too, written once in
:class:`~repro.server.app.PipelineApp`; this module keeps only the JSON
codec.  Jobs are queued per netlist on a
:class:`~repro.server.scheduler.SessionScheduler` with up to
``max_sessions`` lanes — one session per netlist group, so distinct
netlists genuinely overlap in wall-clock where the TCP server's one
lane serializes them.

Responses on one connection are written in **request order** while the
handlers themselves run concurrently — that is what makes client-side
pipelining sound.  Replay headers (``X-Repro-Client-Id`` /
``X-Repro-Request-Id``) feed the same idempotent replay cache the TCP
server uses, so a client retrying a request whose first reply died on
the wire never re-runs pipeline work.

Security: JSON only (no pickle off the wire), optional TLS
(``tls_cert``/``tls_key``), and bearer-token auth.  Binding a
non-loopback interface without a token is refused unless
``allow_insecure=True``.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import logging
import re
import ssl

from repro.gateway import codec, http
from repro.gateway.metrics import render_metrics
from repro.server.app import PipelineApp
from repro.server.core import RequestError, error_body, lot_summary, param, program_summary
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_POISON_SHARD,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_HANDLE,
    ERR_UNKNOWN_NETLIST,
    ERR_UNKNOWN_OP,
    ERR_USER,
    ERR_WORKER_CRASH,
)

__all__ = ["Gateway"]

# Gateway-specific error code: the protocol vocabulary has no auth
# concept (the TCP server trusts its network); HTTP does.
ERR_UNAUTHORIZED = "unauthorized"

# In-order responses awaiting their turn on one connection.  Bounds how
# far ahead a pipelining client can run before reads stop draining.
_MAX_PIPELINE = 64

_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})

# Protocol error code -> HTTP status.
_STATUS_BY_CODE = {
    ERR_BAD_REQUEST: 400,
    ERR_USER: 400,
    ERR_UNAUTHORIZED: 401,
    ERR_UNKNOWN_OP: 404,
    ERR_UNKNOWN_NETLIST: 404,
    ERR_UNKNOWN_HANDLE: 404,
    ERR_OVERLOADED: 429,
    ERR_SHUTTING_DOWN: 503,
    ERR_DEADLINE: 504,
    ERR_WORKER_CRASH: 500,
    ERR_POISON_SHARD: 500,
    ERR_INTERNAL: 500,
}


def _refusal(status: int, code: str, message: str) -> tuple[int, dict, bool]:
    """A request turned away before it runs."""
    return status, {"ok": False, "error": error_body(code, message)}, False


class _Route:
    """One REST route; ``op`` names the pipeline op it runs, if any."""

    __slots__ = ("method", "pattern", "handler", "name", "op", "auth_exempt")

    def __init__(self, method, pattern, handler, name, op=None, auth_exempt=False):
        self.method = method
        self.pattern = re.compile(pattern)
        self.handler = handler
        self.name = name
        self.op = op
        self.auth_exempt = auth_exempt


class Gateway(PipelineApp):
    """Serve the lot-testing pipeline over HTTP/JSON.

    Parameters
    ----------
    host, port:
        TCP endpoint; ``port=0`` binds an ephemeral port (read
        :attr:`address` after startup).
    engine, workers, max_contexts, max_bytes, dispatch_timeout:
        Forwarded to every scheduler session.
    max_sessions:
        Upper bound on concurrently open sessions (one per netlist
        group, LRU-idle evicted) — the gateway's concurrency knob.
    max_handles:
        Bound on retained lot/program handles (FIFO per kind).
    max_queue_depth:
        Per-netlist high-water mark; past it requests answer 429 with a
        ``Retry-After`` hint.
    request_timeout:
        Per-request deadline in seconds (504 past it); ``None`` disables.
    drain_timeout:
        Graceful-shutdown wait for in-flight requests
        (``REPRO_DRAIN_TIMEOUT``, default 10 s).
    tls_cert, tls_key:
        PEM paths; both set enables TLS (the address becomes https).
    auth_token:
        Bearer token required on every route except ``/healthz``.
    allow_insecure:
        Permit binding a non-loopback host without ``auth_token``.
    """

    _kind = "gateway"
    _log = logging.getLogger("repro.gateway")
    _REGISTER_HINT = "POST /v1/netlists first"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: str = "batch",
        workers: int | str = 1,
        max_sessions: int = 4,
        max_contexts: int | None = None,
        max_bytes: int | None = None,
        max_handles: int = 256,
        max_queue_depth: int | None = None,
        request_timeout: float | None = None,
        drain_timeout: float | None = None,
        dispatch_timeout: float | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        auth_token: str | None = None,
        allow_insecure: bool = False,
    ):
        if (tls_cert is None) != (tls_key is None):
            raise ValueError("pass both tls_cert and tls_key, or neither")
        if host not in _LOOPBACK_HOSTS and not auth_token and not allow_insecure:
            raise ValueError(
                f"refusing to bind non-loopback host {host!r} without "
                f"auth_token (pass allow_insecure=True to override)"
            )
        super().__init__(
            drain_timeout,
            request_timeout,
            max_handles,
            max_sessions=max_sessions,
            max_queue_depth=max_queue_depth,
            engine=engine,
            workers=workers,
            max_contexts=max_contexts,
            max_bytes=max_bytes,
            dispatch_timeout=dispatch_timeout,
        )
        self._host = host
        self._port = port
        self._tls_cert = tls_cert
        self._tls_key = tls_key
        self._auth_token = auth_token
        self._requests_total = 0
        self._auth_failures = 0
        self._bad_requests = 0
        self._routes = [
            _Route("GET", r"^/healthz$", self._r_healthz, "healthz", auth_exempt=True),
            _Route("GET", r"^/metrics$", self._r_metrics, "metrics"),
            _Route("GET", r"^/v1/stats$", self._r_stats, "stats"),
            _Route("POST", r"^/v1/netlists$", self._r_netlists, "netlists",
                   "register_netlist"),
            _Route("POST", r"^/v1/lots$", self._r_lots, "lots", "fabricate"),
            _Route("POST", r"^/v1/programs$", self._r_programs, "programs",
                   "build_program"),
            _Route("POST", r"^/v1/lots/([^/]+)/test$", self._r_test, "test",
                   "test_lot"),
            _Route("POST", r"^/v1/experiments/([^/]+)$", self._r_experiment,
                   "experiments", "run_experiment"),
            _Route("POST", r"^/v1/shutdown$", self._r_shutdown, "shutdown"),
        ]

    # ----------------------------------------------------------- lifecycle

    async def _listen(self) -> list:
        context = None
        if self._tls_cert is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(self._tls_cert, self._tls_key)
        server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port, ssl=context
        )
        bound = server.sockets[0].getsockname()
        scheme = "https" if self._tls_cert is not None else "http"
        self.address = f"{scheme}://{bound[0]}:{bound[1]}"
        return [server]

    # --------------------------------------------------------- connections

    async def _handle_connection(self, reader, writer) -> None:
        async with self._connection(writer):
            # Responses are queued (as tasks) in request order; the writer
            # coroutine drains them in that order while handlers overlap.
            queue: asyncio.Queue = asyncio.Queue(maxsize=_MAX_PIPELINE)
            writer_task = asyncio.ensure_future(self._write_responses(queue, writer))
            try:
                while True:
                    try:
                        request = await http.read_request(reader)
                    except http.HttpError as exc:
                        # Framing failure: the stream may be desynchronized —
                        # answer once and close.
                        self._bad_requests += 1
                        payload = json.dumps(
                            {"ok": False, "error": error_body(ERR_BAD_REQUEST, str(exc))}
                        ).encode()
                        response = http.encode_response(
                            exc.status, payload, keep_alive=False
                        )
                        future = self._loop.create_future()  # type: ignore[union-attr]
                        future.set_result((response, True, False))
                        await queue.put(future)
                        break
                    if request is None:
                        break
                    await queue.put(asyncio.ensure_future(self._respond(request)))
                    if not request.keep_alive:
                        break
            finally:
                if not writer_task.done():
                    try:
                        queue.put_nowait(None)
                    except asyncio.QueueFull:
                        writer_task.cancel()
                try:
                    await writer_task
                except (asyncio.CancelledError, Exception):
                    pass

    async def _write_responses(self, queue: asyncio.Queue, writer) -> None:
        """Drain queued responses strictly in request order."""
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                payload, close, stop_after = await item
                writer.write(payload)
                await writer.drain()
                if stop_after and self._stop_event is not None:
                    self._stop_event.set()
                if close:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # Drop responses still in flight for this dead connection.
            while True:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is not None:
                    item.cancel()

    # ------------------------------------------------------------ dispatch

    def _authorized(self, request: http.HttpRequest) -> bool:
        if self._auth_token is None:
            return True
        header = request.headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            token.strip(), self._auth_token
        )

    async def _respond(self, request: http.HttpRequest) -> tuple[bytes, bool, bool]:
        """One request -> ``(response bytes, close after, stop after)``."""
        self._requests_total += 1
        status, payload, stop_after = await self._dispatch(request)
        headers: dict[str, str] = {}
        rid = request.headers.get("x-repro-request-id")
        if rid is not None:
            headers["x-repro-request-id"] = rid
        if isinstance(payload, dict):
            error = payload.get("error") or {}
            if error.get("retry_after") is not None:
                headers["retry-after"] = f"{error['retry_after']:g}"
            body = json.dumps(payload).encode()
            content_type = "application/json"
        else:  # /metrics text exposition
            body = payload
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        response = http.encode_response(
            status,
            body,
            content_type=content_type,
            headers=headers,
            keep_alive=request.keep_alive,
        )
        if self._log.isEnabledFor(logging.DEBUG):
            self._log.debug(
                "%s %s -> %d bytes_in=%d bytes_out=%d",
                request.method, request.path, status,
                len(request.body), len(response),
            )
        return response, not request.keep_alive, stop_after

    async def _dispatch(self, request: http.HttpRequest):
        """Route + auth, then the shared request path."""
        route = None
        path_known = False
        for candidate in self._routes:
            if candidate.pattern.match(request.path):
                path_known = True
                if candidate.method == request.method:
                    route = candidate
                    break
        self._counters[route.name if route is not None else "unmatched"] += 1
        if route is None:
            if path_known:
                return _refusal(
                    405, ERR_BAD_REQUEST,
                    f"method {request.method} not allowed on {request.path}",
                )
            return _refusal(
                404, ERR_UNKNOWN_OP, f"no route for {request.method} {request.path}"
            )
        if not route.auth_exempt and not self._authorized(request):
            self._auth_failures += 1
            return _refusal(401, ERR_UNAUTHORIZED, "missing or invalid bearer token")
        cid = request.headers.get("x-repro-client-id")
        rid = request.headers.get("x-repro-request-id")
        replays = route.op in self._REPLAY_OPS and cid is not None and rid is not None
        args = route.pattern.match(request.path).groups()
        result, error = await self._execute(
            route.name,
            lambda: route.handler(self._json_params(request), *args),
            (cid, rid) if replays else None,
        )
        if error is not None:
            return _STATUS_BY_CODE.get(error["code"], 500), {"ok": False, "error": error}, False
        if isinstance(result, str):  # /metrics text exposition
            return 200, result.encode(), False
        return 200, {"ok": True, "result": result}, route.name == "shutdown"

    @staticmethod
    def _json_params(request: http.HttpRequest) -> dict:
        if not request.body:
            return {}
        try:
            params = json.loads(request.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(ERR_BAD_REQUEST, f"body is not valid JSON: {exc}")
        if not isinstance(params, dict):
            raise RequestError(ERR_BAD_REQUEST, "body must be a JSON object")
        return params

    # ---------------------------------------------------------------- ops

    async def _r_healthz(self, params: dict) -> dict:
        return {
            "status": "draining" if self._stopping else "ok",
            "server": "repro-gateway",
        }

    async def _r_metrics(self, params: dict) -> str:
        return render_metrics(
            self._scheduler.stats(),
            self._http_stats(),
            dict(self._counters),
        )

    def _http_stats(self) -> dict:
        return {
            "connections_open": self._connections_open,
            "connections_total": self._connections_total,
            "requests_total": self._requests_total,
            "auth_failures": self._auth_failures,
            "bad_requests": self._bad_requests,
            "replay_hits": self._replay.hits,
            "deadline_expirations": self._deadline_expirations,
            "registered_netlists": len(self._netlists),
            "lots_retained": len(self._lots),
            "programs_retained": len(self._programs),
            "requests_by_route": dict(self._counters),
            "draining": self._stopping,
        }

    async def _r_stats(self, params: dict) -> dict:
        return {"scheduler": self._scheduler.stats(), "http": self._http_stats()}

    async def _r_netlists(self, params: dict) -> dict:
        return self._register(codec.netlist_from_json(param(params, "netlist", dict)))

    async def _r_lots(self, params: dict) -> dict:
        if "lot" in params:
            # Upload: register a client-built lot under a handle.  Its
            # fault indices only mean something on the netlist it was
            # drawn on, which must be the one it is registered under.
            netlist_id, netlist = self._netlist_for(params)
            payload = param(params, "lot", dict)
            if payload.get("fingerprint") != netlist_id:
                raise RequestError(
                    ERR_BAD_REQUEST,
                    f"the lot was drawn on netlist {payload.get('fingerprint')!r}, "
                    f"not {netlist_id!r}",
                )
            lot = codec.lot_from_json(netlist, payload)
            return lot_summary(self._lots.add((netlist_id, lot)), lot)
        return await self._fabricate(
            params,
            lambda p: codec.recipe_from_json(param(p, "recipe", dict)),
            codec.lot_to_json,
        )

    async def _r_programs(self, params: dict) -> dict:
        if "program" in params:
            # Upload: register a client-built program under a handle.
            netlist_id, netlist = self._netlist_for(params)
            program = codec.program_from_json(netlist, param(params, "program", dict))
            return program_summary(self._programs.add((netlist_id, program)), program)
        return await self._build(
            params,
            lambda p: codec.patterns_from_json(param(p, "patterns", list)),
            codec.program_to_json,
        )

    async def _r_test(self, params: dict, lot_id: str) -> dict:
        lot_netlist_id, lot = self._entry(self._lots, "lot", lot_id)
        program_entry = self._entry(
            self._programs, "program", param(params, "program_id", str)
        )
        return await self._test(lot_netlist_id, lot, program_entry, codec.result_to_json)

    async def _r_experiment(self, params: dict, name: str) -> dict:
        return await self._experiment(name)

    async def _r_shutdown(self, params: dict) -> dict:
        return {"stopping": True}
