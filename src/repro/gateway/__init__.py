"""HTTP/JSON front door for the lot-testing pipeline.

The production-shaped network layer on top of :mod:`repro.server`:

* :class:`Gateway` — asyncio HTTP/1.1 server (stdlib only) exposing the
  op surface as REST resources with safe JSON payloads (no pickle off
  the wire), optional TLS and bearer-token auth, and a Prometheus-text
  ``/metrics`` endpoint.
* :class:`SessionScheduler` (from :mod:`repro.server.scheduler`) — one
  :class:`~repro.api.Session` per netlist group (bounded, LRU-idle
  evicted) so distinct netlists execute concurrently where the TCP
  server's one lane serializes them.
* :class:`AsyncClient` — pipelines many requests on one connection with
  the TCP client's retry/backoff/replay semantics;
  :class:`GatewayClient` is its blocking facade.

Start one from the CLI with ``repro-gateway``, or in-process via
:func:`repro.gateway.testing.running_gateway`.
"""

from repro.gateway.client import AsyncClient, GatewayClient, parse_url
from repro.gateway.gateway import Gateway
from repro.server.scheduler import SessionScheduler

__all__ = [
    "AsyncClient",
    "Gateway",
    "GatewayClient",
    "SessionScheduler",
    "parse_url",
]
