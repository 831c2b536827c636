"""Console entry point: ``repro-gateway`` (or ``python -m repro.gateway``).

Binds a :class:`~repro.gateway.Gateway` and serves until a client POSTs
``/v1/shutdown`` or the process receives SIGINT/SIGTERM — both drain
gracefully: stop accepting, finish in-flight requests up to
``--drain-timeout``, then exit 0 with a one-line summary.  On startup
it prints exactly one line::

    repro-gateway listening on http://<host>:<port>

(``https://`` with ``--tls-cert/--tls-key``), which wrapper scripts
parse to discover an ephemeral ``--port 0`` binding — the gateway smoke
test does exactly that.
"""

from __future__ import annotations

import argparse

from repro.gateway.gateway import Gateway
from repro.server.core import (
    add_listen_flags,
    add_session_flags,
    positive_int,
    session_kwargs,
)

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Parse CLI flags, run the gateway, return the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-gateway",
        description=(
            "HTTP/JSON gateway for the lot-testing pipeline: REST "
            "resources over safe JSON payloads, one session per netlist "
            "group, Prometheus /metrics (see docs/server.md)."
        ),
    )
    add_listen_flags(parser, port=8642)
    add_session_flags(parser)
    parser.add_argument(
        "--max-sessions",
        type=positive_int,
        default=4,
        help=(
            "concurrently open sessions (one per netlist group, LRU-idle "
            "evicted) (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help="TLS certificate chain (enables https; requires --tls-key)",
    )
    parser.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="TLS private key (requires --tls-cert)",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help=(
            "bearer token required on every route except /healthz "
            "(mandatory for non-loopback binds unless --insecure)"
        ),
    )
    parser.add_argument(
        "--insecure",
        action="store_true",
        help="allow binding a non-loopback host without --token",
    )
    args = parser.parse_args(argv)
    try:
        gateway = Gateway(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            tls_cert=args.tls_cert,
            tls_key=args.tls_key,
            auth_token=args.token,
            allow_insecure=args.insecure,
            **session_kwargs(args),
        )
    except ValueError as exc:
        parser.error(str(exc))
    return gateway.run_cli(debug=args.debug)


if __name__ == "__main__":
    raise SystemExit(main())
