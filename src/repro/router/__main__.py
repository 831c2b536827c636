"""Console entry point: ``repro-router`` (or ``python -m repro.router``).

Serve mode binds a :class:`~repro.router.Router` over the given
backends and serves until ``shutdown`` / SIGINT / SIGTERM.  On startup
it prints::

    repro-router listening on <host>:<port>

(plus a second ``repro-router http on <url>`` line when ``--http-port``
is given) — wrapper scripts parse the first line to discover an
ephemeral ``--port 0`` binding, exactly like ``repro-server``.

Admin mode (``--admin ADDR``) talks to a *running* router instead:
``--add B`` joins backend B to the ring, ``--remove B`` drains B's
in-flight requests and takes it out.  Both print the router's JSON
reply and exit 0 on success.
"""

from __future__ import annotations

import argparse
import json

from repro.router.router import Router
from repro.server.core import add_listen_flags, positive_float

__all__ = ["main"]


def _admin(address: str, add: list[str], remove: list[str]) -> int:
    from repro.server.client import Client

    with Client(address) as client:
        for backend in add:
            print(json.dumps(client.request("router_add", address=backend)))
        for backend in remove:
            print(json.dumps(client.request("router_remove", address=backend)))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse CLI flags, run (or administer) a router, return exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-router",
        description=(
            "Consistent-hash federation router over N repro-server "
            "backends: clients connect here with the ordinary server "
            "protocol; requests shard by netlist fingerprint "
            "(see docs/federation.md)."
        ),
    )
    add_listen_flags(parser, port=7641)
    parser.add_argument(
        "--backend",
        action="append",
        default=[],
        metavar="ADDR",
        help="backend address host:port or unix:/path (repeatable)",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve HTTP /healthz, /metrics, /v1/stats, /v1/backends",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=96,
        help="hash-ring virtual nodes per backend (default: %(default)s)",
    )
    parser.add_argument(
        "--load-factor",
        type=positive_float,
        default=1.25,
        metavar="F",
        help=(
            "bounded-load cap: at most F times the fair share of "
            "in-flight requests per backend (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--health-interval",
        type=positive_float,
        default=0.5,
        metavar="SECONDS",
        help="backend liveness probe cadence (default: %(default)s)",
    )
    parser.add_argument(
        "--eject-failures",
        type=int,
        default=3,
        metavar="K",
        help=(
            "consecutive probe/forward failures before a backend stops "
            "receiving traffic (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="distinct backends to try per request (default: 1+%(default)s)",
    )
    parser.add_argument(
        "--admin",
        default=None,
        metavar="ADDR",
        help="admin mode: address of a running router to reconfigure",
    )
    parser.add_argument(
        "--add",
        action="append",
        default=[],
        metavar="ADDR",
        help="admin mode: join backend ADDR to the ring (repeatable)",
    )
    parser.add_argument(
        "--remove",
        action="append",
        default=[],
        metavar="ADDR",
        help="admin mode: drain and remove backend ADDR (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.add or args.remove:
        if not args.admin:
            parser.error("--add/--remove require --admin ADDR")
        return _admin(args.admin, args.add, args.remove)
    if args.admin:
        parser.error("--admin requires at least one --add or --remove")
    if not args.backend:
        parser.error("serve mode needs at least one --backend ADDR")
    router = Router(
        host=args.host,
        port=args.port,
        backends=args.backend,
        http_port=args.http_port,
        replicas=args.replicas,
        load_factor=args.load_factor,
        health_interval=args.health_interval,
        eject_failures=args.eject_failures,
        retries=args.retries,
        drain_timeout=args.drain_timeout,
    )
    return router.run_cli()


if __name__ == "__main__":
    raise SystemExit(main())
