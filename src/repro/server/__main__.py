"""Console entry point: ``repro-server`` (or ``python -m repro.server``).

Binds a :class:`~repro.server.server.LotServer` and serves until a
client sends ``shutdown`` or the process receives SIGINT/SIGTERM — both
of which drain gracefully: stop accepting, finish in-flight requests up
to ``--drain-timeout``, then exit 0 with a one-line summary.  On
startup it prints exactly one line::

    repro-server listening on <host>:<port>

(or ``unix:<path>``), which wrapper scripts parse to discover an
ephemeral ``--port 0`` binding — the server smoke test does exactly
that.
"""

from __future__ import annotations

import argparse

from repro.server.core import add_listen_flags, add_session_flags, session_kwargs
from repro.server.server import LotServer

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Parse CLI flags, run the server, return the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description=(
            "Multi-client lot-testing server: serves fabricate / "
            "build_program / test_lot / run_experiment requests over a "
            "shared compile-once session (see docs/server.md)."
        ),
    )
    add_listen_flags(parser, port=7642)
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="listen on a Unix-domain socket instead of TCP",
    )
    add_session_flags(parser)
    parser.add_argument(
        "--backend-id",
        type=int,
        default=None,
        metavar="N",
        help=(
            "identify this server as backend N of a repro-router "
            "federation (rides ping/stats; arms the router.backend "
            "chaos seam)"
        ),
    )
    args = parser.parse_args(argv)
    server = LotServer(
        host=args.host,
        port=0 if args.socket else args.port,
        socket_path=args.socket,
        backend_id=args.backend_id,
        **session_kwargs(args),
    )
    return server.run_cli(debug=args.debug)


if __name__ == "__main__":
    raise SystemExit(main())
