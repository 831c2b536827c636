"""Test/demo helper: run a :class:`LotServer` in a background thread.

The server's natural habitat is its own process (the ``repro-server``
CLI); for tests, docs snippets, and smoke checks it is handy to run one
inside the current process instead::

    from repro.server.testing import running_server

    with running_server(workers=1) as server:
        with Client(server.address) as client:
            client.ping()

The context manager waits until the server is listening (so
``server.address`` is valid), and on exit requests shutdown and joins
the thread — a clean teardown even if the body raised.
"""

from __future__ import annotations

from contextlib import AbstractContextManager

from repro.server.server import LotServer
from repro.testing import running_app

__all__ = ["running_server"]


def running_server(timeout: float = 60.0, **server_kwargs) -> AbstractContextManager[LotServer]:
    """Yield a listening :class:`LotServer` running in a daemon thread.

    ``server_kwargs`` are forwarded to :class:`LotServer` (engine,
    workers, max_contexts, ...); the default endpoint is an ephemeral
    TCP port on localhost — read ``server.address``.
    """
    return running_app(LotServer(**server_kwargs), name="repro-server", timeout=timeout)
