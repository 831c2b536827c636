"""Test/doc helper: run a :class:`Router` in a background thread."""

from __future__ import annotations

from contextlib import AbstractContextManager

from repro.router.router import Router
from repro.testing import running_app

__all__ = ["running_router"]


def running_router(timeout: float = 60.0, **router_kwargs) -> AbstractContextManager[Router]:
    """A listening :class:`Router` on its own thread; stops on exit.

    Keyword arguments go to the :class:`Router` constructor — most
    importantly ``backends=[...]``.  Yields after the router is
    accepting connections; read ``router.address`` to connect (and
    ``router.http_address`` when ``http_port`` was given).
    """
    return running_app(Router(**router_kwargs), name="repro-router", timeout=timeout)
