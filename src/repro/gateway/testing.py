"""Test/doc helper: run a :class:`Gateway` in a background thread."""

from __future__ import annotations

from contextlib import AbstractContextManager

from repro.gateway.gateway import Gateway
from repro.testing import running_app

__all__ = ["running_gateway"]


def running_gateway(timeout: float = 60.0, **gateway_kwargs) -> AbstractContextManager[Gateway]:
    """A listening :class:`Gateway` on its own thread; stops on exit.

    Yields the gateway after it is accepting connections — read
    ``gateway.address`` (an ``http://`` or ``https://`` URL) to
    connect.  Keyword arguments go to the :class:`Gateway` constructor.
    """
    return running_app(Gateway(**gateway_kwargs), name="repro-gateway", timeout=timeout)
