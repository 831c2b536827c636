"""Session lanes behind the pipeline front ends: :class:`SessionScheduler`.

Every pipeline job of the framed-TCP :class:`~repro.server.LotServer`
and the HTTP :class:`~repro.gateway.Gateway` runs here.  The scheduler
keeps per-key FIFO queues (:class:`~repro.server.core.JobQueues`) and
fans the keys out across a bounded fleet of sessions:

* Each distinct key (netlist fingerprint, or the experiments group)
  gets its own **lane** — a ``Session`` plus a dedicated
  single-thread executor — up to ``max_sessions`` lanes.
* At capacity, the least-recently-used **idle** lane is evicted through
  the ordinary ``Session.close()`` machinery (its final stats are
  folded into the retired totals first) — never the last open lane,
  whose compiled caches every key would otherwise rebuild.  If no lane
  can be evicted, the new key shares the least-loaded existing lane —
  bounded resources, never an error.  So ``max_sessions=1`` (the TCP
  server) is one session and one thread for every key.
* Jobs for one key still run strictly FIFO (JobQueues guarantees it);
  jobs for different keys on different lanes genuinely overlap in
  wall-clock, which is the concurrency the gateway exists to provide.

Results are bit-identical whatever the lane count: a ``Session``
computes the same bytes regardless of which process or lane hosts it.

``stats()`` aggregates every lane's ``Session.stats()`` (live and
retired) with :func:`repro.api.aggregate_stats`, and labels queue
depths ``"{group}/{key}"`` so ``/metrics`` can tell lanes apart.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro import chaos
from repro.api import Session, aggregate_stats
from repro.server.core import JobQueues

__all__ = ["SessionScheduler"]

# Session.stats() keys that report process-global counters: every lane
# sees the same value, so summing across lanes would multiply them by
# the lane count.  The scheduler reports them once instead.
_GLOBAL_KEYS = (
    "chaos_injections",
    "kernel_blocks_numpy",
    "kernel_blocks_jit",
    "kernel_blocks_gpu",
)


class _Lane:
    """One session plus the single thread that owns it."""

    __slots__ = ("group", "session", "exec", "pending", "last_used", "keys")

    def __init__(self, group: str, session: Session):
        self.group = group
        self.session = session
        self.exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-lane-{group}"
        )
        self.pending = 0
        self.last_used = time.monotonic()
        self.keys: set[str] = set()


class SessionScheduler:
    """Route per-key jobs onto a bounded fleet of sessions.

    Parameters
    ----------
    max_sessions:
        Upper bound on concurrently open sessions (lanes).
    max_queue_depth:
        Per-key high-water mark forwarded to :class:`JobQueues`
        (queued + in flight); past it submissions fail ``overloaded``.
    engine, workers, max_contexts, max_bytes, dispatch_timeout:
        Forwarded to every lane's :class:`~repro.api.Session`.
    """

    def __init__(
        self,
        max_sessions: int = 4,
        max_queue_depth: int | None = None,
        engine: str = "batch",
        workers: int | str = 1,
        max_contexts: int | None = None,
        max_bytes: int | None = None,
        dispatch_timeout: float | None = None,
    ):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        # Lanes open lazily; bad session arguments fail here, not per request.
        Session.check_args(engine, workers, max_contexts, max_bytes)
        self._max_sessions = max_sessions
        self._session_kwargs = dict(
            engine=engine,
            workers=workers,
            max_contexts=max_contexts,
            max_bytes=max_bytes,
            dispatch_timeout=dispatch_timeout,
        )
        # lane.group is unique; _lanes preserves LRU order (move_to_end
        # on every routing decision).
        self._lanes: OrderedDict[str, _Lane] = OrderedDict()
        self._routes: dict[str, _Lane] = {}
        self._jobs = JobQueues(self._run, max_queue_depth)
        self._group_counter = 0
        self._sessions_opened = 0
        self._sessions_evicted = 0
        self._retired_stats: dict[str, int] = {}
        self._closed = False

    # -------------------------------------------------------------- routing

    def _evict_lru_idle(self) -> bool:
        """Close the least-recently-used idle lane; False if all busy."""
        for group, lane in self._lanes.items():
            if lane.pending == 0:
                self._retire(lane)
                del self._lanes[group]
                self._routes = {
                    key: ln for key, ln in self._routes.items() if ln is not lane
                }
                self._sessions_evicted += 1
                return True
        return False

    def _retire(self, lane: _Lane) -> None:
        """Fold a lane's final stats into the retired totals and close it."""
        stats = lane.session.stats()
        for key in _GLOBAL_KEYS:
            stats.pop(key, None)
        self._retired_stats = aggregate_stats([self._retired_stats, stats])
        lane.exec.shutdown(wait=True)
        lane.session.close()

    def _route(self, key: str) -> _Lane:
        """The lane serving ``key``, creating or evicting as needed."""
        lane = self._routes.get(key)
        if lane is None:
            # Never evict the last open lane: with one lane that would
            # close the session, and its compiled caches, on every
            # netlist switch.
            if len(self._lanes) >= self._max_sessions > 1:
                self._evict_lru_idle()
            if len(self._lanes) < self._max_sessions:
                self._group_counter += 1
                group = f"s{self._group_counter}"
                lane = _Lane(group, Session(**self._session_kwargs))
                self._lanes[group] = lane
                self._sessions_opened += 1
            else:
                # No lane to evict (all busy, or the last one): share
                # the least-loaded one rather than fail.  The alias
                # sticks (so the lane's compiled caches keep paying off)
                # until that lane is evicted.
                lane = min(self._lanes.values(), key=lambda ln: ln.pending)
            self._routes[key] = lane
            lane.keys.add(key)
        self._lanes.move_to_end(lane.group)
        lane.last_used = time.monotonic()
        return lane

    # ------------------------------------------------------------ execution

    async def submit(self, key: str, fn: Callable[[Session], Any]) -> Any:
        """Queue ``fn(session)`` under ``key`` and await its result.

        FIFO per key; concurrent across keys routed to different lanes.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        lane = self._route(key)
        lane.pending += 1
        try:
            return await self._jobs.submit(key, fn)
        finally:
            lane.pending -= 1
            lane.last_used = time.monotonic()

    async def _run(self, key: str, fn: Callable[[Session], Any]) -> Any:
        lane = self._routes[key]
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(lane.exec, self._run_job, lane, fn)

    @staticmethod
    def _run_job(lane: _Lane, fn: Callable[[Session], Any]) -> Any:
        # The pipeline-job chaos seam: delay faults sleep here, fail
        # faults raise, both off the event loop.
        chaos.fire("server.job")
        return fn(lane.session)

    # ---------------------------------------------------------- observation

    def total_pending(self) -> int:
        return self._jobs.total_pending()

    @property
    def overload_rejections(self) -> int:
        return self._jobs.overload_rejections

    def _group_for(self, key: str) -> str:
        lane = self._routes.get(key)
        return lane.group if lane is not None else "unrouted"

    def pending_by_queue(self) -> dict[str, int]:
        """Queued+in-flight per key, labelled ``"{group}/{key}"``."""
        return {
            f"{self._group_for(key)}/{key}": count
            for key, count in self._jobs.pending_by_queue().items()
        }

    def queue_depths(self) -> dict[str, int]:
        return {
            f"{self._group_for(key)}/{key}": depth
            for key, depth in self._jobs.queue_depths().items()
        }

    def session_stats(self) -> dict[str, int]:
        """Key-wise sum of every lane's ``Session.stats()`` ever opened."""
        per_lane = []
        global_totals = {key: 0 for key in _GLOBAL_KEYS}
        for lane in self._lanes.values():
            stats = lane.session.stats()
            for key in _GLOBAL_KEYS:
                # Process-global: every lane reports the same number, so
                # keep one copy instead of summing per lane.
                global_totals[key] = stats.pop(key, 0)
            per_lane.append(stats)
        total = aggregate_stats([self._retired_stats, *per_lane])
        total.update(global_totals)
        return total

    def stats(self) -> dict:
        return {
            "sessions_open": len(self._lanes),
            "sessions_opened": self._sessions_opened,
            "sessions_evicted": self._sessions_evicted,
            "session_groups": {
                lane.group: {
                    "keys": sorted(lane.keys),
                    "pending": lane.pending,
                }
                for lane in self._lanes.values()
            },
            "pending_by_queue": self.pending_by_queue(),
            "queue_depths": self.queue_depths(),
            "overload_rejections": self.overload_rejections,
            "session": self.session_stats(),
        }

    # ------------------------------------------------------------ lifecycle

    async def aclose(self) -> None:
        """Cancel the queues and close every lane (idempotent)."""
        if self._closed:
            return
        self._closed = True
        await self._jobs.aclose()
        for lane in self._lanes.values():
            self._retire(lane)
        self._lanes.clear()
        self._routes.clear()
