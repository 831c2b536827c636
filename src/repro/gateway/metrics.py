"""Prometheus text exposition for the gateway's ``/metrics`` endpoint.

Renders the counters the runtime already collects —
:meth:`repro.api.Session.stats` aggregated across the scheduler's
sessions, per-queue depths, and the gateway's own HTTP counters — in
the Prometheus text format (version 0.0.4): ``# HELP`` / ``# TYPE``
comment pairs followed by ``name{labels} value`` samples.  No client
library, no registry: the source of truth stays the existing stats
dicts, and this module is a table over them for the shared renderer
(:func:`repro.server.core.render_metrics`).
"""

from __future__ import annotations

from repro.server.core import render_metrics as _render

__all__ = ["render_metrics"]

# (stats key, metric name, type, help) for the aggregated session stats.
_SESSION_METRICS = [
    ("engine_compiles", "repro_engine_compiles_total", "counter",
     "Netlist compilations across all scheduler sessions (compile-once observable)."),
    ("resident_bytes", "repro_resident_bytes", "gauge",
     "Summed pickled size of resident compiled contexts."),
    ("evictions", "repro_cache_evictions_total", "counter",
     "LRU cache entries dropped by the max_contexts/max_bytes budgets."),
    ("cached_netlists", "repro_cached_netlists", "gauge",
     "Resident compiled engine contexts."),
    ("cached_testers", "repro_cached_testers", "gauge",
     "Resident tester contexts."),
    ("cached_fab_contexts", "repro_cached_fab_contexts", "gauge",
     "Resident fabrication shard contexts."),
    ("contexts_shipped", "repro_contexts_shipped_total", "counter",
     "Context broadcasts to persistent pool workers."),
    ("contexts_evicted", "repro_contexts_evicted_total", "counter",
     "Context removals broadcast to persistent pool workers."),
    ("dispatches", "repro_pool_dispatches_total", "counter",
     "Non-empty shard dispatches served by session executors."),
    ("pool_workers", "repro_pool_workers", "gauge",
     "Configured pool workers summed across open sessions."),
    ("worker_recoveries", "repro_worker_recoveries_total", "counter",
     "Crashed-worker re-install/retry cycles healed by executors."),
    ("retries", "repro_dispatch_retries_total", "counter",
     "Shard dispatches retried after a crash or watchdog timeout."),
    ("timeouts", "repro_dispatch_timeouts_total", "counter",
     "Pool watchdog deadline expirations (hung workers)."),
    ("quarantined_shards", "repro_quarantined_shards", "gauge",
     "Poison-shard fingerprints currently quarantined."),
    ("segments_reaped", "repro_shm_segments_reaped_total", "counter",
     "Orphaned worker shared-memory segments unlinked during recovery."),
    ("chaos_injections", "repro_chaos_injections_total", "counter",
     "Faults fired by the active chaos schedule across every process."),
    ("ipc_bytes_out", "repro_ipc_bytes_out_total", "counter",
     "Payload bytes shipped to pool workers."),
    ("ipc_bytes_in", "repro_ipc_bytes_in_total", "counter",
     "Payload bytes received back from pool workers."),
]

_SCHEDULER_METRICS = [
    ("sessions_open", "repro_sessions", "gauge",
     "Scheduler sessions currently open."),
    ("sessions_opened", "repro_sessions_opened_total", "counter",
     "Scheduler sessions opened since startup."),
    ("sessions_evicted", "repro_sessions_evicted_total", "counter",
     "Idle scheduler sessions closed by LRU eviction."),
    ("overload_rejections", "repro_overload_rejections_total", "counter",
     "Requests rejected at a queue's high-water mark."),
]

_HTTP_METRICS = [
    ("connections_open", "repro_http_connections", "gauge",
     "HTTP connections currently open."),
    ("connections_total", "repro_http_connections_total", "counter",
     "HTTP connections accepted since startup."),
    ("requests_total", "repro_http_requests_total", "counter",
     "HTTP requests handled since startup."),
    ("auth_failures", "repro_http_auth_failures_total", "counter",
     "Requests rejected for a missing or wrong bearer token."),
    ("bad_requests", "repro_http_bad_requests_total", "counter",
     "Requests rejected at the HTTP framing layer."),
    ("replay_hits", "repro_replay_hits_total", "counter",
     "Requests answered from the idempotent replay cache."),
    ("deadline_expirations", "repro_deadline_expirations_total", "counter",
     "Requests that exceeded the server deadline."),
]


def render_metrics(
    scheduler_stats: dict,
    http_stats: dict,
    requests_by_route: dict[str, int] | None = None,
) -> str:
    """The ``/metrics`` payload from the gateway's stats dicts."""
    session = scheduler_stats.get("session", {})
    pending = scheduler_stats.get("pending_by_queue", {})
    families = [
        *((name, mtype, help_text, session.get(key, 0))
          for key, name, mtype, help_text in _SESSION_METRICS),
        *((name, mtype, help_text, scheduler_stats.get(key, 0))
          for key, name, mtype, help_text in _SCHEDULER_METRICS),
        *((name, mtype, help_text, http_stats.get(key, 0))
          for key, name, mtype, help_text in _HTTP_METRICS),
        ("repro_queue_depth", "gauge",
         "Queued plus in-flight requests per session-group/netlist queue.",
         ("queue", [(queue, pending[queue]) for queue in sorted(pending)])),
    ]
    if requests_by_route:
        families.append((
            "repro_http_route_requests_total", "counter", "HTTP requests per route.",
            ("route", [(route, requests_by_route[route]) for route in sorted(requests_by_route)]),
        ))
    return _render(families)
