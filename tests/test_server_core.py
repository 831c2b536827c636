"""Direct unit tests of the serving plumbing the front ends share.

:mod:`repro.server.core` and :mod:`repro.server.app` are exercised
constantly through the server, gateway, and router suites, but always
end-to-end — a primitive's edge case (FIFO eviction order, the bool/int
JSON trap, retry_after scaling, backoff jitter, label escaping) can
regress without any black-box test noticing which piece broke.  These
tests pin each primitive's contract in isolation, and the shared
lifecycle once per front end.
"""

import asyncio
import random
import socket
import threading
import time
from contextlib import ExitStack

import pytest

from repro import chaos
from repro.chaos import ChaosSchedule, Fault
from repro.gateway import Gateway, GatewayClient
from repro.gateway.metrics import render_metrics as render_gateway_metrics
from repro.router import Router
from repro.server import Client, LotServer
from repro.server import core
from repro.server.core import (
    MISSING,
    HandleRegistry,
    JobQueues,
    ReplayCache,
    RequestError,
    RetryPolicy,
    param,
    render_metrics,
)
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_OVERLOADED,
    ConnectionLost,
    RemoteError,
)
from repro.server.testing import running_server


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------- param


class TestParam:
    def test_present_and_typed(self):
        assert param({"n": 3}, "n", int) == 3
        assert param({"s": "x"}, "s", (str, int)) == "x"
        assert param({"f": 1.5}, "f", None) == 1.5  # kinds=None: anything

    def test_missing_uses_default(self):
        assert param({}, "n", int, default=7) == 7
        assert param({}, "n", int, default=None) is None

    def test_missing_without_default_is_bad_request(self):
        with pytest.raises(RequestError) as err:
            param({}, "n", int)
        assert err.value.code == ERR_BAD_REQUEST

    def test_wrong_type_is_bad_request(self):
        with pytest.raises(RequestError) as err:
            param({"n": "3"}, "n", int)
        assert err.value.code == ERR_BAD_REQUEST

    def test_bool_is_not_an_int(self):
        # JSON blurs bool/int; the protocol must not: True is a valid
        # Python int but an invalid chip count.
        with pytest.raises(RequestError):
            param({"n": True}, "n", int)
        assert param({"flag": True}, "flag", bool) is True
        assert param({"n": 1}, "n", (int, bool)) == 1

    def test_default_is_not_type_checked(self):
        # A None default passes through even for int params.
        assert param({}, "seed", int, default=None) is None

    def test_missing_sentinel_is_not_a_value(self):
        assert param({"x": None}, "x", None) is None  # explicit None != missing
        assert MISSING is not None


# ------------------------------------------------------- HandleRegistry


class TestHandleRegistry:
    def test_handles_are_prefixed_and_monotonic(self):
        registry = HandleRegistry("lot", max_handles=8)
        first, second = registry.add(object()), registry.add(object())
        assert first == "lot-1" and second == "lot-2"

    def test_fifo_eviction_past_bound(self):
        registry = HandleRegistry("lot", max_handles=2)
        kept = [registry.add(index) for index in range(3)]
        assert len(registry) == 2
        assert registry.get(kept[0]) is None  # oldest dropped
        assert registry.get(kept[1]) == 1
        assert registry.get(kept[2]) == 2

    def test_shared_counter_never_reuses_numbers(self):
        # Lot and program registries share one counter so handles never
        # collide across kinds even when a client mixes them up.
        counter = [0]
        lots = HandleRegistry("lot", max_handles=4, counter=counter)
        programs = HandleRegistry("prog", max_handles=4, counter=counter)
        handles = [lots.add("a"), programs.add("b"), lots.add("c")]
        assert handles == ["lot-1", "prog-2", "lot-3"]

    def test_unknown_handle_is_none(self):
        registry = HandleRegistry("lot", max_handles=2)
        assert registry.get("lot-999") is None

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            HandleRegistry("lot", max_handles=0)


# ---------------------------------------------------------- ReplayCache


class TestReplayCache:
    def test_miss_then_hit(self):
        cache = ReplayCache()
        assert cache.lookup("c1", 1) is None
        cache.store("c1", 1, {"ok": True})
        assert cache.lookup("c1", 1) == {"ok": True}
        assert cache.hits == 1

    def test_per_client_fifo_eviction(self):
        cache = ReplayCache(per_client=2, clients=4)
        for rid in range(3):
            cache.store("c1", rid, rid)
        assert cache.lookup("c1", 0) is None  # oldest response evicted
        assert cache.lookup("c1", 1) == 1
        assert cache.lookup("c1", 2) == 2

    def test_client_count_fifo_eviction(self):
        cache = ReplayCache(per_client=2, clients=2)
        cache.store("c1", 1, "a")
        cache.store("c2", 1, "b")
        cache.store("c3", 1, "c")
        assert cache.lookup("c1", 1) is None  # oldest client evicted
        assert cache.lookup("c2", 1) == "b"
        assert cache.lookup("c3", 1) == "c"

    def test_lookup_refreshes_client_recency(self):
        cache = ReplayCache(per_client=2, clients=2)
        cache.store("c1", 1, "a")
        cache.store("c2", 1, "b")
        cache.lookup("c1", 1)  # touch c1: now c2 is the eviction candidate
        cache.store("c3", 1, "c")
        assert cache.lookup("c1", 1) == "a"
        assert cache.lookup("c2", 1) is None

    def test_distinct_rids_do_not_collide(self):
        cache = ReplayCache()
        cache.store("c1", 1, "first")
        cache.store("c1", 2, "second")
        assert cache.lookup("c1", 1) == "first"
        assert cache.lookup("c1", 2) == "second"
        assert cache.hits == 2


# ------------------------------------------------------------ JobQueues


async def _inline_runner(key, fn):
    return fn()


class TestJobQueues:
    def test_submit_returns_result(self):
        async def scenario():
            queues = JobQueues(_inline_runner)
            try:
                return await queues.submit("k", lambda: 41 + 1)
            finally:
                await queues.aclose()

        assert run(scenario()) == 42

    def test_runner_exception_propagates(self):
        async def scenario():
            queues = JobQueues(_inline_runner)

            def boom():
                raise RuntimeError("pipeline exploded")

            try:
                with pytest.raises(RuntimeError, match="pipeline exploded"):
                    await queues.submit("k", boom)
                # The queue survives a failed job.
                return await queues.submit("k", lambda: "still alive")
            finally:
                await queues.aclose()

        assert run(scenario()) == "still alive"

    def test_per_key_fifo_order(self):
        async def scenario():
            order = []

            async def runner(key, fn):
                return fn()

            queues = JobQueues(runner)
            try:
                jobs = [
                    queues.submit("k", lambda i=i: order.append(i))
                    for i in range(5)
                ]
                await asyncio.gather(*jobs)
            finally:
                await queues.aclose()
            return order

        assert run(scenario()) == [0, 1, 2, 3, 4]

    def test_pending_counts_queued_plus_in_flight(self):
        async def scenario():
            release = asyncio.Event()
            observed = {}

            async def runner(key, fn):
                await release.wait()
                return fn()

            queues = JobQueues(runner)
            try:
                jobs = [
                    asyncio.ensure_future(queues.submit("k", lambda: None))
                    for _ in range(3)
                ]
                await asyncio.sleep(0.01)  # consumer now holds one job
                observed["pending"] = queues.pending("k")
                observed["depth"] = queues.queue_depths()["k"]
                observed["total"] = queues.total_pending()
                observed["by_queue"] = queues.pending_by_queue()
                release.set()
                await asyncio.gather(*jobs)
                observed["after"] = queues.pending("k")
                observed["by_queue_after"] = queues.pending_by_queue()
            finally:
                await queues.aclose()
            return observed

        observed = run(scenario())
        # qsize alone would say 2 — the in-flight job must count too.
        assert observed["pending"] == 3
        assert observed["depth"] == 2
        assert observed["total"] == 3
        assert observed["by_queue"] == {"k": 3}
        assert observed["after"] == 0
        assert observed["by_queue_after"] == {}

    def test_overload_rejection_with_retry_after_hint(self):
        async def scenario():
            release = asyncio.Event()

            async def runner(key, fn):
                await release.wait()
                return fn()

            queues = JobQueues(runner, max_queue_depth=2)
            try:
                jobs = [
                    asyncio.ensure_future(queues.submit("k", lambda: None))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.01)
                with pytest.raises(RequestError) as err:
                    await queues.submit("k", lambda: None)
                release.set()
                await asyncio.gather(*jobs)
            finally:
                await queues.aclose()
            return err.value, queues.overload_rejections

        error, rejections = run(scenario())
        assert error.code == ERR_OVERLOADED
        assert error.retry_after == round(0.05 * 2, 3)  # scaled to backlog
        assert rejections == 1

    def test_overload_is_per_key(self):
        async def scenario():
            release = asyncio.Event()

            async def runner(key, fn):
                await release.wait()
                return fn()

            queues = JobQueues(runner, max_queue_depth=1)
            try:
                blocked = asyncio.ensure_future(
                    queues.submit("hot", lambda: "hot")
                )
                await asyncio.sleep(0.01)
                with pytest.raises(RequestError):
                    await queues.submit("hot", lambda: None)
                # A different key is unaffected by the hot key's backlog.
                other = asyncio.ensure_future(
                    queues.submit("cold", lambda: "cold")
                )
                await asyncio.sleep(0.01)
                release.set()
                return await asyncio.gather(blocked, other)
            finally:
                await queues.aclose()

        assert run(scenario()) == ["hot", "cold"]

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            JobQueues(_inline_runner, max_queue_depth=0)

    def test_aclose_cancels_consumers(self):
        async def scenario():
            started = asyncio.Event()

            async def runner(key, fn):
                started.set()
                await asyncio.sleep(3600)

            queues = JobQueues(runner)
            job = asyncio.ensure_future(queues.submit("k", lambda: None))
            await started.wait()
            await queues.aclose()
            assert queues.queue_depths() == {}
            job.cancel()
            with pytest.raises(asyncio.CancelledError):
                await job

        run(scenario())


# ------------------------------------------------------------ RetryPolicy


def _jitter(cid, n):
    rng = random.Random(cid)
    return [0.5 + rng.random() for _ in range(n)]


class TestRetryPolicy:
    def test_same_cid_same_jitter_sequence(self):
        a, b = RetryPolicy("cid-a"), RetryPolicy("cid-a")
        delays_a = [a.delay(n) for n in range(1, 6)]
        delays_b = [b.delay(n) for n in range(1, 6)]
        assert delays_a == delays_b
        other = RetryPolicy("cid-b")
        assert [other.delay(n) for n in range(1, 6)] != delays_a

    def test_exponential_backoff_capped_at_backoff_max(self):
        policy = RetryPolicy("cid", backoff=0.1, backoff_max=0.5)
        delays = [policy.delay(n) for n in range(1, 6)]
        bases = [0.1, 0.2, 0.4, 0.5, 0.5]  # 0.8 and 1.6 hit the cap
        expected = [base * j for base, j in zip(bases, _jitter("cid", 5))]
        assert delays == pytest.approx(expected)

    def test_server_hint_wins_over_backoff(self):
        policy = RetryPolicy("cid", backoff=0.01, backoff_max=2.0)
        (jitter,) = _jitter("cid", 1)
        assert policy.delay(1, hint=0.7) == pytest.approx(0.7 * jitter)
        # The hint is capped like any other delay.
        capped = RetryPolicy("cid", backoff_max=0.2)
        assert capped.delay(1, hint=5.0) == pytest.approx(0.2 * jitter)

    def test_budget_runs_out(self, monkeypatch):
        slept = []
        monkeypatch.setattr(core.time, "sleep", slept.append)
        policy = RetryPolicy("cid", retries=2)
        calls = []

        def once():
            calls.append(1)
            raise ConnectionLost("gone")

        with pytest.raises(ConnectionLost):
            policy.call(once)
        assert len(calls) == 3  # the first try plus two retries
        assert len(slept) == 2
        assert policy.counters["connection_losses"] == 3
        assert policy.counters["retries"] == 2

    def test_overload_retried_other_errors_final(self, monkeypatch):
        slept = []
        monkeypatch.setattr(core.time, "sleep", slept.append)
        policy = RetryPolicy("cid", retries=3)
        replies = [RemoteError(ERR_OVERLOADED, "busy", retry_after=0.3), "done"]

        def once():
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        assert policy.call(once) == "done"
        assert slept == [pytest.approx(0.3 * _jitter("cid", 1)[0])]
        assert policy.counters["overload_rejections"] == 1

        def user_error():
            raise RemoteError("user-error", "bad input")

        with pytest.raises(RemoteError):
            policy.call(user_error)
        assert policy.counters["retries"] == 1  # not retried

    def test_async_loop_drives_the_same_policy(self):
        policy = RetryPolicy("cid", retries=1, backoff=0.001)
        calls = []

        async def once():
            calls.append(1)
            if len(calls) == 1:
                raise ConnectionLost("gone")
            return "ok"

        assert run(policy.acall(once)) == "ok"
        assert policy.counters["retries"] == 1
        assert policy.counters["connection_losses"] == 1

    def test_retries_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy("cid", retries=-1)


# ------------------------------------------------------- metrics renderer


class TestRenderMetrics:
    def test_help_type_and_unlabelled_sample(self):
        text = render_metrics([("repro_x_total", "counter", "Things.", 3)])
        assert text == (
            "# HELP repro_x_total Things.\n"
            "# TYPE repro_x_total counter\n"
            "repro_x_total 3\n"
        )

    def test_label_values_are_escaped(self):
        value = 'unix:/tmp/x"y\\z\nrepro_forged 99'
        text = render_metrics([("repro_up", "gauge", "Up.", ("backend", [(value, 1)]))])
        samples = [line for line in text.splitlines() if not line.startswith("#")]
        assert samples == [
            'repro_up{backend="unix:/tmp/x\\"y\\\\z\\nrepro_forged 99"} 1'
        ]

    def test_labelled_family_keeps_given_order_and_empty_family_has_header(self):
        text = render_metrics([
            ("repro_a", "gauge", "A.", ("k", [("b", 2), ("a", 1)])),
            ("repro_b", "gauge", "B.", ("k", [])),
        ])
        assert text.splitlines() == [
            "# HELP repro_a A.",
            "# TYPE repro_a gauge",
            'repro_a{k="b"} 2',
            'repro_a{k="a"} 1',
            "# HELP repro_b B.",
            "# TYPE repro_b gauge",
        ]

    def test_gateway_label_families_are_sorted(self):
        text = render_gateway_metrics(
            {"pending_by_queue": {"s2/zz": 1, "s1/b": 2, "s1/a": 3}},
            {},
            {"stats": 1, "lots": 4},
        )
        samples = [
            line for line in text.splitlines()
            if line.startswith(("repro_queue_depth{", "repro_http_route_requests_total{"))
        ]
        assert samples == [
            'repro_queue_depth{queue="s1/a"} 3',
            'repro_queue_depth{queue="s1/b"} 2',
            'repro_queue_depth{queue="s2/zz"} 1',
            'repro_http_route_requests_total{route="lots"} 4',
            'repro_http_route_requests_total{route="stats"} 1',
        ]


# -------------------------------------------------------------- lifecycle

FRONT_ENDS = ("server", "gateway", "router")


def _front_end(kind, stack):
    """A fresh, unstarted front end (the router over one live backend)."""
    if kind == "server":
        return LotServer(workers=1)
    if kind == "gateway":
        return Gateway(workers=1)
    backend = stack.enter_context(running_server(workers=1))
    return Router(backends=[backend.address])


def _host_port(address):
    host, port = address.split("://")[-1].rsplit(":", 1)
    return host, int(port)


def _client(kind, app):
    return (GatewayClient if kind == "gateway" else Client)(app.address)


def _wait_until(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.parametrize("kind", FRONT_ENDS)
class TestLifecycle:
    def test_shutdown_requested_before_start(self, kind):
        with ExitStack() as stack:
            app = _front_end(kind, stack)
            app.request_shutdown()
            thread = threading.Thread(target=app.run, daemon=True)
            thread.start()
            thread.join(30)
            assert not thread.is_alive()
        assert app._finished.is_set()
        assert app.address is not None  # it bound, then drained at once
        assert app.drained_requests == 0

    def test_in_flight_request_is_drained(self, kind, chip, recipe):
        results = []
        schedule = ChaosSchedule([Fault("server.job", "delay", times=1, value=0.5)])
        with ExitStack() as stack:
            app = _front_end(kind, stack)
            thread = threading.Thread(target=app.run, daemon=True)
            thread.start()
            app.wait_started()
            client = stack.enter_context(_client(kind, app))
            client.register(chip)  # so the fabricate is the one request in flight
            with chaos.active(schedule):
                caller = threading.Thread(
                    target=lambda: results.append(
                        client.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=1)
                    )
                )
                caller.start()
                assert _wait_until(lambda: app._pending() == 1)
                app.request_shutdown()
                caller.join(30)
                thread.join(30)
        assert not thread.is_alive()
        assert app.drained_requests == 1
        assert len(results) == 1 and len(results[0].chips) == 4

    def test_idle_connection_does_not_hold_up_stop(self, kind):
        with ExitStack() as stack:
            app = _front_end(kind, stack)
            thread = threading.Thread(target=app.run, daemon=True)
            thread.start()
            app.wait_started()
            with socket.create_connection(_host_port(app.address)):
                assert _wait_until(lambda: app._connections_open == 1)
                start = time.monotonic()
                app.request_shutdown()
                thread.join(10)
                elapsed = time.monotonic() - start
        assert not thread.is_alive()
        assert elapsed < 1.0
        assert app._connections_open == 0
