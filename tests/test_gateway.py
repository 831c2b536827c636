"""The HTTP/JSON gateway contract: acceptance tests of the gateway PR.

* **Bit-identity** — gateway-mediated ``fabricate`` / ``build_program``
  / ``test`` / ``run_experiment`` return byte-for-byte the same objects
  and reports as direct :class:`repro.api.Session` calls, at every
  worker count, with no pickle on the wire (safe JSON + base64 arrays).
* **Concurrency** — the :class:`SessionScheduler` gives distinct
  netlist groups their own session and executor thread, proved by a
  deterministic barrier rendezvous that is impossible on the TCP
  server's single shared session; results stay bit-identical to serial.
* **Protocol** — auth (401), routing (404/405), replay dedup, 429
  backpressure and 504 deadlines under injected chaos, pipelining on
  one connection, Prometheus ``/metrics`` exposition.
"""

import asyncio
import json
import shutil
import subprocess
import threading
import urllib.request

import numpy as np
import pytest

from repro import chaos
from repro.api import Session, aggregate_stats
from repro.atpg.random_gen import random_patterns
from repro.chaos import ChaosSchedule, Fault
from repro.circuit.generators import c17, simple_alu
from repro.gateway import AsyncClient, GatewayClient, SessionScheduler, parse_url
from repro.gateway import codec
from repro.gateway import http as gateway_http
from repro.gateway.testing import running_gateway
from repro.manufacturing.process import ProcessRecipe
from repro.server import RemoteError, netlist_fingerprint


@pytest.fixture(autouse=True)
def _no_leaked_chaos():
    """No test may leave a chaos schedule active for its successors."""
    yield
    chaos.uninstall()


# Shared chip / alu / recipe / patterns / reference fixtures live in
# tests/conftest.py — one definition for the server, gateway, and
# router suites.

# ----------------------------------------------------------------- codec


class TestCodec:
    def test_netlist_round_trip_preserves_fingerprint(self, chip, alu):
        for netlist in (chip, alu):
            clone = codec.netlist_from_json(codec.netlist_to_json(netlist))
            assert netlist_fingerprint(clone) == netlist_fingerprint(netlist)
            assert clone.inputs == netlist.inputs
            assert clone.outputs == netlist.outputs

    def test_array_round_trip(self):
        for array in (
            np.arange(7, dtype=np.int64),
            np.linspace(0.0, 1.0, 5),
            np.array([1, 0, 1], dtype=np.uint8),
            np.zeros(0, dtype=np.int32),
        ):
            clone = codec.decode_array(codec.encode_array(array))
            assert clone.dtype == array.dtype
            np.testing.assert_array_equal(clone, array)

    def test_decode_rejects_unsafe_payloads(self):
        good = codec.encode_array(np.arange(4, dtype=np.int64))
        for mutate in (
            {"dtype": "|O8"},  # object arrays are pickle in disguise
            {"dtype": "<U4"},
            {"shape": [999]},  # byte-length mismatch
            {"b64": "!!!!"},
        ):
            with pytest.raises(ValueError):
                codec.decode_array({**good, **mutate})

    def test_lot_program_result_round_trips(self, chip, recipe, patterns):
        with Session(workers=1) as session:
            lot = session.fabricate(chip, recipe, 8, dies_per_wafer=4, seed=1)
            program = session.build_program(chip, patterns)
            result = session.test(lot, program)
        lot2 = codec.lot_from_json(chip, codec.lot_to_json(chip, lot))
        assert lot2.chips == lot.chips
        assert lot2.recipe == lot.recipe
        program2 = codec.program_from_json(chip, codec.program_to_json(program))
        assert program2.patterns == program.patterns
        np.testing.assert_array_equal(
            program2.coverage_curve, program.coverage_curve
        )
        result2 = codec.result_from_json(
            program, codec.result_to_json(result)
        )
        assert result2.records == result.records

    def test_parse_url(self):
        assert parse_url("http://127.0.0.1:8642") == ("http", "127.0.0.1", 8642)
        assert parse_url("https://example.test") == ("https", "example.test", 443)
        for bad in ("tcp://x:1", "127.0.0.1:7642", "http://"):
            with pytest.raises(ValueError):
                parse_url(bad)


# ------------------------------------------------------------ bit-identity


class TestDifferential:
    def test_pipeline_bit_identical_to_session(
        self, chip, recipe, patterns, reference
    ):
        ref_lot, ref_program, ref_result, ref_report = reference
        for workers in (1, 2):
            with running_gateway(workers=workers) as gateway:
                with GatewayClient(gateway.address) as client:
                    lot = client.fabricate(
                        chip, recipe, 12, dies_per_wafer=4, seed=7
                    )
                    program = client.build_program(chip, patterns)
                    result = client.test(lot, program)
                    report = client.run_experiment("fig1")
            assert lot.chips == ref_lot.chips
            np.testing.assert_array_equal(
                program.coverage_curve, ref_program.coverage_curve
            )
            assert result.records == ref_result.records
            assert report == ref_report

    def test_uploaded_lot_and_program_match_handles(
        self, chip, recipe, patterns, reference
    ):
        ref_lot, ref_program, ref_result, _ = reference
        with running_gateway(workers=1) as gateway:
            with GatewayClient(gateway.address) as client:
                # Fresh client that built nothing on this gateway: both
                # objects travel as JSON uploads instead of handles.
                result = client.test(ref_lot, ref_program)
                assert result.records == ref_result.records

    def test_two_netlists_two_clients_concurrent_bit_identical(
        self, chip, alu, recipe
    ):
        """Mixed-netlist traffic from two clients matches serial runs."""
        alu_patterns = random_patterns(alu, 16, seed=11)
        chip_patterns = random_patterns(chip, 16, seed=11)
        serial = {}
        for key, netlist, pats in (
            ("chip", chip, chip_patterns),
            ("alu", alu, alu_patterns),
        ):
            with Session(workers=1) as session:
                lot = session.fabricate(
                    netlist, recipe, 8, dies_per_wafer=4, seed=5
                )
                program = session.build_program(netlist, pats)
                serial[key] = session.test(lot, program).records
        for workers in (1, 2):
            results = {}
            errors = []

            def run(key, netlist, pats, address):
                try:
                    with GatewayClient(address) as client:
                        lot = client.fabricate(
                            netlist, recipe, 8, dies_per_wafer=4, seed=5
                        )
                        program = client.build_program(netlist, pats)
                        results[key] = client.test(lot, program).records
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            with running_gateway(workers=workers, max_sessions=4) as gateway:
                threads = [
                    threading.Thread(
                        target=run, args=(key, netlist, pats, gateway.address)
                    )
                    for key, netlist, pats in (
                        ("chip", chip, chip_patterns),
                        ("alu", alu, alu_patterns),
                    )
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                with GatewayClient(gateway.address) as observer:
                    stats = observer.stats()["scheduler"]
            assert not errors
            assert results["chip"] == serial["chip"]
            assert results["alu"] == serial["alu"]
            # Two netlist groups -> two scheduler sessions, each
            # compiling its circuit exactly once.
            assert stats["sessions_open"] == 2
            assert stats["session"]["engine_compiles"] == 2


# -------------------------------------------------------------- scheduler


def _submit_pair(max_sessions, job):
    """Submit ``job`` for two distinct netlist keys; return the results."""

    async def main():
        scheduler = SessionScheduler(max_sessions=max_sessions, workers=1)
        try:
            return await asyncio.gather(
                scheduler.submit("fp-a", job), scheduler.submit("fp-b", job)
            )
        finally:
            await scheduler.aclose()

    return asyncio.run(main())


class TestSessionScheduler:
    def test_distinct_netlists_overlap_where_shared_lane_serializes(self):
        """The tentpole concurrency claim, made deterministic.

        Both jobs rendezvous at a two-party barrier.  With two lanes
        they run on distinct executor threads, meet, and the barrier
        passes — impossible on one lane (the TCP server's design),
        where the first job owns the only thread until it times out.
        """

        def make_job(barrier):
            def job(session):
                try:
                    barrier.wait()
                    return "overlap"
                except threading.BrokenBarrierError:
                    return "serial"

            return job

        barrier = threading.Barrier(2, timeout=5.0)
        assert _submit_pair(2, make_job(barrier)) == ["overlap", "overlap"]
        barrier = threading.Barrier(2, timeout=1.0)
        assert _submit_pair(1, make_job(barrier)) == ["serial", "serial"]

    def test_lru_eviction_folds_stats_and_reopens(self):
        async def main():
            scheduler = SessionScheduler(max_sessions=2, workers=1)
            seen = {}

            def probe(key):
                def job(session):
                    seen[key] = id(session)
                    return key

                return job

            try:
                await scheduler.submit("fp-a", probe("a"))
                await scheduler.submit("fp-b", probe("b"))
                await scheduler.submit("fp-c", probe("c"))  # evicts LRU
                await scheduler.submit("fp-a", probe("a2"))  # reopens
                return scheduler.stats(), seen
            finally:
                await scheduler.aclose()

        stats, seen = asyncio.run(main())
        assert seen["a"] != seen["b"]
        assert stats["sessions_open"] == 2
        assert stats["sessions_opened"] == 4
        assert stats["sessions_evicted"] == 2
        assert len(stats["session_groups"]) == 2
        # Evicted sessions' counters stay in the aggregate.
        assert stats["session"]["dispatches"] == 0  # no pool work ran

    def test_single_lane_is_shared_never_evicted(self, chip, alu):
        netlists = {"fp-a": chip, "fp-b": alu}

        async def main():
            scheduler = SessionScheduler(max_sessions=1, workers=1)
            compiles = []
            try:
                for key in ("fp-a", "fp-b", "fp-a", "fp-b"):
                    netlist = netlists[key]
                    await scheduler.submit(
                        key,
                        lambda session, n=netlist: session.build_program(
                            n, random_patterns(n, 8, seed=1)
                        ),
                    )
                    compiles.append(scheduler.stats()["session"]["engine_compiles"])
                return scheduler.stats(), compiles
            finally:
                await scheduler.aclose()

        stats, compiles = asyncio.run(main())
        assert stats["sessions_opened"] == 1
        assert stats["sessions_evicted"] == 0
        # Each netlist compiles once; coming back reuses the lane's cache.
        assert compiles == [1, 2, 2, 2]

    def test_bad_session_arguments_fail_at_construction(self):
        from repro.gateway import Gateway

        for kwargs in ({"engine": "bogus"}, {"max_contexts": 0}, {"workers": 0}):
            with pytest.raises(ValueError):
                SessionScheduler(**kwargs)
            with pytest.raises(ValueError):
                Gateway(**kwargs)

    def test_aggregate_stats_sums_counters(self):
        assert aggregate_stats([{"a": 1, "b": 2}, {"a": 3}]) == {"a": 4, "b": 2}
        assert aggregate_stats([]) == {}


# ------------------------------------------------------- protocol details


class TestHttpProtocol:
    def test_unknown_route_and_wrong_method(self):
        with running_gateway(workers=1) as gateway:
            with GatewayClient(gateway.address) as client:
                with pytest.raises(RemoteError) as err:
                    client._call(client._client.request("GET", "/v1/nope"))
                assert err.value.code == "unknown-op"
                with pytest.raises(RemoteError) as err:
                    client._call(client._client.request("GET", "/v1/netlists"))
                assert err.value.code == "bad-request"

    def test_bad_json_body_is_rejected(self):
        with running_gateway(workers=1) as gateway:
            url = gateway.address + "/v1/netlists"
            request = urllib.request.Request(
                url, data=b"{not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
            body = json.loads(err.value.read())
            assert body["error"]["code"] == "bad-request"

    def test_lot_and_program_of_different_netlists_are_refused(
        self, chip, twin, recipe, patterns
    ):
        with running_gateway(workers=1) as gateway:
            with GatewayClient(gateway.address) as client:
                lot = client.fabricate(chip, recipe, 200, seed=1)
                program = client.build_program(twin, patterns)
                with pytest.raises(RemoteError) as err:
                    client.test(lot, program)
                assert err.value.code == "bad-request"
                handles = client._client._handles
                request = urllib.request.Request(
                    f"{gateway.address}/v1/lots/{handles.get(lot)}/test",
                    data=json.dumps({"program_id": handles.get(program)}).encode(),
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as http_err:
                    urllib.request.urlopen(request)
                assert http_err.value.code == 400
                own = client.build_program(chip, patterns)
                with Session(workers=1) as session:
                    expected = session.test(lot, own).records
                assert client.test(lot, own).records == expected

    def test_upload_under_another_netlist_is_refused(self, chip, twin, recipe):
        # c17 and its NOR twin have universes of one size, so the lot's
        # columns would validate on the twin: the fingerprint must match.
        with Session(workers=1) as session:
            lot = session.fabricate(chip, recipe, 20, dies_per_wafer=8, seed=4)
        with running_gateway(workers=1) as gateway:
            with GatewayClient(gateway.address) as client:
                twin_id = client.register(twin)
                with pytest.raises(RemoteError) as err:
                    client._call(
                        client._client.request(
                            "POST",
                            "/v1/lots",
                            {"netlist_id": twin_id, "lot": codec.lot_to_json(chip, lot)},
                        )
                    )
                assert err.value.code == "bad-request"
                assert netlist_fingerprint(chip) in str(err.value)

    def test_replay_dedup_answers_from_cache(self, chip):
        with running_gateway(workers=1) as gateway:
            url = gateway.address + "/v1/netlists"
            payload = json.dumps(
                {"netlist": codec.netlist_to_json(chip)}
            ).encode()
            headers = {
                "X-Repro-Client-Id": "replay-test",
                "X-Repro-Request-Id": "1",
                "Content-Type": "application/json",
            }
            bodies = []
            for _ in range(2):
                request = urllib.request.Request(
                    url, data=payload, headers=headers, method="POST"
                )
                with urllib.request.urlopen(request) as response:
                    bodies.append(response.read())
            assert bodies[0] == bodies[1]
            # The first call registered; a replayed request must not
            # observe its own side effects ("known" stays False).
            assert json.loads(bodies[1])["result"]["known"] is False
            with GatewayClient(gateway.address) as client:
                assert client.stats()["http"]["replay_hits"] >= 1

    def test_pipelined_requests_on_one_connection(self, chip):
        async def main(address):
            async with AsyncClient(address) as client:
                await client.register(chip)
                await asyncio.gather(
                    *(client.healthz() for _ in range(8))
                )
                return client.counters["pipelined_max"]

        with running_gateway(workers=1) as gateway:
            pipelined_max = asyncio.run(main(gateway.address))
        assert pipelined_max > 1

    def test_metrics_scrape_reconnects_after_a_dropped_connection(self):
        """A ``/metrics`` scrape rides the same retry loop as JSON calls."""
        body = b"repro_sessions 1\n"

        async def main():
            connections = []

            async def handle(reader, writer):
                connections.append(writer)
                request = await gateway_http.read_request(reader)
                if request is not None and len(connections) > 1:
                    writer.write(gateway_http.encode_response(
                        200, body, "text/plain; version=0.0.4", keep_alive=False
                    ))
                    await writer.drain()
                # The first connection dies with its reply unsent.
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncClient(
                    f"http://127.0.0.1:{port}", backoff=0.01
                ) as client:
                    return await client.metrics_text(), dict(client.counters)
            finally:
                server.close()
                await server.wait_closed()

        text, counters = asyncio.run(main())
        assert text == body.decode()
        assert counters["connection_losses"] == 1
        assert counters["reconnects"] == 1
        assert counters["retries"] == 1

    def test_metrics_exposition(self, chip, recipe, patterns):
        with running_gateway(workers=1) as gateway:
            with GatewayClient(gateway.address) as client:
                lot = client.fabricate(chip, recipe, 8, dies_per_wafer=4, seed=2)
                program = client.build_program(chip, patterns)
                client.test(lot, program)
                text = client.metrics_text()
        for name in (
            "repro_engine_compiles_total",
            "repro_resident_bytes",
            "repro_sessions",
            "repro_http_requests_total",
            "repro_queue_depth",
            "repro_pool_dispatches_total",
        ):
            assert name in text, f"missing metric {name}"
        lines = {
            line.split(" ")[0]: line.split(" ")[-1]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert float(lines["repro_engine_compiles_total"]) == 1.0
        assert float(lines["repro_sessions"]) == 1.0


class TestAuth:
    def test_token_required_when_configured(self, chip):
        with running_gateway(workers=1, auth_token="sesame") as gateway:
            # /healthz stays open (load balancers probe it unauthenticated).
            with urllib.request.urlopen(gateway.address + "/healthz") as resp:
                assert json.loads(resp.read())["ok"] is True
            with GatewayClient(gateway.address) as anon:
                with pytest.raises(RemoteError) as err:
                    anon.register(chip)
                assert err.value.code == "unauthorized"
            with GatewayClient(gateway.address, token="wrong") as bad:
                with pytest.raises(RemoteError) as err:
                    bad.register(chip)
                assert err.value.code == "unauthorized"
            with GatewayClient(gateway.address, token="sesame") as client:
                assert client.register(chip) == netlist_fingerprint(chip)

    def test_non_loopback_bind_requires_token(self):
        with pytest.raises(ValueError):
            from repro.gateway import Gateway

            Gateway(host="0.0.0.0", port=0)

    def test_tls_mismatched_flags_rejected(self, tmp_path):
        from repro.gateway import Gateway

        with pytest.raises(ValueError):
            Gateway(tls_cert=str(tmp_path / "cert.pem"))

    @pytest.mark.skipif(
        shutil.which("openssl") is None, reason="openssl CLI unavailable"
    )
    def test_tls_round_trip_with_self_signed_cert(self, tmp_path, chip):
        import ssl

        cert = tmp_path / "cert.pem"
        key = tmp_path / "key.pem"
        subprocess.run(
            [
                "openssl", "req", "-x509", "-newkey", "rsa:2048",
                "-keyout", str(key), "-out", str(cert),
                "-days", "1", "-nodes", "-subj", "/CN=127.0.0.1",
                "-addext", "subjectAltName=IP:127.0.0.1",
            ],
            check=True,
            capture_output=True,
        )
        context = ssl.create_default_context(cafile=str(cert))
        context.check_hostname = False
        with running_gateway(
            workers=1, tls_cert=str(cert), tls_key=str(key)
        ) as gateway:
            assert gateway.address.startswith("https://")
            with GatewayClient(gateway.address, ssl_context=context) as client:
                assert client.healthz()["status"] == "ok"
                assert client.register(chip) == netlist_fingerprint(chip)


# ------------------------------------------------------------------ chaos


class TestGatewayChaos:
    def test_overload_rejection_is_retried_and_bit_identical(
        self, chip, patterns
    ):
        with running_gateway(workers=1, max_queue_depth=1) as gateway:
            with GatewayClient(gateway.address, timeout=30) as slow, \
                    GatewayClient(
                        gateway.address, timeout=30, retries=40, backoff=0.02
                    ) as fast:
                # Registration is un-queued (no server.job firing), so
                # pre-registering keeps the schedule for the two builds.
                slow.register(chip)
                fast.register(chip)
                schedule = ChaosSchedule(
                    [Fault("server.job", "delay", times=2, value=0.4)]
                )
                curves = {}
                errors = []

                def build(client, key):
                    try:
                        program = client.build_program(chip, patterns)
                        curves[key] = tuple(program.coverage_curve)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                with chaos.active(schedule):
                    thread = threading.Thread(target=build, args=(slow, "slow"))
                    thread.start()
                    import time

                    time.sleep(0.15)  # the slow job now owns the queue slot
                    build(fast, "fast")
                    thread.join(30)
                assert not errors
                assert curves["slow"] == curves["fast"]
                assert fast.counters["overload_rejections"] >= 1
                assert fast.counters["retries"] >= 1
                stats = fast.stats()["scheduler"]
                assert stats["overload_rejections"] >= 1

    def test_request_deadline_answers_504(self, chip, patterns):
        with running_gateway(workers=1, request_timeout=0.25) as gateway:
            with GatewayClient(gateway.address, timeout=30) as client:
                client.register(chip)
                schedule = ChaosSchedule(
                    [Fault("server.job", "delay", times=1, value=1.0)]
                )
                with chaos.active(schedule):
                    with pytest.raises(RemoteError) as err:
                        client.build_program(chip, patterns)
                assert err.value.code == "deadline-exceeded"
                # The uninterruptible job drains behind the deadline;
                # once it does, the same request succeeds normally.
                import time

                time.sleep(1.5)
                program = client.build_program(chip, patterns)
                assert len(program.coverage_curve) > 0
                assert client.stats()["http"]["deadline_expirations"] >= 1

    def test_killed_pool_worker_heals_through_gateway(
        self, chip, recipe, patterns
    ):
        import os
        import signal

        with running_gateway(workers=2) as gateway:
            with GatewayClient(gateway.address, timeout=120) as client:
                lot = client.fabricate(
                    chip, recipe, 16, dies_per_wafer=4, seed=7
                )
                program = client.build_program(chip, patterns)
                baseline = client.test(lot, program)
                # Simulate a test-floor casualty: SIGKILL every lane's
                # pool workers between requests.
                for lane in gateway._scheduler._lanes.values():
                    for pid in lane.session.executor.worker_pids:
                        os.kill(pid, signal.SIGKILL)
                # A *different* client's traffic never fails.
                with GatewayClient(gateway.address, timeout=120) as other:
                    injected = other.test(lot, program)
                assert injected.records == baseline.records
                stats = client.stats()["scheduler"]["session"]
                assert stats["worker_recoveries"] >= 1


# ------------------------------------------------------------ runner shim


class TestRunnerIntegration:
    def test_experiments_runner_speaks_http(self, capsys):
        from repro.experiments.runner import main as runner_main

        with running_gateway(workers=1) as gateway:
            code = runner_main(["fig1", "--server", gateway.address])
        assert code == 0
        out = capsys.readouterr().out
        assert "=== fig1" in out

    def test_runner_rejects_engine_with_server(self):
        from repro.experiments.runner import main as runner_main

        with pytest.raises(SystemExit):
            runner_main(
                ["fig1", "--server", "http://127.0.0.1:1", "--engine", "auto"]
            )
