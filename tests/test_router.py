"""The federation router contract: acceptance tests of the router PR.

* **Transparency** — a client pointed at the router instead of a
  server sees the identical protocol: same banner shape, same error
  codes, and byte-for-byte the same pipeline results as the direct
  :class:`repro.api.Session` reference.
* **Placement** — requests shard by netlist fingerprint: one netlist's
  traffic sticks to one backend (keeping its compiled caches warm),
  distinct netlists land where the hash ring says they do.
* **Resilience** — a SIGKILLed backend mid-run is survived via
  ring-order failover, idempotent ``(cid, rid)`` replay, and lazy
  netlist re-upload — bit-identically; health probes eject a dead
  backend and re-admit it when it returns; planned removal drains.
* **Operations** — ``router_add`` / ``router_remove`` admin ops and
  the HTTP observability surface (``/healthz``, ``/metrics``); a
  malformed admin request is answered ``bad-request`` / 400, never a
  dropped connection.

In-thread tests (``running_server`` + ``running_router``) cover the
protocol and placement; subprocess tests (``running_cluster``) cover
real process death, including the chaos-driven 3-backend kill.
"""

import json
import time
import urllib.error
import urllib.request
from contextlib import ExitStack

import numpy as np
import pytest

from repro import chaos
from repro.chaos import ChaosSchedule, Fault
from repro.router import HashRing, Router
from repro.router.testing import running_router
from repro.server import Client, RemoteError, netlist_fingerprint, parse_address
from repro.server.testing import running_server
from repro.testing import running_cluster


@pytest.fixture(autouse=True)
def _no_leaked_chaos():
    """No test may leave a chaos schedule active for its successors."""
    yield
    chaos.uninstall()


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ------------------------------------------------------------ transparency


class TestTransparency:
    def test_ping_banner(self, chip):
        with running_server(workers=1) as backend:
            with running_router(backends=[backend.address]) as router:
                with Client(router.address) as client:
                    pong = client.ping()
        assert pong["pong"] is True
        assert pong["server"] == "repro-router"
        assert pong["protocol"] == 2
        assert pong["backends_up"] == 1

    def test_pipeline_bit_identical_through_router(
        self, chip, recipe, patterns, reference
    ):
        ref_lot, ref_program, ref_result, ref_report = reference
        with ExitStack() as stack:
            backends = [
                stack.enter_context(running_server(workers=1)) for _ in range(2)
            ]
            router = stack.enter_context(
                running_router(backends=[b.address for b in backends])
            )
            with Client(router.address) as client:
                lot = client.fabricate(chip, recipe, 12, dies_per_wafer=4, seed=7)
                program = client.build_program(chip, patterns)
                result = client.test(lot, program)
                report = client.run_experiment("fig1")
        assert lot.chips == ref_lot.chips
        np.testing.assert_array_equal(
            program.coverage_curve, ref_program.coverage_curve
        )
        assert result.records == ref_result.records
        assert report == ref_report

    def test_backend_errors_relay_verbatim(self, chip):
        with running_server(workers=1) as backend:
            with running_router(backends=[backend.address]) as router:
                with Client(router.address) as client:
                    with pytest.raises(RemoteError) as err:
                        client.request("warp-drive")
                    assert err.value.code == "unknown-op"
                    with pytest.raises(RemoteError) as err:
                        client.request(
                            "fabricate",
                            netlist_id="f" * 64,
                            recipe=None,
                            num_chips=1,
                        )
                    assert err.value.code in ("unknown-netlist", "bad-request")

    def test_no_backends_answers_unavailable(self):
        with running_router(backends=[]) as router:
            with Client(router.address) as client:
                assert client.ping()["backends_up"] == 0
                with pytest.raises(RemoteError) as err:
                    client.run_experiment("fig1")
        assert err.value.code == "unavailable"


# --------------------------------------------------------------- placement


class TestPlacement:
    def test_one_netlist_sticks_to_one_backend(self, chip, recipe):
        with ExitStack() as stack:
            backends = [
                stack.enter_context(running_server(workers=1)) for _ in range(3)
            ]
            addresses = [b.address for b in backends]
            router = stack.enter_context(running_router(backends=addresses))
            with Client(router.address) as client:
                for seed in range(3):
                    client.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=seed)
                stats = client.stats()["router"]
        touched = [b for b in stats["backends"] if b["forwarded"]]
        assert len(touched) == 1
        expected = HashRing(addresses).owner(netlist_fingerprint(chip))
        assert touched[0]["address"] == expected

    def test_distinct_netlists_follow_the_ring(self, chip, alu, recipe):
        with ExitStack() as stack:
            backends = [
                stack.enter_context(running_server(workers=1)) for _ in range(3)
            ]
            addresses = [b.address for b in backends]
            ring = HashRing(addresses)
            router = stack.enter_context(running_router(backends=addresses))
            with Client(router.address) as client:
                for netlist in (chip, alu):
                    client.fabricate(netlist, recipe, 4, dies_per_wafer=4, seed=1)
                stats = client.stats()["router"]
        forwarded = {b["address"]: b["forwarded"] for b in stats["backends"]}
        for netlist in (chip, alu):
            owner = ring.owner(netlist_fingerprint(netlist))
            assert forwarded[owner] > 0
        # Nothing landed off-ring.
        owners = {ring.owner(netlist_fingerprint(n)) for n in (chip, alu)}
        for address, count in forwarded.items():
            if address not in owners:
                assert count == 0

    def test_admin_add_and_drain_remove(self, chip, recipe):
        with ExitStack() as stack:
            first = stack.enter_context(running_server(workers=1))
            second = stack.enter_context(running_server(workers=1))
            router = stack.enter_context(running_router(backends=[first.address]))
            with Client(router.address) as client:
                client.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=1)
                added = client.request("router_add", address=second.address)
                assert added["added"] == second.address
                assert client.ping()["backends_up"] == 2
                removed = client.request("router_remove", address=first.address)
                assert removed == {"removed": first.address, "drained": True}
                assert client.ping()["backends_up"] == 1
                # The survivor serves traffic the departed node owned —
                # including the lazy netlist re-upload for its shard.
                lot = client.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=1)
                assert len(lot.chips) == 4
                with pytest.raises(RemoteError) as err:
                    client.request("router_remove", address="1.2.3.4:9")
                assert err.value.code == "bad-request"


# -------------------------------------------------------------- resilience


class TestResilience:
    def test_injected_forward_reset_reroutes(self, chip, recipe):
        chaos.install(
            ChaosSchedule([Fault(point="router.forward", action="reset")])
        )
        with ExitStack() as stack:
            backends = [
                stack.enter_context(running_server(workers=1)) for _ in range(2)
            ]
            router = stack.enter_context(
                running_router(backends=[b.address for b in backends])
            )
            with Client(router.address) as client:
                lot = client.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=1)
                assert len(lot.chips) == 4
        assert router.reroutes >= 1
        assert router.backend_deaths >= 1

    def test_client_rotates_across_failover_endpoints(self, chip):
        with running_server(workers=1) as backend:
            with running_router(backends=[backend.address]) as router:
                # The first endpoint is dead: the ring-aware client
                # rotates to the live router instead of giving up.
                with Client(f"127.0.0.1:1,{router.address}") as client:
                    assert client.ping()["pong"] is True
                    assert client.register(chip) == netlist_fingerprint(chip)

    def test_ejection_and_readmission(self, chip):
        with running_server(workers=1) as stable:
            flaky_server = running_server(workers=1)
            flaky = flaky_server.__enter__()
            flaky_address = flaky.address
            flaky_port = int(flaky_address.rsplit(":", 1)[1])
            with running_router(
                backends=[stable.address, flaky_address],
                health_interval=0.05,
                eject_failures=2,
                connect_timeout=2.0,
            ) as router:

                def state_of(address):
                    backends = router.router_stats()["backends"]
                    return next(
                        b["state"] for b in backends if b["address"] == address
                    )

                flaky_server.__exit__(None, None, None)  # backend goes away
                assert _wait_until(lambda: state_of(flaky_address) == "down")
                assert router.ejections >= 1
                # Requests keep flowing while degraded.
                with Client(router.address) as client:
                    assert client.ping()["backends_up"] == 1
                # The backend returns on its old port: probes re-admit it.
                with running_server(workers=1, port=flaky_port):
                    assert _wait_until(lambda: state_of(flaky_address) == "up")
                    assert router.readmissions >= 1


# ----------------------------------------------------- subprocess clusters


class TestCluster:
    def test_kill_and_restart_backend(self, chip, recipe, patterns, reference):
        ref_lot, ref_program, ref_result, _ = reference
        with running_cluster(n_backends=2) as cluster:
            owner = HashRing(cluster.backend_addresses).owner(
                netlist_fingerprint(chip)
            )
            victim = cluster.backend_addresses.index(owner)
            with cluster.client() as client:
                lot = client.fabricate(chip, recipe, 12, dies_per_wafer=4, seed=7)
                cluster.kill_backend(victim)  # SIGKILL the shard owner
                # Same (cid, rid) discipline + re-upload: bit-identical
                # results from the surviving backend.
                program = client.build_program(chip, patterns)
                result = client.test(lot, program)
                stats = client.stats()["router"]
                assert stats["backend_deaths"] >= 1
                assert stats["reroutes"] >= 1
                cluster.restart_backend(victim)
                assert client.ping()["backends_up"] == 2
        assert lot.chips == ref_lot.chips
        np.testing.assert_array_equal(
            program.coverage_curve, ref_program.coverage_curve
        )
        assert result.records == ref_result.records


class TestChaosFederation:
    def test_backend_sigkill_mid_run_heals_bit_identically(
        self, chip, recipe, patterns, reference
    ):
        """The acceptance scenario: 3 backends, one SIGKILLed mid-job.

        The ``router.backend`` seam fires on the backend's exec thread
        while it is *running* a routed job — the worst moment to die:
        the router has the request in flight and must fail it over.
        The schedule is installed before the cluster spawns so the
        backend subprocesses inherit it via ``REPRO_CHAOS``; the
        marker-file budget guarantees exactly one firing fleet-wide.
        """
        ref_lot, ref_program, ref_result, ref_report = reference
        schedule = chaos.install(
            ChaosSchedule([Fault(point="router.backend", action="kill")])
        )
        with running_cluster(n_backends=3) as cluster:
            with cluster.client() as client:
                lot = client.fabricate(chip, recipe, 12, dies_per_wafer=4, seed=7)
                program = client.build_program(chip, patterns)
                result = client.test(lot, program)
                report = client.run_experiment("fig1")
                stats = client.stats()["router"]
        assert schedule.total_injections() == 1
        assert stats["backend_deaths"] >= 1
        assert stats["reroutes"] >= 1
        assert lot.chips == ref_lot.chips
        np.testing.assert_array_equal(
            program.coverage_curve, ref_program.coverage_curve
        )
        assert result.records == ref_result.records
        assert report == ref_report


# ------------------------------------------------------------ HTTP surface


class TestHttpSurface:
    def test_healthz_and_metrics(self, chip, recipe):
        with running_server(workers=1) as backend:
            with running_router(
                backends=[backend.address], http_port=0
            ) as router:
                with Client(router.address) as client:
                    client.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=1)
                base = router.http_address
                with urllib.request.urlopen(base + "/healthz") as resp:
                    health = json.load(resp)
                    assert resp.status == 200
                assert health["status"] == "ok"
                assert health["backends_up"] == 1
                with urllib.request.urlopen(base + "/metrics") as resp:
                    metrics = resp.read().decode()
                assert "repro_router_backends_up 1" in metrics
                assert "repro_router_requests_total" in metrics
                assert 'repro_router_backend_forwarded_total{backend="' in metrics
                with urllib.request.urlopen(base + "/v1/stats") as resp:
                    stats = json.load(resp)
                assert backend.address in stats["backends"]
                assert stats["router"]["requests_by_op"]["fabricate"] == 1


# ------------------------------------------------------------ admin errors


def _post_backends(base: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + "/v1/backends", data=body, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestAdminErrors:
    def test_malformed_router_add_answers_bad_request(self):
        with running_router(backends=[]) as router:
            with Client(router.address) as client:
                for address in ("nonsense", "unix:/tmp/x\nrepro_router_backends_up 99"):
                    with pytest.raises(RemoteError) as err:
                        client.request("router_add", address=address)
                    assert err.value.code == "bad-request"
                # The connection survived both errors.
                assert client.ping()["backends"] == 0
                assert client.counters["connection_losses"] == 0

    def test_malformed_http_backend_bodies_answer_400(self):
        with running_router(backends=[], http_port=0) as router:
            for body in (b"[1,2]", b'{"address": 5}', b'{"address": "nonsense"}'):
                status, payload = _post_backends(router.http_address, body)
                assert status == 400
                assert payload["ok"] is False
            assert router.router_stats()["backends"] == []

    def test_address_with_control_characters_is_rejected(self):
        forged = "unix:/tmp/x\nrepro_router_backends_up 99"
        with pytest.raises(ValueError):
            parse_address(forged)
        with pytest.raises(ValueError):
            Router(backends=[forged])
        with running_router(backends=[], http_port=0) as router:
            status, _ = _post_backends(
                router.http_address, json.dumps({"address": forged}).encode()
            )
            assert status == 400
            with urllib.request.urlopen(router.http_address + "/metrics") as resp:
                metrics = resp.read().decode()
        assert "repro_router_backends_up 0\n" in metrics
        assert "99" not in metrics
