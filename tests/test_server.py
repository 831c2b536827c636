"""The lot-testing server contract: the acceptance tests of the server PR.

* **Bit-identity** — server-mediated ``fabricate`` / ``build_program``
  / ``test_lot`` / ``run_experiment`` return byte-for-byte the same
  objects and reports as direct :class:`repro.api.Session` calls.
* **Shared compiled caches** — two concurrent clients uploading the
  same circuit (distinct objects, equal structure) compile its engine
  exactly once, asserted via the ``stats`` op.
* **Bounded residency + crash healing** — the shared session's
  ``max_contexts`` LRU bounds resident contexts while serving, and a
  SIGKILLed pool worker is healed transparently: requests from other
  clients keep succeeding, bit-identically.
* **Protocol** — handles versus uploads, error codes, address parsing,
  netlist fingerprints, clean shutdown.
"""

import json
import os
import signal
import socket
import struct
import threading

import numpy as np
import pytest

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import c17, simple_alu
from repro.manufacturing.process import ProcessRecipe
from repro.server import Client, RemoteError, netlist_fingerprint, parse_address
from repro.server.protocol import encode_frame, pack_lot, recv_frame
from repro.server.testing import running_server
from repro.testing import spawn_server


# Shared chip / recipe / patterns / reference fixtures live in
# tests/conftest.py — one definition for the server, gateway, and
# router suites.

# ------------------------------------------------------------ bit-identity


class TestDifferential:
    def test_pipeline_bit_identical_to_session(
        self, chip, recipe, patterns, reference
    ):
        ref_lot, ref_program, ref_result, ref_report = reference
        for workers in (1, 2):
            with running_server(workers=workers) as server:
                with Client(server.address) as client:
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
        with running_server(workers=1) as server:
            with Client(server.address) as client:
                # Fresh client that built nothing on this server: both
                # objects upload (pickle) instead of traveling by handle.
                result = client.test(ref_lot, ref_program)
                assert result.records == ref_result.records

    def test_handles_skip_reupload(self, chip, recipe, patterns):
        with running_server(workers=1) as server:
            with Client(server.address) as client:
                lot = client.fabricate(chip, recipe, 8, dies_per_wafer=4, seed=1)
                program = client.build_program(chip, patterns)
                first = client.test(lot, program)
                second = client.test(lot, program)
                assert first.records == second.records
                stats = client.stats()["server"]
                assert stats["lots_retained"] == 1
                assert stats["programs_retained"] == 1


# ---------------------------------------------------------- shared caches


class TestSharedCaches:
    def test_concurrent_clients_compile_once(self, recipe):
        num_clients = 4
        with running_server(workers=1) as server:
            barrier = threading.Barrier(num_clients)
            curves, errors = [], []

            def hammer():
                try:
                    # Each client builds its own structurally-equal
                    # netlist object — distinct pickles, one fingerprint.
                    chip = c17()
                    patterns = random_patterns(chip, 24, seed=9)
                    with Client(server.address) as client:
                        barrier.wait(timeout=30)
                        program = client.build_program(chip, patterns)
                        curves.append(tuple(program.coverage_curve))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer) for _ in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not errors
            assert len(set(curves)) == 1
            with Client(server.address) as client:
                stats = client.stats()
                assert stats["session"]["engine_compiles"] == 1
                assert stats["server"]["registered_netlists"] == 1

    def test_fingerprint_is_structural(self):
        assert netlist_fingerprint(c17()) == netlist_fingerprint(c17())
        assert netlist_fingerprint(c17()) != netlist_fingerprint(simple_alu(2))


# ------------------------------------------- eviction + crash while serving


class TestServerRuntime:
    def test_eviction_bounds_resident_contexts(self, recipe):
        with running_server(workers=1, max_contexts=1) as server:
            with Client(server.address) as client:
                chip_a, chip_b = c17(), simple_alu(2)
                client.build_program(chip_a, random_patterns(chip_a, 8, seed=1))
                client.build_program(chip_b, random_patterns(chip_b, 8, seed=1))
                client.build_program(chip_a, random_patterns(chip_a, 8, seed=2))
                stats = client.stats()["session"]
                assert (
                    stats["cached_netlists"] + stats["cached_testers"] <= 1
                )
                assert stats["evictions"] >= 2
                assert stats["engine_compiles"] == 3  # A, B, A-again

    def test_crashed_worker_healed_while_serving(self, chip, recipe, patterns):
        with running_server(workers=2) as server:
            with Client(server.address) as client:
                lot = client.fabricate(chip, recipe, 16, dies_per_wafer=4, seed=7)
                program = client.build_program(chip, patterns)
                before = client.test(lot, program)
                # Simulate a test-floor casualty: SIGKILL the session's
                # pool workers between requests.
                for lane in server._scheduler._lanes.values():
                    for pid in lane.session.executor.worker_pids:
                        os.kill(pid, signal.SIGKILL)
                # A *different* client's in-flight traffic never fails.
                with Client(server.address) as other:
                    after = other.test(lot, program)
                assert after.records == before.records
                assert client.stats()["session"]["worker_recoveries"] >= 1


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_error_codes(self, chip, recipe, patterns):
        with running_server(workers=1) as server:
            with Client(server.address) as client:
                with pytest.raises(RemoteError) as err:
                    client.request("warp-drive")
                assert err.value.code == "unknown-op"
                with pytest.raises(RemoteError) as err:
                    client.request("fabricate", netlist_id="not-registered")
                assert err.value.code == "unknown-netlist"
                with pytest.raises(RemoteError) as err:
                    client.request("fabricate")
                assert err.value.code == "bad-request"
                with pytest.raises(RemoteError) as err:
                    client.request(
                        "test_lot", program_id="prog-999", lot_id="lot-999"
                    )
                assert err.value.code == "unknown-handle"
                with pytest.raises(RemoteError) as err:
                    client.run_experiment("no-such-figure")
                assert err.value.code == "user-error"
                # User errors from inside the pipeline map to user-error:
                netlist_id = client.register(chip)
                from repro.server.protocol import pack_obj

                with pytest.raises(RemoteError) as err:
                    client.request(
                        "fabricate",
                        netlist_id=netlist_id,
                        recipe=pack_obj(recipe),
                        num_chips=0,
                    )
                assert err.value.code == "user-error"

    def test_lot_and_program_of_different_netlists_are_refused(
        self, chip, twin, recipe, patterns
    ):
        # twin shares every signal name with chip, so testing chip's
        # lot against twin's program would silently re-read its faults
        # on the wrong circuit.
        with running_server(workers=1) as server:
            with Client(server.address) as client:
                lot = client.fabricate(chip, recipe, 200, seed=1)
                program = client.build_program(twin, patterns)
                with pytest.raises(RemoteError) as err:
                    client.test(lot, program)  # both by handle
                assert err.value.code == "bad-request"
                with pytest.raises(RemoteError) as err:
                    client.request(
                        "test_lot",
                        program_id=client._handles.get(program),
                        chips=client._pack(pack_lot(chip, lot)),
                    )
                assert err.value.code == "bad-request"
                own = client.build_program(chip, patterns)
                with Session(workers=1) as session:
                    expected = session.test(lot, own).records
                assert client.test(lot, own).records == expected

    def test_bad_session_arguments_fail_at_construction(self):
        from repro.server import LotServer

        for kwargs in ({"engine": "bogus"}, {"max_contexts": 0}, {"workers": 0}):
            with pytest.raises(ValueError):
                LotServer(**kwargs)

    def test_shutdown_completes_with_idle_client_connected(self):
        # Regression guard for Python >= 3.12.1, where Server.wait_closed
        # blocks until every connection handler finishes: an idle client
        # that never disconnects must not hang shutdown.
        with running_server(timeout=30, workers=1) as server:
            idle = Client(server.address)  # connects, then just sits
            assert idle.ping()["pong"] is True
            with Client(server.address) as other:
                other.shutdown_server()
            # running_server's exit joins the server thread; reaching
            # the assertion below means shutdown did not hang.
            server._finished.wait(30)
            assert server._finished.is_set()
            idle.close()

    def test_ping_and_clean_shutdown(self):
        with running_server(workers=1) as server:
            client = Client(server.address)
            assert client.ping()["pong"] is True
            client.shutdown_server()
            client.close()
        # Context manager exit joins the thread; a fresh connection is
        # refused once the server is down.
        with pytest.raises(OSError):
            Client(server.address)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7642") == ("tcp", ("127.0.0.1", 7642))
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        for bad in ("noport", ":7642", "host:", "host:abc", "unix:"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_unix_socket_transport(self, chip, patterns, tmp_path):
        path = str(tmp_path / "repro.sock")
        with running_server(workers=1, port=0, socket_path=path) as server:
            assert server.address == f"unix:{path}"
            with Client(server.address) as client:
                assert client.ping()["pong"] is True
                program = client.build_program(chip, patterns)
                assert len(program) == len(patterns)
        assert not os.path.exists(path)

    def test_runner_server_flag_is_exclusive(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--server", "127.0.0.1:1", "--workers", "2"])
        assert exc.value.code == 2

    def test_runner_runs_against_server(self, capsys):
        from repro.experiments.runner import main

        with running_server(workers=1) as server:
            assert main(["fig1", "--server", server.address]) == 0
        out = capsys.readouterr().out
        assert "=== fig1" in out and "Fig. 1" in out


# --------------------------------------------- malformed frames + drain

_BINARY_FLAG = 0x80000000  # MSB of the length prefix (protocol 2)


def _raw_connection(server) -> socket.socket:
    """A plain socket to the server, bypassing the Client's resilience."""
    kind, target = parse_address(server.address)
    assert kind == "tcp"
    sock = socket.create_connection(target, timeout=30)
    sock.settimeout(30)
    return sock


class TestBadFrames:
    """A hostile or buggy peer must never take the reader down.

    A frame whose body arrives *in full* but does not decode is
    answered with ``ERR_BAD_FRAME`` on a still-synchronized stream; a
    frame truncated mid-read leaves the stream desynchronized, so that
    connection is dropped — but the server keeps serving new ones.
    """

    def _assert_bad_frame_then_recovers(self, server, frame: bytes):
        with _raw_connection(server) as sock:
            sock.sendall(frame)
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-frame"
            # Same socket, next frame: the stream stayed synchronized.
            sock.sendall(encode_frame({"id": 1, "op": "ping", "params": {}}))
            reply = recv_frame(sock)
            assert reply["ok"] is True
            assert reply["result"]["pong"] is True

    def test_non_json_body_answers_bad_frame(self):
        body = b"this is not json at all"
        frame = struct.pack(">I", len(body)) + body
        with running_server(workers=1) as server:
            self._assert_bad_frame_then_recovers(server, frame)

    def test_binary_header_overrun_answers_bad_frame(self):
        # A protocol-2 body whose inner header_len overruns the body.
        body = struct.pack(">I", 999) + b"ab"
        frame = struct.pack(">I", _BINARY_FLAG | len(body)) + body
        with running_server(workers=1) as server:
            self._assert_bad_frame_then_recovers(server, frame)

    def test_garbage_wire_stub_answers_bad_frame(self):
        # A well-formed binary header whose __wire__ stub points past
        # the (empty) buffer index.
        header = json.dumps(
            {"id": 3, "op": "ping", "params": {"x": {"__wire__": 7}}, "_wire": []}
        ).encode("ascii")
        body = struct.pack(">I", len(header)) + header
        frame = struct.pack(">I", _BINARY_FLAG | len(body)) + body
        with running_server(workers=1) as server:
            self._assert_bad_frame_then_recovers(server, frame)

    def test_truncated_length_prefix_drops_only_that_connection(self):
        with running_server(workers=1) as server:
            with _raw_connection(server) as sock:
                sock.sendall(b"\x00\x00")  # half a length prefix, then EOF
            with Client(server.address) as client:
                assert client.ping()["pong"] is True

    def test_truncated_body_drops_only_that_connection(self):
        with running_server(workers=1) as server:
            with _raw_connection(server) as sock:
                sock.sendall(struct.pack(">I", 100) + b"short")
            with Client(server.address) as client:
                assert client.ping()["pong"] is True


class TestGracefulDrain:
    def test_cli_sigint_exits_zero_with_drain_summary(self):
        # The repro-server process must treat Ctrl-C as graceful drain:
        # no KeyboardInterrupt traceback, exit code 0, and the one-line
        # drain summary on stdout.
        proc = spawn_server("--port", 0, "--workers", 1)
        try:
            with Client(proc.address, timeout=30) as client:
                assert client.ping()["pong"] is True
                proc.send_signal(signal.SIGINT)
                assert proc.wait(60) == 0
        finally:
            proc.kill()
        assert "drained 0 in-flight request(s)" in proc.log
        assert "KeyboardInterrupt" not in proc.log
        assert "Traceback" not in proc.log
