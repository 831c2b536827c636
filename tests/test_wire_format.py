"""Differential tests of the SoA wire format, end to end.

The wire format is an *encoding*, never a semantic: every boundary that
ships fault-index arrays instead of pickled object trees — the
tester's lot shards, the fault simulator's fault shards, the executor's
zero-copy frames, the server's binary protocol — must produce results
bit-identical to the same faults handed in as objects and to the
word-level oracles at any worker count.  These
tests pin that down, plus the transport edge cases: shared-memory
hygiene (``/dev/shm`` holds nothing after a run), recovery when a worker
is SIGKILLed mid-dispatch with shared-memory frames in flight, and the
frame-size accounting fix (the half-GiB limit bounds decoded payload
bytes, with base64's ~33% inflation allowed on top for JSON frames).
"""

import os
import re
import signal
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import c17
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.manufacturing.lot import fabricate_lot
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import FabricatedChip
from repro.runtime import ParallelExecutor, new_context_token
from repro.runtime import wire
from repro.server import protocol
from repro.server.client import Client
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    WireObj,
    encode_frame,
    lot_from_arrays,
    pack_lot,
    pack_obj,
    recv_frame,
    send_frame,
    unpack_obj,
)
from repro.server.testing import running_server
from repro.tester.program import TestProgram
from repro.tester.tester import WaferTester

from compiled_oracle import CompiledEngine, lot_records

SHM_DIR = Path("/dev/shm")


def _shm_names() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir()}


@pytest.fixture(scope="module")
def chip():
    return c17()


@pytest.fixture(scope="module")
def recipe():
    return ProcessRecipe(
        defect_density=3.0, clustering=0.5, mean_defect_radius=0.15
    )


@pytest.fixture(scope="module")
def lot(chip, recipe):
    return fabricate_lot(chip, recipe, 60, dies_per_wafer=10, seed=11)


@pytest.fixture(scope="module")
def program(chip):
    return TestProgram.build(chip, random_patterns(chip, 60, seed=3))


# ----------------------------------------------------- payload differential


class TestPayloadDifferential:
    """SoA shard payloads versus fault-object inputs: bit-identical.

    Shards always travel as fault-index arrays; a fault outside
    the netlist's universe (an ad-hoc site such as a fanout-1 branch) is
    rejected with a ``ValueError`` naming it before anything is sent.
    """

    # Signal "1" of c17 has one sink, so its branch is not a universe site.
    ADHOC = StuckAtFault("1", 1, gate="10", pin=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_test_lot_identical_across_formats(self, lot, program, workers):
        tester = WaferTester(program)
        soa = tester.test_lot(lot.chips, workers=workers)
        assert soa == lot_records(program, lot.chips)
        base = lot.chips[0]
        adhoc = FabricatedChip(base.chip_id, base.defects, (self.ADHOC,))
        with pytest.raises(ValueError, match=re.escape(str(self.ADHOC))):
            tester.test_lot([*lot.chips, adhoc], workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fault_sim_identical_across_formats(self, chip, workers):
        patterns = random_patterns(chip, 40, seed=7)
        universe = full_fault_universe(chip)
        simulator = FaultSimulator(chip)
        soa = simulator.run(patterns, workers=workers)
        objects = simulator.run(patterns, faults=universe, workers=workers)
        assert objects.first_detect == soa.first_detect
        assert np.array_equal(
            objects.coverage_curve(),
            FaultSimulator(chip, engine=CompiledEngine(chip))
            .run(patterns, faults=universe)
            .coverage_curve(),
        )
        with pytest.raises(ValueError, match=re.escape(str(self.ADHOC))):
            simulator.run(
                patterns, faults=[*universe, self.ADHOC], workers=workers
            )

    def test_eager_chips_take_the_lookup_path(self, lot, program):
        # A lot that crossed a pickle boundary loses its array backing;
        # the SoA encoder must map those faults through the universe
        # lookup and still match the array-backed original.
        import pickle

        eager_chips = pickle.loads(pickle.dumps(lot.chips))
        tester = WaferTester(program)
        assert tester.test_lot(eager_chips, workers=2) == tester.test_lot(
            lot.chips, workers=2
        )

    def test_object_fallback_validates_sites(self, lot, program, chip):
        """A bogus site cannot ride the object fallback into a worker
        unchecked: lot and fault shards reject it like the serial path."""
        base = lot.chips[0]
        patterns = random_patterns(chip, 8, seed=1)
        for bogus in (
            StuckAtFault("no-such-signal", 1),
            StuckAtFault("10", 1, gate="no-such-gate", pin=0),
            StuckAtFault("10", 1, gate="22", pin=9),
        ):
            chips = [
                *lot.chips[1:6],
                FabricatedChip(base.chip_id, base.defects, (bogus,)),
            ]
            for workers in (1, 2):
                with pytest.raises(ValueError):
                    WaferTester(program).test_lot(chips, workers=workers)
                with pytest.raises(ValueError):
                    FaultSimulator(chip).run(
                        patterns, faults=[self.ADHOC, bogus], workers=workers
                    )

    def test_lot_arrays_roundtrip_is_lossless(self, chip, lot):
        arrays = pack_lot(chip, lot)
        assert arrays is not None
        rebuilt = lot_from_arrays(chip, arrays)
        assert len(rebuilt) == len(lot)
        assert rebuilt.fault_counts().tolist() == lot.fault_counts().tolist()
        for ours, theirs in zip(lot.chips, rebuilt.chips):
            assert ours.chip_id == theirs.chip_id
            assert ours.faults == theirs.faults
            assert ours.defects == theirs.defects


# ------------------------------------------------------- executor transport


def _sum_shard(context, shard):
    return [float(context.sum()) + float(x) for x in shard]


def _slow_sum_shard(context, shard):
    time.sleep(1.5)
    return [float(context.sum()) + float(x) for x in shard]


class TestExecutorTransport:
    def test_shared_memory_frames_leave_dev_shm_clean(self, monkeypatch):
        monkeypatch.setattr(wire, "SHM_MIN_BYTES", 1024)
        baseline = _shm_names()
        context = np.arange(200_000, dtype=np.float64)  # >> threshold
        with ParallelExecutor(2, persistent=True) as executor:
            token = new_context_token()
            result = executor.map_shards(
                _sum_shard, context, [[1], [2]], token=token
            )
            assert result == [
                [float(context.sum()) + 1.0],
                [float(context.sum()) + 2.0],
            ]
            assert executor.ipc_bytes_out > context.nbytes
        assert _shm_names() <= baseline

    def test_sigkill_during_zero_copy_dispatch_recovers(self, monkeypatch):
        # A worker dies mid-dispatch while the context rode a
        # shared-memory segment: the liveness poll must rebuild the pool,
        # re-ship the context (counting the re-shipped bytes), and retry
        # to the same answer.
        monkeypatch.setattr(wire, "SHM_MIN_BYTES", 1024)
        context = np.arange(100_000, dtype=np.float64)
        with ParallelExecutor(2, persistent=True) as executor:
            token = new_context_token()
            executor.map_shards(_sum_shard, context, [[1], [2]], token=token)
            shipped_before = executor.ipc_bytes_out
            victims = executor.worker_pids

            def _kill_all():
                for pid in victims:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

            killer = threading.Timer(0.5, _kill_all)
            killer.start()
            try:
                # A fresh token: the context under ``token`` already has
                # _sum_shard bound to it, and a slow dispatch must really
                # run _slow_sum_shard for the kill to land mid-flight.
                slow_token = new_context_token()
                result = executor.map_shards(
                    _slow_sum_shard, context, [[1], [2]], token=slow_token
                )
            finally:
                killer.cancel()
            assert result == [
                [float(context.sum()) + 1.0],
                [float(context.sum()) + 2.0],
            ]
            assert executor.worker_recoveries >= 1
            # Recovery re-shipped the context: real bytes, so counted.
            assert executor.ipc_bytes_out > shipped_before + context.nbytes

    def test_serial_path_ships_no_bytes(self):
        with ParallelExecutor(1) as executor:
            executor.map_shards(_sum_shard, np.arange(10), [[1]])
            assert executor.ipc_bytes_out == 0
            assert executor.ipc_bytes_in == 0

    def test_wire_format_off_matches_wire_format_on(self):
        context = np.arange(5_000, dtype=np.float64)
        with ParallelExecutor(1) as serial:
            off = serial.map_shards(_sum_shard, context, [[1], [2]])
            assert serial.ipc_bytes_out == 0
        with ParallelExecutor(2) as framed:
            on = framed.map_shards(_sum_shard, context, [[1], [2]])
            assert framed.ipc_bytes_out > 0
        assert off == on


# --------------------------------------------------------- server transport


class TestServerTransport:
    def test_binary_and_json_clients_get_identical_results(
        self, chip, recipe, program
    ):
        patterns = random_patterns(chip, 60, seed=3)
        with running_server(workers=1) as server:
            with Client(server.address) as binary_client:
                assert binary_client._binary
                lot_b = binary_client.fabricate(chip, recipe, 50, seed=21)
                prog_b = binary_client.build_program(
                    chip, [dict(p) for p in patterns]
                )
                res_b = binary_client.test(lot_b, prog_b)
            with Client(server.address) as json_client:
                json_client._binary = False  # force the legacy frames
                lot_j = json_client.fabricate(chip, recipe, 50, seed=21)
                prog_j = json_client.build_program(
                    chip, [dict(p) for p in patterns]
                )
                res_j = json_client.test(lot_j, prog_j)
        assert [c.faults for c in lot_b.chips] == [
            c.faults for c in lot_j.chips
        ]
        assert res_b.records == res_j.records

    def test_uploaded_lot_travels_as_arrays(self, chip, recipe, program, lot):
        # A lot the server has never seen (no handle) still round-trips
        # bit-identically through the LotArrays upload path.
        with running_server(workers=1) as server:
            with Client(server.address) as client:
                remote = client.test(lot, program)
        local = WaferTester(program).test_lot(lot.chips)
        assert list(remote.records) == list(local)


# ------------------------------------------------------- frame size limits


class TestFrameLimits:
    def test_pack_obj_enforces_decoded_payload_limit(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1000)
        with pytest.raises(ProtocolError):
            pack_obj(b"\x00" * 1100)
        # Just under the limit is fine even though base64 inflates the
        # *frame* past MAX_FRAME_BYTES — the old off-by-33% bug.
        encoded = pack_obj(b"\x00" * 900)
        assert len(encoded) > 1000  # base64 really did inflate it
        assert unpack_obj(encoded) == b"\x00" * 900

    def test_json_frame_roundtrips_at_the_base64_boundary(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1000)
        message = {"id": 1, "op": "x", "params": {"blob": pack_obj(b"\x00" * 900)}}
        frame = encode_frame(message)
        assert len(frame) > 1000  # inflated past the decoded-bytes limit
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            received = recv_frame(right)
        finally:
            left.close()
            right.close()
        assert unpack_obj(received["params"]["blob"]) == b"\x00" * 900

    def test_oversized_frames_are_rejected_on_both_formats(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1000)
        # _frame_limit() allows base64 slack plus envelope headroom on
        # JSON frames; 10x the limit is over it on any accounting.
        huge = {"id": 1, "op": "x", "params": {"blob": "y" * 10_000}}
        with pytest.raises(ProtocolError):
            encode_frame(huge)
        with pytest.raises(ProtocolError):
            encode_frame(
                {"id": 1, "params": {"blob": WireObj(b"\x00" * 5000)}},
                binary=True,
            )

    def test_default_limit_is_half_a_gib_of_payload(self):
        assert MAX_FRAME_BYTES == 512 * 1024 * 1024


# ------------------------------------------------------ binary frame codec


class TestBinaryFrames:
    def _roundtrip(self, message, binary):
        left, right = socket.socketpair()
        try:
            send_frame(left, message, binary=binary)
            return recv_frame(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("binary", [False, True])
    def test_plain_envelope_roundtrips(self, binary):
        message = {"id": 3, "op": "ping", "params": {"depth": [1, 2, {"x": None}]}}
        assert self._roundtrip(message, binary) == message

    def test_wireobj_arrays_cross_binary_frames_exactly(self):
        payload = {
            "ints": np.arange(10_000, dtype=np.int32),
            "floats": np.linspace(0.0, 1.0, 4096),
        }
        message = {"id": 1, "op": "x", "params": {"data": WireObj(payload)}}
        received = self._roundtrip(message, binary=True)
        out = received["params"]["data"]
        assert np.array_equal(out["ints"], payload["ints"])
        assert np.array_equal(out["floats"], payload["floats"])

    def test_wireobj_collapses_to_base64_on_json_frames(self):
        message = {"id": 1, "op": "x", "params": {"data": WireObj([1, 2, 3])}}
        received = self._roundtrip(message, binary=False)
        assert unpack_obj(received["params"]["data"]) == [1, 2, 3]

    def test_malformed_binary_body_raises_protocol_error(self):
        frame = encode_frame({"id": 1, "params": {"d": WireObj([1])}}, binary=True)
        corrupt = frame[:5] + b"\xff" + frame[6:]
        left, right = socket.socketpair()
        try:
            left.sendall(corrupt)
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            left.close()
            right.close()
