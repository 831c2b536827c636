"""One fault encoding from the fab to the wire.

Below the API a chip's fault is its index in the netlist's fault
universe: the fab folds each drawn stuck level into the index of the
fault it picks, the lot columns, the tester and both wire formats carry
that one ``int32`` column.  So a lot encodes to the same arrays whatever
path it took — column-backed off the fab, or rebuilt from chip objects
after a pickle round trip — and the binary TCP frames and the gateway's
JSON carry the same fault column.

An index means something only on the netlist it was drawn on, so both
clients upload a column-backed lot under that netlist: testing it
against a program for another circuit is refused, not re-read by
signal name on the wrong one.
"""

import dataclasses
import json
import pickle
import socket

import numpy as np
import pytest

from repro.experiments import config
from repro.faults.model import universe_indices
from repro.gateway import GatewayClient, codec
from repro.gateway.testing import running_gateway
from repro.manufacturing.lot import fabricate_lot, pack_lot_chips
from repro.manufacturing.wafer import LotColumns
from repro.server import Client, RemoteError
from repro.server.protocol import WireObj, pack_lot, recv_frame, send_frame
from repro.server.testing import running_server


@pytest.fixture(scope="module")
def canonical():
    chip = config.make_chip()
    return chip, fabricate_lot(chip, config.make_recipe(), 100, seed=5)


def test_pickled_chips_encode_to_the_same_columns(canonical):
    chip, lot = canonical
    fabricated = pack_lot_chips(chip, lot)
    repacked = pack_lot_chips(chip, pickle.loads(pickle.dumps(lot.chips)))
    assert fabricated.fault_indices.size > 0
    for field in dataclasses.fields(LotColumns):
        a, b = getattr(fabricated, field.name), getattr(repacked, field.name)
        assert a.dtype == b.dtype, field.name
        assert np.array_equal(a, b), field.name


def test_fault_column_is_the_universe_indices_of_the_faults(canonical):
    chip, lot = canonical
    faults = [fault for c in lot.chips for fault in c.faults]
    assert np.array_equal(lot.columns.fault_indices, universe_indices(chip, faults))


def test_tcp_and_http_carry_the_same_fault_column(canonical):
    chip, lot = canonical
    left, right = socket.socketpair()
    try:
        send_frame(left, {"id": 1, "chips": WireObj(pack_lot(chip, lot))}, binary=True)
        over_tcp = recv_frame(right)["chips"].payload.fault_indices
    finally:
        left.close()
        right.close()
    with running_gateway(workers=1) as gateway:
        with GatewayClient(gateway.address) as client:
            uploaded = client._call(
                client._client.request(
                    "POST",
                    "/v1/lots",
                    {
                        "netlist_id": client.register(chip),
                        "lot": json.loads(json.dumps(codec.lot_to_json(chip, lot))),
                    },
                )
            )
        _, received = gateway._lots.get(uploaded["lot_id"])
    over_http = received.columns.fault_indices
    for column in (over_tcp, over_http):
        assert column.dtype == np.int32
        assert np.array_equal(column, lot.columns.fault_indices)


@pytest.fixture(scope="module")
def local_lot(chip, recipe):
    """A c17 lot fabricated in-process: no server handle anywhere."""
    return fabricate_lot(chip, recipe, 200, seed=1)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
def test_tcp_client_uploads_a_lot_under_its_own_netlist(
    local_lot, twin, patterns, binary
):
    with running_server(workers=1) as server:
        with Client(server.address) as client:
            client._binary = binary
            program = client.build_program(twin, patterns)
            with pytest.raises(RemoteError) as err:
                client.test(local_lot, program)
    assert err.value.code == "bad-request"


def test_gateway_client_uploads_a_lot_under_its_own_netlist(local_lot, twin, patterns):
    with running_gateway(workers=1) as gateway:
        with GatewayClient(gateway.address) as client:
            program = client.build_program(twin, patterns)
            with pytest.raises(RemoteError) as err:
                client.test(local_lot, program)
    assert err.value.code == "bad-request"
