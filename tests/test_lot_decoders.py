"""Hostile lot payloads are rejected on both wire paths.

A lot crosses the wire as seven CSR arrays (:class:`LotColumns`): as
base64 JSON through the HTTP gateway (``codec.lot_from_json``) and as a
``LotArrays`` object on the TCP server's binary frames
(``protocol.lot_from_arrays``).  Each decoder must validate the columns
against the receiver's fault universe — a negative or out-of-range fault
index, offsets that decrease, chip ids that do not match the offsets, a
missing fault column, or a non-integer offset dtype is a typed error
(``ValueError`` answered as HTTP 400, ``ProtocolError`` answered as
``bad-request``), never a lot whose faults silently differ.
"""

import dataclasses
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.gateway import codec
from repro.gateway.testing import running_gateway
from repro.manufacturing.lot import fabricate_lot
from repro.manufacturing.wafer import LotColumns
from repro.server import Client, RemoteError, netlist_fingerprint
from repro.server.protocol import ProtocolError, lot_from_arrays, pack_lot
from repro.server.testing import running_server


def _set(array, index, value):
    out = array.copy()
    out[index] = value
    return out


def _swap_offsets(offsets):
    k = int(np.flatnonzero(np.diff(offsets))[0])
    return _set(_set(offsets, k, offsets[k + 1]), k + 1, offsets[k])


MUTATIONS = {
    "negative-site": lambda c, n: {"fault_indices": _set(c.fault_indices, 0, -1)},
    "out-of-range-site": lambda c, n: {"fault_indices": _set(c.fault_indices, 0, n)},
    "swapped-hit-offsets": lambda c, n: {"hit_offsets": _swap_offsets(c.hit_offsets)},
    "short-chip-ids": lambda c, n: {"chip_ids": c.chip_ids[:-1]},
    "float-offsets": lambda c, n: {"defect_offsets": c.defect_offsets.astype(float)},
}


@pytest.fixture(scope="module")
def lot(chip, recipe):
    lot = fabricate_lot(chip, recipe, 20, dies_per_wafer=8, seed=4)
    assert lot.fault_counts().sum() > 0
    return lot


def mutated(lot, chip, name) -> LotColumns:
    columns = lot.columns_for(chip)
    return dataclasses.replace(columns, **MUTATIONS[name](columns, lot.layout.num_sites))


def test_untouched_payloads_decode(chip, lot):
    for decoded in (
        codec.lot_from_json(chip, codec.lot_to_json(chip, lot)),
        lot_from_arrays(chip, pack_lot(chip, lot)),
    ):
        assert decoded.columns is not None
        assert decoded.chips == lot.chips
        assert decoded.fault_counts().tolist() == lot.fault_counts().tolist()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_json_decoder_rejects(chip, lot, name):
    payload = codec.lot_to_json(chip, lot)
    for field, array in dataclasses.asdict(mutated(lot, chip, name)).items():
        payload["arrays"][field] = codec.encode_array(array)
    with pytest.raises(ValueError):
        codec.lot_from_json(chip, payload)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_binary_decoder_rejects(chip, lot, name):
    arrays = dataclasses.replace(pack_lot(chip, lot), payload=mutated(lot, chip, name))
    with pytest.raises(ProtocolError):
        lot_from_arrays(chip, arrays)


def test_json_decoder_rejects_a_payload_without_the_fault_column(chip, lot):
    # The pre-folding layout: site indices plus a polarity column.
    payload = codec.lot_to_json(chip, lot)
    faults = lot.columns.fault_indices
    payload["arrays"]["site_indices"] = payload["arrays"].pop("fault_indices")
    payload["arrays"]["polarities"] = codec.encode_array((faults & 1).astype(np.uint8))
    with pytest.raises(ValueError, match="fault_indices"):
        codec.lot_from_json(chip, payload)


def test_binary_decoder_rejects_foreign_payload(chip, lot):
    arrays = dataclasses.replace(pack_lot(chip, lot), payload={"chip_ids": [0]})
    with pytest.raises(ProtocolError):
        lot_from_arrays(chip, arrays)


@pytest.fixture(scope="module")
def gateway():
    with running_gateway(workers=1) as gateway:
        yield gateway


@pytest.fixture(scope="module")
def server():
    with running_server(workers=1) as server:
        yield server


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_gateway_answers_400(gateway, chip, lot, name):
    netlist_id = _post(
        gateway.address + "/v1/netlists", {"netlist": codec.netlist_to_json(chip)}
    )["result"]["netlist_id"]
    payload = codec.lot_to_json(chip, lot)
    for field, array in dataclasses.asdict(mutated(lot, chip, name)).items():
        payload["arrays"][field] = codec.encode_array(array)
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(gateway.address + "/v1/lots", {"netlist_id": netlist_id, "lot": payload})
    assert err.value.code == 400
    assert "malformed lot columns" in json.loads(err.value.read())["error"]["message"]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_server_answers_bad_request(server, chip, lot, patterns, name):
    with Client(server.address) as client:
        program = client.build_program(chip, patterns)
        arrays = dataclasses.replace(pack_lot(chip, lot), payload=mutated(lot, chip, name))
        assert arrays.fingerprint == netlist_fingerprint(chip)
        with pytest.raises(RemoteError) as err:
            client.request(
                "test_lot", program=client._pack(program), chips=client._pack(arrays)
            )
        assert err.value.code == "bad-request"
        assert "malformed lot columns" in str(err.value)


# A shape entry past int64 (or JSON's 1e400, which parses to inf) used to
# escape decode_array as OverflowError — an "internal" 500 — not a 400.
HOSTILE_SHAPES = ["[1e400]", f"[{2**70}]"]


def _with_shape(chip, lot, shape: str) -> str:
    """A lot upload body whose chip_ids array declares ``shape`` (raw JSON)."""
    payload = codec.lot_to_json(chip, lot)
    payload["arrays"]["chip_ids"]["shape"] = "SHAPE"
    return json.dumps(payload).replace('"SHAPE"', shape)


@pytest.mark.parametrize("shape", HOSTILE_SHAPES)
def test_hostile_array_shape_is_a_value_error(chip, lot, shape):
    with pytest.raises(ValueError):
        codec.decode_array(json.loads(f'{{"dtype": "<i8", "shape": {shape}, "b64": ""}}'))
    with pytest.raises(ValueError):
        codec.lot_from_json(chip, json.loads(_with_shape(chip, lot, shape)))


@pytest.mark.parametrize("shape", HOSTILE_SHAPES)
def test_gateway_answers_400_for_hostile_shape(gateway, chip, lot, shape):
    netlist_id = _post(
        gateway.address + "/v1/netlists", {"netlist": codec.netlist_to_json(chip)}
    )["result"]["netlist_id"]
    body = f'{{"netlist_id": {json.dumps(netlist_id)}, "lot": {_with_shape(chip, lot, shape)}}}'
    request = urllib.request.Request(
        gateway.address + "/v1/lots", data=body.encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400
