"""Fuzzing the two wire decoders that face the network.

**Framed TCP** (``repro.server.protocol``).  Valid ``encode_frame``
output — a JSON frame and a binary frame carrying array objects — is
mutated in its *framing* only: truncated, given a lying length prefix,
a bad inner ``header_len``, malformed ``_wire`` index entries, or
non-JSON header bytes.  The pickled object bytes are left alone: the
framed protocol trusts its pickle peer, so what must hold is that bad
framing never crashes or stalls the reader.  Each mutant is written to
a ``socket.socketpair()`` whose write end is then closed, and
``recv_frame`` must return a dict or raise ``ProtocolError`` — never
another exception, and never block (the read side has a timeout, which
would surface as a non-``ProtocolError`` failure).

**HTTP gateway** (``repro.gateway.codec``).  Every ``*_from_json``
decoder must answer arbitrary JSON — whole values, and valid payloads
with one node replaced — with a ``ValueError`` (the gateway's 400) and
nothing else.  Inputs the fuzzer found escaping as another type are
kept below as explicit cases.
"""

import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.gateway import codec
from repro.manufacturing.lot import fabricate_lot
from repro.server.protocol import ProtocolError, WireObj, encode_frame, recv_frame
from repro.tester.program import TestProgram
from repro.tester.results import LotTestResult
from repro.tester.tester import WaferTester

_PREFIX = struct.Struct(">I")
_BINARY_FLAG = 0x80000000

_JSON_FRAME = encode_frame(
    {"id": 7, "op": "fabricate", "params": {"num_chips": 12, "seed": [1, 2]}}
)
_BINARY_FRAME = encode_frame(
    {
        "id": 8,
        "op": "test_lot",
        "params": {
            "lot": WireObj(
                {"ids": np.arange(16, dtype=np.int64), "xs": np.linspace(0, 1, 8)}
            ),
            "program": WireObj([1, 2, 3]),
        },
    },
    binary=True,
)

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _split_binary(frame: bytes) -> tuple[dict, bytes]:
    """A binary frame's JSON header and the raw object bytes after it."""
    body = frame[_PREFIX.size :]
    (header_len,) = _PREFIX.unpack_from(body, 0)
    header = json.loads(body[_PREFIX.size : _PREFIX.size + header_len])
    return header, body[_PREFIX.size + header_len :]


def _binary_frame(header_bytes: bytes, rest: bytes) -> bytes:
    """Re-frame a binary body with consistent length fields."""
    body = _PREFIX.pack(len(header_bytes)) + header_bytes + rest
    return _PREFIX.pack(_BINARY_FLAG | len(body)) + body


def _receive(data: bytes):
    """``recv_frame`` on ``data`` from a peer that has hung up."""
    left, right = socket.socketpair()
    try:
        right.settimeout(5.0)
        left.sendall(data)
        left.close()
        return recv_frame(right)
    finally:
        left.close()
        right.close()


def _assert_dict_or_protocol_error(data: bytes) -> None:
    try:
        message = _receive(data)
    except ProtocolError:
        return
    assert isinstance(message, dict)


def test_unmutated_frames_roundtrip():
    assert _receive(_JSON_FRAME)["params"]["seed"] == [1, 2]
    message = _receive(_BINARY_FRAME)
    np.testing.assert_array_equal(
        message["params"]["lot"]["ids"], np.arange(16, dtype=np.int64)
    )
    assert message["params"]["program"] == [1, 2, 3]


_FRAMES = st.sampled_from([_JSON_FRAME, _BINARY_FRAME])


@settings(max_examples=150, deadline=None)
@given(frame=_FRAMES, data=st.data())
def test_truncated_frames(frame, data):
    cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
    _assert_dict_or_protocol_error(frame[:cut])


@settings(max_examples=150, deadline=None)
@given(frame=_FRAMES, prefix=st.integers(min_value=0, max_value=2**32 - 1))
def test_lying_length_prefix(frame, prefix):
    _assert_dict_or_protocol_error(_PREFIX.pack(prefix) + frame[_PREFIX.size :])


@settings(max_examples=150, deadline=None)
@given(header_len=st.integers(min_value=0, max_value=2**32 - 1))
def test_bad_inner_header_len(header_len):
    frame = bytearray(_BINARY_FRAME)
    _PREFIX.pack_into(frame, _PREFIX.size, header_len)
    _assert_dict_or_protocol_error(bytes(frame))


_WIRE_ENTRY = st.one_of(
    _JSON_VALUES,
    st.lists(
        st.one_of(
            st.integers(-(2**40), 2**40),
            st.floats(),
            st.lists(st.one_of(st.integers(-(2**40), 2**40), st.floats()), max_size=3),
        ),
        max_size=3,
    ),
)


@settings(max_examples=200, deadline=None)
@given(wire=st.one_of(_JSON_VALUES, st.lists(_WIRE_ENTRY, max_size=3)))
def test_malformed_wire_index(wire):
    header, rest = _split_binary(_BINARY_FRAME)
    header["_wire"] = wire
    _assert_dict_or_protocol_error(
        _binary_frame(json.dumps(header).encode("utf-8"), rest)
    )


@settings(max_examples=150, deadline=None)
@given(junk=st.binary(max_size=64), binary=st.booleans())
def test_bad_json_bytes(junk, binary):
    if binary:
        _, rest = _split_binary(_BINARY_FRAME)
        frame = _binary_frame(junk, rest)
    else:
        frame = _PREFIX.pack(len(junk)) + junk
    _assert_dict_or_protocol_error(frame)


# ------------------------------------------------------------ JSON decoders


@pytest.fixture(scope="module")
def payloads(chip, recipe, patterns):
    lot = fabricate_lot(chip, recipe, 8, dies_per_wafer=4, seed=2)
    program = TestProgram.build(chip, patterns)
    result = LotTestResult(program=program, records=WaferTester(program).test_lot(lot.chips))
    return {
        "netlist": codec.netlist_to_json(chip),
        "recipe": codec.recipe_to_json(recipe),
        "patterns": codec.patterns_to_json(program.patterns),
        "lot": codec.lot_to_json(chip, lot),
        "program": codec.program_to_json(program),
        "records": codec.records_to_json(result.records),
        "result": codec.result_to_json(result),
        "array": codec.encode_array(np.arange(6, dtype=np.int32).reshape(2, 3)),
    }, program


def _decoders(chip, program):
    return {
        "netlist": codec.netlist_from_json,
        "recipe": codec.recipe_from_json,
        "patterns": codec.patterns_from_json,
        "lot": lambda obj: codec.lot_from_json(chip, obj),
        "program": lambda obj: codec.program_from_json(chip, obj),
        "records": codec.records_from_json,
        "result": lambda obj: codec.result_from_json(program, obj),
        "array": codec.decode_array,
    }


def _replace_one_node(value, data):
    """``value`` with one randomly chosen node swapped for arbitrary JSON."""
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value)))
        return {**value, key: _replace_one_node(value[key], data)}
    if isinstance(value, list) and value and data.draw(st.booleans()):
        index = data.draw(st.integers(min_value=0, max_value=len(value) - 1))
        out = list(value)
        out[index] = _replace_one_node(value[index], data)
        return out
    return data.draw(_JSON_VALUES)


def _decode_or_value_error(decode, obj) -> None:
    try:
        decode(obj)
    except ValueError:
        pass


def test_valid_payloads_decode(chip, payloads):
    valid, program = payloads
    for name, decode in _decoders(chip, program).items():
        decode(valid[name])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decoders_raise_only_value_error(chip, payloads, data):
    valid, program = payloads
    decoders = _decoders(chip, program)
    name = data.draw(st.sampled_from(sorted(decoders)))
    if data.draw(st.booleans()):
        obj = data.draw(_JSON_VALUES)
    else:
        obj = _replace_one_node(valid[name], data)
    _decode_or_value_error(decoders[name], obj)


@pytest.mark.parametrize(
    "name, mutate",
    [
        # Found by the fuzzer: a recipe missing its required field was a
        # TypeError from the constructor.
        ("recipe", lambda valid: {}),
        # Found by the fuzzer: JSON integers past the float range were an
        # OverflowError from float().
        ("recipe", lambda valid: {**valid["recipe"], "defect_density": 10**400}),
        ("lot", lambda valid: {**valid["lot"], "chip_area": 10**400}),
    ],
)
def test_fuzzer_findings_are_value_errors(chip, payloads, name, mutate):
    valid, program = payloads
    with pytest.raises(ValueError):
        _decoders(chip, program)[name](mutate(valid))
