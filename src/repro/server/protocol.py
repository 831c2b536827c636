"""Wire protocol of the lot-testing server: framing, payloads, errors.

The protocol is deliberately small (see ``docs/server.md`` for the
normative spec):

**Framing.**  Every message is one *frame*: a 4-byte big-endian length
prefix followed by the frame body.  Two body formats share the stream:

* **JSON frames** (protocol 1, always accepted): the prefix MSB is
  clear, the body is UTF-8 JSON, and domain objects travel as
  base64-encoded pickles inside JSON strings (:func:`pack_obj` /
  :func:`unpack_obj`).
* **Binary frames** (protocol 2): the prefix MSB is *set* (the low 31
  bits hold the body length), and the body is a 4-byte header length, a
  JSON header, then a raw buffer section.  Domain objects marked with
  :class:`WireObj` are replaced in the header by ``{"__wire__": k}``
  stubs; a top-level ``"_wire"`` key lists, per object, its pickle-5
  header length and out-of-band buffer lengths, and the buffer section
  concatenates those bytes verbatim.  Arrays therefore cross the socket
  as raw buffers — no base64 inflation, no per-element object pickling —
  and decode as views of the received frame.

A peer announces binary support via ``ping`` (``protocol >= 2``); the
server answers every request in the format the request arrived in, so
old JSON-only clients keep working unchanged.  Frames flow in both
directions over a plain TCP or Unix-domain stream; a client may
pipeline requests, and the server answers each request with exactly one
response frame carrying the same ``id``.

**Envelope.**  Requests are ``{"id": int, "op": str, "params": {...}}``.
Responses are ``{"id": int, "ok": true, "result": {...}}`` on success or
``{"id": int, "ok": false, "error": {"code": str, "message": str}}`` on
failure; error codes are the ``ERR_*`` constants below.

**Payloads.**  Scalar parameters travel as plain JSON.  Domain objects —
netlists, recipes, pattern lists, lots, programs, results — travel as
pickles (base64 in JSON frames, raw pickle-5 in binary frames): the
same bytes the in-process runtime already ships to its pool workers,
which is what keeps server-mediated results bit-identical to direct
:class:`repro.api.Session` calls.  Whole lots additionally have an
array form (:class:`LotArrays`): chip ids, CSR offsets, defect and
fault-index arrays plus a netlist fingerprint, rebuilt
losslessly on the receiver against its registered netlist — the SoA
wire format end-to-end.  Pickle is a code-execution vector, so the
server trusts its clients by design — bind it to localhost or a
protected test-floor network, never the open internet.

**Size limits.**  :data:`MAX_FRAME_BYTES` bounds the *decoded payload*,
not the frame: ``pack_obj``/``unpack_obj`` enforce it on raw pickled
bytes (base64 inflates the frame itself by ~33%, so JSON frames may
legitimately run up to a third past the limit — the frame bound allows
for exactly that), and binary frames enforce it on the body directly.

**Identity.**  Netlists are registered once and addressed by
*fingerprint* (:func:`netlist_fingerprint`, a SHA-256 over the exact
gate structure), so any number of clients uploading the same circuit
share one server-side canonical netlist — and therefore one compiled
context.  Lots and programs built by the server are addressed by
server-assigned handles (``lot-N`` / ``prog-N``) so follow-up requests
reference them without re-uploading.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any

from repro.circuit.netlist import Netlist

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ConnectionLost",
    "FrameDecodeError",
    "ProtocolError",
    "RemoteError",
    "WireObj",
    "FrameInfo",
    "LotArrays",
    "encode_frame",
    "read_frame_info",
    "recv_frame",
    "send_frame",
    "pack_obj",
    "unpack_obj",
    "pack_lot",
    "lot_from_arrays",
    "netlist_fingerprint",
]

PROTOCOL_VERSION = 2

# Decoded-payload bound: one payload must fit a pickled lot/program
# comfortably; half a GiB is far beyond any realistic payload and bounds
# a hostile length prefix.  Enforced on *raw pickled bytes* (pack_obj /
# unpack_obj) and on binary frame bodies — see _frame_limit() for the
# base64-aware bound applied to JSON frames.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_HEADER = struct.Struct(">I")

# Binary (protocol 2) frames set the MSB of the length prefix; the low
# 31 bits carry the body length.  A JSON frame can never collide: its
# length is bounded well below 2**31 by _frame_limit().
_BINARY_FLAG = 0x80000000


def _frame_limit() -> int:
    """Largest acceptable *frame* length for a JSON frame.

    ``MAX_FRAME_BYTES`` bounds decoded payload bytes, but base64 inflates
    pickled objects by ~33% on the wire, so a JSON frame carrying a
    limit-sized payload legitimately exceeds ``MAX_FRAME_BYTES``.  Allow
    exactly that inflation (plus envelope slack) — computed dynamically
    so tests can shrink ``MAX_FRAME_BYTES`` and exercise the boundary.
    """
    return MAX_FRAME_BYTES + MAX_FRAME_BYTES // 3 + 4096

# Error codes — the closed vocabulary of the "error.code" field.
ERR_BAD_REQUEST = "bad-request"  # malformed envelope or parameters
ERR_UNKNOWN_OP = "unknown-op"  # op name not in the dispatch table
ERR_UNKNOWN_NETLIST = "unknown-netlist"  # netlist_id never registered
ERR_UNKNOWN_HANDLE = "unknown-handle"  # lot/program handle expired or bogus
ERR_USER = "user-error"  # pipeline rejected the inputs (ValueError etc.)
ERR_WORKER_CRASH = "worker-crash"  # pool worker crash recovery exhausted
ERR_SHUTTING_DOWN = "shutting-down"  # request arrived after shutdown began
ERR_OVERLOADED = "overloaded"  # per-netlist queue past its high-water mark
ERR_DEADLINE = "deadline-exceeded"  # request outlived the server deadline
ERR_BAD_FRAME = "bad-frame"  # frame read fully but undecodable
ERR_POISON_SHARD = "poison-shard"  # a shard payload reproducibly kills workers
ERR_UNAVAILABLE = "unavailable"  # no live backend can take the request (router)
ERR_INTERNAL = "internal"  # unexpected server-side failure


class ProtocolError(Exception):
    """A malformed frame or envelope (either direction)."""


class FrameDecodeError(ProtocolError):
    """A frame was read *in full* but its body is undecodable.

    The distinction from a bare :class:`ProtocolError` is whether the
    byte stream is still synchronized: a truncated read or hostile
    length prefix leaves the receiver mid-frame (the connection must be
    dropped), while a fully-read-but-garbage body leaves the next
    frame boundary intact — so the server can answer ``ERR_BAD_FRAME``
    and keep serving the connection.
    """


class ConnectionLost(OSError):
    """The client's connection died or desynchronized mid-request.

    Raised by :class:`repro.server.Client` whenever a request cannot
    complete on the current socket — the peer reset it, a read timed
    out mid-frame (the stream is desynchronized: leftover reply bytes
    would corrupt the *next* request), or the reply was undecodable.
    The socket is already marked dead when this propagates; with
    retries enabled the client reconnects and replays transparently,
    so callers only see this once the retry budget is spent.
    """


class RemoteError(Exception):
    """A server-reported failure, surfaced client-side.

    ``code`` is one of the ``ERR_*`` constants; ``message`` is the
    human-readable server explanation.  ``retry_after`` is the server's
    backoff hint in seconds (``ERR_OVERLOADED`` replies carry one).
    """

    def __init__(self, code: str, message: str, retry_after: float | None = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.retry_after = retry_after


# ------------------------------------------------------------------ framing


class WireObj:
    """Marks an envelope value as a domain object for wire transport.

    ``encode_frame`` replaces each :class:`WireObj` with its wire form:
    a base64 pickle string in JSON frames, or a pickle-5 header plus raw
    out-of-band buffers in binary frames.  Receivers of binary frames
    get the decoded object back in place; receivers of JSON frames get
    the base64 string (and run it through :func:`unpack_obj` as before).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


@dataclass(frozen=True)
class FrameInfo:
    """One received frame plus its transport facts.

    ``binary`` records which format the peer used (so a server can reply
    in kind) and ``nbytes`` the full frame size including the length
    prefix (so per-request payload bytes can be logged without
    re-serializing anything).
    """

    message: dict
    binary: bool
    nbytes: int


def _resolve_wire(value: Any) -> Any:
    """Walk an envelope, replacing each WireObj with ``pack_obj`` output."""
    if isinstance(value, WireObj):
        return pack_obj(value.value)
    if isinstance(value, dict):
        return {k: _resolve_wire(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve_wire(v) for v in value]
    return value


def _stub_wire(value: Any, groups: list) -> Any:
    """Walk an envelope, pulling each WireObj into the binary section.

    Appends ``[pickle_header, [raw, ...]]`` to ``groups`` per object and
    leaves an ``{"__wire__": index}`` stub in the JSON header.
    """
    if isinstance(value, WireObj):
        picklebuffers: list[pickle.PickleBuffer] = []
        header = pickle.dumps(
            value.value, protocol=5, buffer_callback=picklebuffers.append
        )
        raws = []
        for pb in picklebuffers:
            raws.append(pb.raw())
        groups.append([header, raws])
        return {"__wire__": len(groups) - 1}
    if isinstance(value, dict):
        return {k: _stub_wire(v, groups) for k, v in value.items()}
    if isinstance(value, list):
        return [_stub_wire(v, groups) for v in value]
    return value


def _substitute_stubs(value: Any, objects: list) -> Any:
    """Walk a decoded binary header, swapping stubs for decoded objects."""
    if isinstance(value, dict):
        if len(value) == 1 and "__wire__" in value:
            index = value["__wire__"]
            if isinstance(index, int) and 0 <= index < len(objects):
                return objects[index]
            raise ProtocolError(f"binary frame references unknown wire object {index!r}")
        return {k: _substitute_stubs(v, objects) for k, v in value.items()}
    if isinstance(value, list):
        return [_substitute_stubs(v, objects) for v in value]
    return value


def encode_frame(message: dict, binary: bool = False) -> bytes:
    """Serialize one envelope to its length-prefixed wire form.

    With ``binary=False`` (protocol 1, the default) any :class:`WireObj`
    values collapse to base64 pickle strings inside plain JSON.  With
    ``binary=True`` they travel as raw pickle-5 buffers after the JSON
    header, and the length prefix carries the binary flag bit.
    """
    if not binary:
        body = json.dumps(_resolve_wire(message), separators=(",", ":")).encode("utf-8")
        if len(body) > _frame_limit():
            raise ProtocolError(
                f"frame of {len(body)} bytes exceeds the {_frame_limit()}-byte limit"
            )
        return _HEADER.pack(len(body)) + body

    groups: list = []
    header_obj = _stub_wire(message, groups)
    wire_index = [
        [len(header), [raw.nbytes for raw in raws]] for header, raws in groups
    ]
    header_obj["_wire"] = wire_index
    header = json.dumps(header_obj, separators=(",", ":")).encode("utf-8")
    parts: list = [_HEADER.pack(len(header)), header]
    body_len = _HEADER.size + len(header)
    for pickle_header, raws in groups:
        parts.append(pickle_header)
        body_len += len(pickle_header)
        for raw in raws:
            parts.append(raw)
            body_len += raw.nbytes
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {body_len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    frame = _HEADER.pack(_BINARY_FLAG | body_len) + b"".join(parts)
    for _, raws in groups:
        for raw in raws:
            raw.release()
    return frame


def _decode_body(body: bytes) -> dict:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message


def _decode_binary_body(body: bytes) -> dict:
    """Decode a protocol-2 body: JSON header + concatenated buffers."""
    view = memoryview(body)
    if len(body) < _HEADER.size:
        raise ProtocolError("binary frame too short for its header length")
    (header_len,) = _HEADER.unpack_from(body, 0)
    offset = _HEADER.size
    if offset + header_len > len(body):
        raise ProtocolError("binary frame header overruns the body")
    message = _decode_body(bytes(view[offset : offset + header_len]))
    offset += header_len
    wire_index = message.pop("_wire", [])
    if not isinstance(wire_index, list):
        raise ProtocolError("binary frame _wire index must be a list")
    objects: list = []
    for entry in wire_index:
        try:
            pickle_len, buf_lens = entry
            pickle_len = int(pickle_len)
            buf_lens = [int(n) for n in buf_lens]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed _wire entry: {entry!r}") from exc
        if offset + pickle_len > len(body):
            raise ProtocolError("binary frame object overruns the body")
        pickle_header = view[offset : offset + pickle_len]
        offset += pickle_len
        bufs = []
        for nbytes in buf_lens:
            if offset + nbytes > len(body):
                raise ProtocolError("binary frame buffer overruns the body")
            bufs.append(view[offset : offset + nbytes])
            offset += nbytes
        try:
            objects.append(pickle.loads(pickle_header, buffers=bufs))
        except Exception as exc:
            raise ProtocolError(f"undecodable object payload: {exc}") from exc
    return _substitute_stubs(message, objects)


def _decode_full_body(body: bytes, binary: bool) -> dict:
    """Decode a fully-received frame body; failures are *recoverable*.

    By this point the reader consumed exactly the advertised body, so
    the stream is still frame-synchronized whatever the body contains —
    every failure here (truncated inner header, header_len overrunning
    the body, garbage ``__wire__`` stub, non-JSON bytes, a payload whose
    unpickling explodes) is reported as :class:`FrameDecodeError` so a
    server can answer ``ERR_BAD_FRAME`` instead of dropping the client.
    """
    try:
        return _decode_binary_body(body) if binary else _decode_body(body)
    except FrameDecodeError:
        raise
    except ProtocolError as exc:
        raise FrameDecodeError(str(exc)) from exc
    except Exception as exc:  # defensive: a hostile pickle can raise anything
        raise FrameDecodeError(f"undecodable frame body: {exc}") from exc


def _check_length(length: int) -> tuple[bool, int]:
    """Validate a raw length prefix; returns ``(binary, body_length)``."""
    binary = bool(length & _BINARY_FLAG)
    body_len = length & ~_BINARY_FLAG
    limit = MAX_FRAME_BYTES if binary else _frame_limit()
    if body_len > limit:
        raise ProtocolError(
            f"frame of {body_len} bytes exceeds the {limit}-byte limit"
        )
    return binary, body_len


async def read_frame_info(reader) -> FrameInfo | None:
    """Async side: read one frame, or ``None`` on a clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    binary, body_len = _check_length(length)
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    message = _decode_full_body(body, binary)
    return FrameInfo(message, binary, _HEADER.size + body_len)


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Sync side: read one envelope, or ``None`` on a clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    binary, body_len = _check_length(length)
    body = _recv_exactly(sock, body_len)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode_full_body(body, binary)


def send_frame(sock: socket.socket, message: dict, binary: bool = False) -> None:
    """Sync side: write one envelope."""
    sock.sendall(encode_frame(message, binary=binary))


# ----------------------------------------------------------------- payloads


def pack_obj(obj: Any) -> str:
    """Encode a domain object for a JSON field (base64 pickle).

    The :data:`MAX_FRAME_BYTES` limit is enforced here on the *raw
    pickled bytes* — before base64 inflates them by ~33% — so the limit
    means the same number of payload bytes on both frame formats.
    """
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(raw)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return base64.b64encode(raw).decode("ascii")


def unpack_obj(data: str) -> Any:
    """Decode a :func:`pack_obj` payload.  Trusts the peer (see module doc)."""
    try:
        raw = base64.b64decode(data.encode("ascii"))
    except Exception as exc:
        raise ProtocolError(f"undecodable object payload: {exc}") from exc
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(raw)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        return pickle.loads(raw)
    except Exception as exc:
        raise ProtocolError(f"undecodable object payload: {exc}") from exc


# ---------------------------------------------------------------- lot arrays


@dataclass(frozen=True)
class LotArrays:
    """A fabricated lot in SoA wire form.

    ``payload`` is the same array bundle the fabrication pipeline ships
    between pool workers (chip ids, CSR offsets, defect coordinates and
    fault (universe) indices); ``fingerprint`` names the
    netlist it was drawn against, so the receiver rebuilds chips on its
    *own* registered copy of the circuit instead of unpickling a second
    netlist object graph off the wire.
    """

    fingerprint: str
    chip_area: float
    recipe: Any
    payload: Any


def pack_lot(netlist: Netlist, lot: Any) -> LotArrays:
    """Convert a lot to SoA wire form through
    :func:`~repro.manufacturing.lot.pack_lot_chips`.

    A column-backed lot ships its columns as they are; a fault outside
    the netlist's fault universe raises ``ValueError``.
    """
    from repro.manufacturing.lot import pack_lot_chips

    return LotArrays(
        fingerprint=netlist_fingerprint(netlist),
        chip_area=lot.recipe.chip_area,
        recipe=lot.recipe,
        payload=pack_lot_chips(netlist, lot),
    )


def lot_from_arrays(netlist: Netlist, arrays: LotArrays) -> Any:
    """Rebuild a column-backed :class:`FabricatedLot` from its SoA wire form.

    The payload is validated against the netlist's fault universe first;
    a malformed one (wrong dtypes, offsets that do not partition the
    arrays, fault indices outside the universe) is a
    :class:`ProtocolError`, never a lot whose faults silently differ.
    """
    from repro.manufacturing.lot import unpack_lot
    from repro.manufacturing.wafer import LotColumns

    if not isinstance(arrays.payload, LotColumns):
        raise ProtocolError(
            f"lot arrays payload must be LotColumns, got "
            f"{type(arrays.payload).__name__}"
        )
    try:
        return unpack_lot(netlist, arrays.recipe, arrays.chip_area, arrays.payload)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


# ----------------------------------------------------------------- identity


def netlist_fingerprint(netlist: Netlist) -> str:
    """A stable structural identity for a netlist, hex SHA-256.

    Two :class:`~repro.circuit.netlist.Netlist` objects that describe
    the same circuit — same name, same gates with the same types and
    input connections in the same declaration order, same primary
    inputs/outputs — fingerprint identically, no matter which process
    or client built them.  This is the key the server's shared compiled
    caches are shared *on*: every client uploading the same circuit maps
    to one canonical server-side netlist, so it compiles exactly once.
    """
    hasher = hashlib.sha256()
    hasher.update(netlist.name.encode("utf-8"))
    for section in (netlist.inputs, netlist.outputs):
        hasher.update(b"\x00")
        for name in section:
            hasher.update(name.encode("utf-8") + b"\x1f")
    hasher.update(b"\x00")
    for signal in netlist.signals:
        gate = netlist.gate(signal)
        hasher.update(gate.name.encode("utf-8") + b"\x1f")
        hasher.update(gate.gate_type.name.encode("utf-8") + b"\x1f")
        for source in gate.inputs:
            hasher.update(source.encode("utf-8") + b"\x1f")
        hasher.update(b"\x00")
    return hasher.hexdigest()
