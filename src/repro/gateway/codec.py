"""Safe JSON codecs for the HTTP gateway — **no pickle off the wire**.

The framed-TCP protocol trusts its peers and moves pickled objects; an
HTTP front door cannot.  Every domain object the gateway accepts or
returns crosses the wire as plain JSON:

* netlists as an ordered signal list (insertion order is preserved, so
  the decoded circuit hashes to the **same structural fingerprint** as
  the sender's — compile-once dedup keeps working across the codec);
* recipes as a flat field map;
* lots in the SoA wire form (the seven :class:`LotColumns` arrays),
  each array as base64 bytes plus a whitelisted dtype;
* programs as patterns + coverage curve + universe size;
* test results as ``[chip_id, is_good, first_fail]`` rows.

Decoders validate shape/dtype and raise ``ValueError`` on anything
malformed — the gateway maps that to a 400, never a traceback.
"""

from __future__ import annotations

import base64
import dataclasses
import math
from typing import Any, Mapping, Sequence

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.manufacturing.lot import FabricatedLot, pack_lot_chips, unpack_lot
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import LotColumns
from repro.server.protocol import netlist_fingerprint
from repro.tester.program import TestProgram
from repro.tester.results import LotTestResult
from repro.tester.tester import ChipTestRecord

__all__ = [
    "encode_array",
    "decode_array",
    "netlist_to_json",
    "netlist_from_json",
    "recipe_to_json",
    "recipe_from_json",
    "patterns_to_json",
    "patterns_from_json",
    "lot_to_json",
    "lot_from_json",
    "program_to_json",
    "program_from_json",
    "records_to_json",
    "records_from_json",
    "result_to_json",
    "result_from_json",
]

# The payload's seven arrays, in dataclass field order.
_PAYLOAD_FIELDS = tuple(f.name for f in dataclasses.fields(LotColumns))

_RECIPE_FIELDS = tuple(f.name for f in dataclasses.fields(ProcessRecipe))
_REQUIRED_RECIPE_FIELDS = tuple(
    f.name for f in dataclasses.fields(ProcessRecipe) if f.default is dataclasses.MISSING
)


def _number(value: Any, what: str) -> float:
    """A JSON number as a float; ``ValueError`` for anything else.

    JSON integers are unbounded, so one past the float range is rejected
    here rather than escaping as ``OverflowError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None


# ------------------------------------------------------------------ arrays


def encode_array(array: np.ndarray) -> dict:
    """One ndarray as ``{"dtype", "shape", "b64"}`` (C-order bytes)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(obj: Any) -> np.ndarray:
    """Inverse of :func:`encode_array`, with a numeric-dtype whitelist."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"array payload must be an object, got {type(obj).__name__}")
    try:
        dtype = np.dtype(str(obj["dtype"]))
        shape = tuple(obj["shape"])
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in shape):
            raise ValueError(f"shape {obj['shape']!r} must list integers")
        raw = base64.b64decode(str(obj["b64"]), validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed array payload: {exc}") from None
    if dtype.kind not in "biuf":
        # No object/void/str dtypes off the wire — numeric data only.
        raise ValueError(f"array dtype {dtype.str!r} is not allowed on the wire")
    if any(n < 0 for n in shape):
        raise ValueError(f"negative array shape {shape}")
    # Python ints: a hostile shape cannot wrap the byte count.
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"array payload is {len(raw)} bytes, shape/dtype imply {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# ---------------------------------------------------------------- netlists


def netlist_to_json(netlist: Netlist) -> dict:
    """A netlist as its ordered signal list (fingerprint-preserving)."""
    signals = []
    for name in netlist.signals:
        gate = netlist.gate(name)
        spec: dict[str, Any] = {"name": name, "type": gate.gate_type.value}
        if gate.gate_type is not GateType.INPUT:
            spec["inputs"] = list(gate.inputs)
        signals.append(spec)
    return {
        "name": netlist.name,
        "signals": signals,
        "outputs": netlist.outputs,
    }


def netlist_from_json(obj: Any) -> Netlist:
    """Rebuild a netlist, replaying declarations in wire order.

    Because signals are added in the sender's insertion order, the
    decoded circuit's :func:`netlist_fingerprint` matches the sender's
    exactly — the gateway's dedup key survives the JSON round trip.
    """
    if not isinstance(obj, Mapping):
        raise ValueError(f"netlist payload must be an object, got {type(obj).__name__}")
    name = obj.get("name", "circuit")
    if not isinstance(name, str):
        raise ValueError("netlist name must be a string")
    signals = obj.get("signals")
    if not isinstance(signals, Sequence) or isinstance(signals, (str, bytes)):
        raise ValueError("netlist signals must be a list")
    netlist = Netlist(name)
    for spec in signals:
        if not isinstance(spec, Mapping):
            raise ValueError("each signal must be an object")
        signal = spec.get("name")
        if not isinstance(signal, str):
            raise ValueError("signal name must be a string")
        try:
            gate_type = GateType(spec.get("type"))
        except ValueError:
            raise ValueError(
                f"signal {signal!r} has unknown gate type {spec.get('type')!r}"
            ) from None
        if gate_type is GateType.INPUT:
            netlist.add_input(signal)
        else:
            inputs = spec.get("inputs", [])
            if not isinstance(inputs, Sequence) or isinstance(inputs, (str, bytes)):
                raise ValueError(f"signal {signal!r} inputs must be a list")
            if not all(isinstance(s, str) for s in inputs):
                raise ValueError(f"signal {signal!r} inputs must be strings")
            netlist.add_gate(signal, gate_type, tuple(inputs))
    outputs = obj.get("outputs", [])
    if not isinstance(outputs, Sequence) or isinstance(outputs, (str, bytes)):
        raise ValueError("netlist outputs must be a list")
    if not all(isinstance(s, str) for s in outputs):
        raise ValueError("netlist outputs must be strings")
    netlist.set_outputs(outputs)
    netlist.validate()
    return netlist


# ----------------------------------------------------------------- recipes


def recipe_to_json(recipe: ProcessRecipe) -> dict:
    return dataclasses.asdict(recipe)


def recipe_from_json(obj: Any) -> ProcessRecipe:
    if not isinstance(obj, Mapping):
        raise ValueError(f"recipe payload must be an object, got {type(obj).__name__}")
    unknown = set(obj) - set(_RECIPE_FIELDS)
    if unknown:
        raise ValueError(f"unknown recipe fields {sorted(unknown)}")
    missing = set(_REQUIRED_RECIPE_FIELDS) - set(obj)
    if missing:
        raise ValueError(f"missing recipe fields {sorted(missing)}")
    return ProcessRecipe(
        **{key: _number(value, f"recipe field {key!r}") for key, value in obj.items()}
    )


# ---------------------------------------------------------------- patterns


def patterns_to_json(patterns: Sequence[Mapping[str, int]]) -> list:
    return [dict(p) for p in patterns]


def patterns_from_json(obj: Any) -> list[dict[str, int]]:
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise ValueError("patterns payload must be a list")
    patterns = []
    for i, pattern in enumerate(obj):
        if not isinstance(pattern, Mapping):
            raise ValueError(f"pattern {i} must be an object")
        clean: dict[str, int] = {}
        for signal, value in pattern.items():
            if not isinstance(signal, str):
                raise ValueError(f"pattern {i} has a non-string signal name")
            if isinstance(value, bool) or value not in (0, 1):
                raise ValueError(
                    f"pattern {i} signal {signal!r} must be 0 or 1, got {value!r}"
                )
            clean[signal] = int(value)
        patterns.append(clean)
    return patterns


# -------------------------------------------------------------------- lots


def lot_to_json(netlist: Netlist, lot: FabricatedLot) -> dict:
    """A fabricated lot in SoA form: seven base64 arrays + the recipe.

    A fault outside the netlist's fault universe raises ``ValueError``
    (see :func:`~repro.manufacturing.lot.pack_lot_chips`).
    """
    payload = pack_lot_chips(netlist, lot)
    return {
        "fingerprint": netlist_fingerprint(netlist),
        "chip_area": lot.recipe.chip_area,
        "recipe": recipe_to_json(lot.recipe),
        "arrays": {name: encode_array(getattr(payload, name)) for name in _PAYLOAD_FIELDS},
    }


def lot_from_json(netlist: Netlist, obj: Any) -> FabricatedLot:
    """Rebuild a column-backed lot bit-identically against the receiver's
    netlist; the columns are validated against its fault universe."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"lot payload must be an object, got {type(obj).__name__}")
    arrays = obj.get("arrays")
    if not isinstance(arrays, Mapping):
        raise ValueError("lot payload needs an 'arrays' object")
    missing = set(_PAYLOAD_FIELDS) - set(arrays)
    if missing:
        raise ValueError(f"lot arrays missing fields {sorted(missing)}")
    payload = LotColumns(
        **{name: decode_array(arrays[name]) for name in _PAYLOAD_FIELDS}
    )
    chip_area = _number(obj.get("chip_area"), "lot chip_area")
    recipe = recipe_from_json(obj.get("recipe"))
    return unpack_lot(netlist, recipe, chip_area, payload)


# ---------------------------------------------------------------- programs


def program_to_json(program: TestProgram) -> dict:
    return {
        "patterns": patterns_to_json(program.patterns),
        "coverage_curve": encode_array(program.coverage_curve),
        "universe_size": program.universe_size,
    }


def program_from_json(netlist: Netlist, obj: Any) -> TestProgram:
    """Rebuild a program against the receiver's netlist object."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"program payload must be an object, got {type(obj).__name__}")
    curve = decode_array(obj.get("coverage_curve"))
    if curve.ndim != 1:
        raise ValueError(f"coverage curve must be 1-D, got shape {curve.shape}")
    universe_size = obj.get("universe_size")
    if isinstance(universe_size, bool) or not isinstance(universe_size, int):
        raise ValueError("program universe_size must be an integer")
    patterns = patterns_from_json(obj.get("patterns"))
    if len(patterns) != curve.size:
        raise ValueError(
            f"program has {len(patterns)} patterns but a "
            f"{curve.size}-point coverage curve"
        )
    return TestProgram(
        netlist=netlist,
        patterns=tuple(patterns),
        coverage_curve=curve,
        universe_size=universe_size,
    )


# ----------------------------------------------------------------- results


def records_to_json(records: Sequence[ChipTestRecord]) -> list:
    """Test records as compact ``[chip_id, is_good, first_fail]`` rows."""
    return [[r.chip_id, r.is_good, r.first_fail] for r in records]


def records_from_json(obj: Any) -> tuple[ChipTestRecord, ...]:
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise ValueError("records payload must be a list")
    records = []
    for i, row in enumerate(obj):
        if not isinstance(row, Sequence) or len(row) != 3:
            raise ValueError(f"record {i} must be a [chip_id, is_good, first_fail] row")
        chip_id, is_good, first_fail = row
        if isinstance(chip_id, bool) or not isinstance(chip_id, int):
            raise ValueError(f"record {i} chip_id must be an integer")
        if not isinstance(is_good, bool):
            raise ValueError(f"record {i} is_good must be a boolean")
        if first_fail is not None and (
            isinstance(first_fail, bool) or not isinstance(first_fail, int)
        ):
            raise ValueError(f"record {i} first_fail must be an integer or null")
        records.append(
            ChipTestRecord(chip_id=chip_id, is_good=is_good, first_fail=first_fail)
        )
    return tuple(records)


def result_to_json(result: LotTestResult) -> dict:
    return {
        "records": records_to_json(result.records),
        "num_records": result.lot_size,
        "fraction_rejected": result.fraction_rejected(),
    }


def result_from_json(program: TestProgram, obj: Any) -> LotTestResult:
    """Rebuild a result against the caller's local program object."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"result payload must be an object, got {type(obj).__name__}")
    return LotTestResult(program=program, records=records_from_json(obj.get("records")))
