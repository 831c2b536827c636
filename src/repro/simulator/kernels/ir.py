"""Kernel IR: a netlist lowered to flat, levelized arrays.

:class:`~repro.simulator.batch_sim.BatchCompiledCircuit` lowers its
netlist once into a :class:`KernelProgram` — pure ``ndarray`` state that
any executor (NumPy, numba JIT, CuPy) can run without touching Python
objects per gate:

* ``opcodes`` / ``invert`` — one reduction kind per gate (AND/OR/XOR/
  BUF plus an invert flag), in a *level-grouped* topological order:
  gates are sorted by logic level, then by opcode, so every gate's
  operands are produced strictly earlier in the array and independent
  gates of one level sit contiguously (the unit a data-parallel
  executor fuses into one pass);
* ``op_idx`` / ``op_ptr`` — CSR operand lists: gate ``g`` reads signal
  columns ``op_idx[op_ptr[g]:op_ptr[g + 1]]``;
* ``out_cols`` — the signal column each gate writes;
* ``level_ptr`` — gate-range per level, for executors that dispatch a
  level at a time.

Fault injection is *not* part of the program — it varies per block as
the fault simulator compacts its batch.  A :class:`SiteTable` gives the
injection target of every fault site once per circuit (PI column, stem
``(gate position, column)`` or pin ``(gate position, pin)``), resolved
and validated by :func:`resolve_sites`; :class:`InjectionTables` carries
one call's stem forces and pin overrides, gathered from it, as flat
arrays in machine order, plus the row-CSR layout the row-parallel
JIT/GPU kernels walk.  The NumPy executor sorts them into its own row
groups.  Every layout preserves insertion order among duplicates, so a
doubly-forced site resolves last-wins, as in the word-level reference
simulator the test suite keeps.

A :class:`ConeTable` (:func:`cone_table`) gives every signal's fanout
cone over the schedule: the gates a force on that signal can change.
The NumPy executor evaluates each row group on the union of its rows'
cones only.

The program's :attr:`~KernelProgram.fingerprint` is a content hash of
the lowered arrays.  JIT compilation caches and the autotuner's
calibration decisions key on it, so any number of sessions, server
workers, or pool processes that lower the same circuit share one
compiled kernel and one tuning verdict.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuit.gates import WORD_MASK, GateType
from repro.circuit.netlist import Netlist
from repro.simulator.sites import validate_fault_site

__all__ = [
    "ConeTable",
    "KernelProgram",
    "InjectionTables",
    "SiteTable",
    "cone_table",
    "lower_program",
    "resolve_sites",
    "SITE_PI",
    "SITE_STEM",
    "SITE_PIN",
    "OP_AND",
    "OP_OR",
    "OP_XOR",
    "OP_BUF",
]

OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_BUF = 3

_U64 = np.uint64
_ZERO = _U64(0)
_ONES = _U64(WORD_MASK)


@dataclass(frozen=True)
class KernelProgram:
    """One netlist's gate schedule as flat arrays (see module docstring)."""

    num_signals: int
    input_names: tuple[str, ...]
    input_cols: np.ndarray  # int64 (num_inputs,)
    output_cols: np.ndarray  # int64 (num_outputs,)
    opcodes: np.ndarray  # int8  (num_gates,) level-grouped topo order
    invert: np.ndarray  # uint8 (num_gates,)
    op_idx: np.ndarray  # int64 (nnz,)
    op_ptr: np.ndarray  # int64 (num_gates + 1,)
    out_cols: np.ndarray  # int64 (num_gates,)
    level_ptr: np.ndarray  # int64 (num_levels + 1,)
    gate_pos: np.ndarray  # int64 (num_signals,) driving gate's position, -1 = PI
    max_fanin: int
    _fingerprint: list = field(default_factory=list, repr=False, compare=False)

    @property
    def num_gates(self) -> int:
        return int(self.opcodes.shape[0])

    @property
    def num_levels(self) -> int:
        return int(self.level_ptr.shape[0]) - 1

    @property
    def fingerprint(self) -> str:
        """Content hash of the lowered arrays (hex SHA-256).

        Two processes that lower structurally identical circuits get the
        same fingerprint — the key under which JIT dispatch caches and
        autotuner decisions are shared.
        """
        if not self._fingerprint:
            hasher = hashlib.sha256()
            for name in self.input_names:
                hasher.update(name.encode("utf-8") + b"\x1f")
            for arr in (
                self.input_cols,
                self.output_cols,
                self.opcodes,
                self.invert,
                self.op_idx,
                self.op_ptr,
                self.out_cols,
                self.level_ptr,
            ):
                hasher.update(b"\x00")
                hasher.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint.append(hasher.hexdigest())
        return self._fingerprint[0]


# Reduction kind and invert flag per gate family.
_GATE_OPS = {
    GateType.BUF: (OP_BUF, False),
    GateType.NOT: (OP_BUF, True),
    GateType.AND: (OP_AND, False),
    GateType.NAND: (OP_AND, True),
    GateType.OR: (OP_OR, False),
    GateType.NOR: (OP_OR, True),
    GateType.XOR: (OP_XOR, False),
    GateType.XNOR: (OP_XOR, True),
}


def lower_program(netlist: Netlist, index: dict[str, int]) -> KernelProgram:
    """Lower ``netlist`` to IR over the value-matrix columns ``index``.

    ``index`` maps signal names to columns (the circuit numbers them in
    topological order).  Gates are sorted by ``(level, kind, invert)``
    — stable over topological order, so the result is still
    topological — and flattened into the CSR arrays of a
    :class:`KernelProgram`.
    """
    levels = netlist.levels()
    ops = []
    for name in netlist.topological_order():
        gate = netlist.gate(name)
        if gate.gate_type is GateType.INPUT:
            continue
        kind, inv = _GATE_OPS[gate.gate_type]
        ops.append((levels[name], kind, inv, gate.inputs, index[name]))
    ops.sort(key=lambda op: op[:3])

    num_gates = len(ops)
    opcodes = np.empty(num_gates, dtype=np.int8)
    invert = np.empty(num_gates, dtype=np.uint8)
    out_cols = np.empty(num_gates, dtype=np.int64)
    op_ptr = np.zeros(num_gates + 1, dtype=np.int64)
    op_idx: list[int] = []
    level_bounds: list[int] = [0]
    for pos, (level, kind, inv, inputs, out_col) in enumerate(ops):
        opcodes[pos] = kind
        invert[pos] = 1 if inv else 0
        out_cols[pos] = out_col
        op_idx.extend(index[src] for src in inputs)
        op_ptr[pos + 1] = len(op_idx)
        if pos and level != ops[pos - 1][0]:
            level_bounds.append(pos)
    level_bounds.append(num_gates)

    num_signals = len(index)
    gate_pos = np.full(num_signals, -1, dtype=np.int64)
    gate_pos[out_cols] = np.arange(num_gates, dtype=np.int64)

    return KernelProgram(
        num_signals=num_signals,
        input_names=tuple(netlist.inputs),
        input_cols=np.array(
            [index[name] for name in netlist.inputs], dtype=np.int64
        ),
        output_cols=np.array(
            [index[name] for name in netlist.outputs], dtype=np.int64
        ),
        opcodes=opcodes,
        invert=invert,
        op_idx=np.array(op_idx, dtype=np.int64),
        op_ptr=op_ptr,
        out_cols=out_cols,
        level_ptr=np.array(level_bounds, dtype=np.int64),
        gate_pos=gate_pos,
        max_fanin=max((len(op[3]) for op in ops), default=0),
    )


@dataclass(frozen=True)
class ConeTable:
    """A program's fanout cones, and its schedule as Python tuples.

    ``bits[c]`` is a packed little-endian bitset over schedule
    positions: bit ``g`` is set iff gate ``g`` can change when signal
    column ``c`` is forced.  That is every gate reading ``c``
    transitively and, for a gate output, its own driver (a stem or pin
    force on gate ``g`` re-evaluates ``g``).  Rows are padded to whole
    64-bit words, so the union of many cones is one
    ``np.bitwise_or.reduce`` over a ``uint64`` view.

    ``gates[g]`` is gate ``g`` as ``(opcode, invert, operand columns,
    output column)`` in Python ints, for per-gate loops, plus its
    operand columns again as an ``int64`` array.
    """

    bits: np.ndarray  # uint8 (num_signals, 8 * ceil(num_gates / 64))
    gates: tuple


def cone_table(program: KernelProgram) -> ConeTable:
    """The :class:`ConeTable` of ``program``.

    One reverse walk of the schedule: every reader of a column comes
    later in it, so when gate ``g`` is reached its output column's cone
    is complete and is pushed into each of its operands' cones.
    """
    op_idx = program.op_idx.tolist()
    op_ptr = program.op_ptr.tolist()
    gates = tuple(
        (
            op,
            inv,
            tuple(op_idx[op_ptr[g] : op_ptr[g + 1]]),
            out,
            program.op_idx[op_ptr[g] : op_ptr[g + 1]],
        )
        for g, (op, inv, out) in enumerate(
            zip(
                program.opcodes.tolist(),
                program.invert.tolist(),
                program.out_cols.tolist(),
            )
        )
    )
    cones = [0] * program.num_signals
    for g in range(len(gates) - 1, -1, -1):
        _, _, operands, out, _ = gates[g]
        cone = cones[out] | (1 << g)
        cones[out] = cone
        for col in operands:
            cones[col] |= cone
    num_bytes = 8 * ((len(gates) + 63) // 64)
    packed = b"".join(cone.to_bytes(num_bytes, "little") for cone in cones)
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(
        program.num_signals, num_bytes
    )
    return ConeTable(bits, gates)


# Site kinds: where a stuck-at site's force lands in the schedule.
SITE_PI = 0  # primary-input stem: forced when the value matrix loads
SITE_STEM = 1  # gate-output stem: forced after its gate evaluates
SITE_PIN = 2  # fanout branch: one operand of one gate, before it reduces


@dataclass(frozen=True)
class SiteTable:
    """The injection target of every fault site, as flat arrays.

    Entry ``i`` describes site ``i`` of a fault list (for a circuit's
    own table, :func:`~repro.faults.model.full_fault_universe` order):

    * ``kind[i]`` — :data:`SITE_PI`, :data:`SITE_STEM` or :data:`SITE_PIN`;
    * ``a[i]`` — the PI's column, or the schedule position of the gate
      that is forced (stem) or whose operand is forced (pin);
    * ``b[i]`` — the stem's column, or the pin index (0 for a PI);
    * ``value[i]`` — the listed fault's stuck level.

    A circuit's table lists both stuck levels of a site as two entries,
    so a fault's universe index names its force completely.
    """

    kind: np.ndarray  # int8
    a: np.ndarray  # int64
    b: np.ndarray  # int64
    value: np.ndarray  # uint8

    def __len__(self) -> int:
        return int(self.kind.shape[0])


def resolve_sites(
    netlist: Netlist,
    index: dict[str, int],
    program: KernelProgram,
    faults: Sequence,
) -> SiteTable:
    """Validate and resolve ``faults`` into a :class:`SiteTable`.

    The one per-site resolver: a circuit runs it once, over its fault
    universe, and every later injection gathers from that table by
    universe index.  ``faults`` are objects with the
    :class:`~repro.faults.model.StuckAtFault` site attributes; a bogus
    site raises the same ``ValueError`` as every other engine.
    """
    n = len(faults)
    kind = np.empty(n, dtype=np.int8)
    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    value = np.empty(n, dtype=np.uint8)
    gate_pos = program.gate_pos
    for i, fault in enumerate(faults):
        validate_fault_site(netlist, fault)
        value[i] = fault.value
        if fault.is_branch:
            kind[i] = SITE_PIN
            a[i] = gate_pos[index[fault.gate]]
            b[i] = fault.pin
            continue
        col = index[fault.signal]
        pos = gate_pos[col]
        if pos < 0:
            kind[i], a[i], b[i] = SITE_PI, col, 0
        else:
            kind[i], a[i], b[i] = SITE_STEM, pos, col
    return SiteTable(kind, a, b, value)


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=_U64)


class InjectionTables:
    """One ``run_batch`` call's fault injections as flat arrays.

    Built by :meth:`from_sites` — vectorized gathers from a
    :class:`SiteTable` — with rows in machine order, so the raw arrays
    are sorted by row with insertion order preserved within a row.

    ``pi_*`` — primary-input stems, applied when the value matrix loads.
    ``stem_*`` — gate-output stems: after gate ``stem_gate[k]`` (a
    position in the level-grouped schedule) evaluates, row
    ``stem_row[k]`` of its output column is forced to ``stem_word[k]``.
    ``pin_*`` — operand overrides: operand ``pin_pin[k]`` of gate
    ``pin_gate[k]`` is forced to ``pin_word[k]`` on row ``pin_row[k]``
    before the gate reduces.
    """

    __slots__ = (
        "num_rows",
        "pi_row", "pi_col", "pi_word",
        "stem_row", "stem_gate", "stem_col", "stem_word",
        "pin_row", "pin_gate", "pin_pin", "pin_word",
        "_row_views",
    )

    def __init__(self, num_rows: int, pi, stems, pins):
        self.num_rows = num_rows
        pi_row, pi_col, pi_word = pi
        self.pi_row = np.asarray(pi_row, dtype=np.int64)
        self.pi_col = np.asarray(pi_col, dtype=np.int64)
        self.pi_word = np.asarray(pi_word, dtype=_U64)
        stem_row, stem_gate, stem_col, stem_word = stems
        self.stem_row = np.asarray(stem_row, dtype=np.int64)
        self.stem_gate = np.asarray(stem_gate, dtype=np.int64)
        self.stem_col = np.asarray(stem_col, dtype=np.int64)
        self.stem_word = np.asarray(stem_word, dtype=_U64)
        pin_row, pin_gate, pin_pin, pin_word = pins
        self.pin_row = np.asarray(pin_row, dtype=np.int64)
        self.pin_gate = np.asarray(pin_gate, dtype=np.int64)
        self.pin_pin = np.asarray(pin_pin, dtype=np.int64)
        self.pin_word = np.asarray(pin_word, dtype=_U64)
        self._row_views = None

    @classmethod
    def from_sites(
        cls,
        num_rows: int,
        rows,
        faults,
        table: SiteTable,
    ) -> "InjectionTables":
        """Tables for aligned ``(row, fault index)`` arrays.

        ``rows`` must be non-decreasing (machine order); ``faults``
        index ``table``, whose entries carry the stuck levels.  No
        Python work per fault: every field is a gather from ``table``
        split by kind.
        """
        rows = np.asarray(rows, dtype=np.int64)
        faults = np.asarray(faults, dtype=np.intp)
        kind = table.kind[faults]
        a = table.a[faults]
        b = table.b[faults]
        words = np.where(table.value[faults] != 0, _ONES, _ZERO)
        pi = kind == SITE_PI
        stem = kind == SITE_STEM
        pin = kind == SITE_PIN
        return cls(
            num_rows,
            (rows[pi], a[pi], words[pi]),
            (rows[stem], a[stem], b[stem], words[stem]),
            (rows[pin], a[pin], b[pin], words[pin]),
        )

    # ------------------------------------------------------------- layouts

    def by_row(self):
        """Row-CSR layout for row-parallel executors (the JIT kernel).

        Returns ``(stem_ptr, stem_gate, stem_word, pin_ptr, pin_gate,
        pin_pin, pin_word)``: entries sorted by ``(row, gate[, pin])``
        with ``*_ptr[r]:*_ptr[r + 1]`` slicing row ``r``'s entries.  The
        sort is stable, so duplicate forces keep machine order and a
        sequential walk resolves them last-wins, identical to the NumPy
        executor's fancy assignments.
        """
        if self._row_views is None:
            s_order = np.lexsort((self.stem_gate, self.stem_row))
            s_row = self.stem_row[s_order]
            s_ptr = np.searchsorted(
                s_row, np.arange(self.num_rows + 1), side="left"
            ).astype(np.int64)
            p_order = np.lexsort((self.pin_pin, self.pin_gate, self.pin_row))
            p_row = self.pin_row[p_order]
            p_ptr = np.searchsorted(
                p_row, np.arange(self.num_rows + 1), side="left"
            ).astype(np.int64)
            self._row_views = (
                s_ptr,
                self.stem_gate[s_order],
                self.stem_word[s_order],
                p_ptr,
                self.pin_gate[p_order],
                self.pin_pin[p_order],
                self.pin_word[p_order],
            )
        return self._row_views
