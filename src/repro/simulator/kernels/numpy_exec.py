"""NumPy executor for the kernel IR — the ``batch`` engine's backend.

A stuck-at force can only change the gates in its fanout cone (see
:class:`~repro.simulator.kernels.ir.ConeTable`), so this executor
evaluates each machine row on little more than its own cone:

* rows are sorted by the topological column of their earliest forced
  signal (rows with no force last) and cut into groups of
  :data:`GROUP_ROWS`, so the rows of one group have neighbouring,
  overlapping cones;
* each group runs the gate schedule restricted to the union of its
  rows' cones, one vectorized ``uint64`` reduction per gate over the
  group's rows, on a reused ``(num_signals, GROUP_ROWS)`` scratch
  matrix held transposed, so every operand read and output write is
  one contiguous row;
* every column outside the union holds the value of an unforced
  machine.  The operands the union reads from outside it are filled
  from the good machine, which one Python-int pass evaluates once per
  block, and only when some group's union leaves a gate out.

A block of at most ``GROUP_ROWS`` rows is one group.  When its union is
every gate (the wafer tester's multi-fault chips) it is the plain
per-gate loop over all rows, with pin forces patched into the gathered
operands before the reduce and stem forces written after it.

This is the default backend, the fallback when numba/CuPy are absent,
and the baseline the autotuner calibrates the accelerated backends
against.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from repro.circuit.gates import WORD_MASK
from repro.simulator.kernels.ir import (
    ConeTable,
    InjectionTables,
    KernelProgram,
    OP_AND,
    OP_BUF,
    OP_OR,
    OP_XOR,
)

__all__ = ["GROUP_ROWS", "execute_numpy"]

# Machine rows evaluated together on one cone union.
GROUP_ROWS = 1024

_U64 = np.uint64

# Reduction per opcode, on rows and on Python ints.
_UFUNCS = {
    OP_AND: np.bitwise_and,
    OP_OR: np.bitwise_or,
    OP_XOR: np.bitwise_xor,
    OP_BUF: None,
}
_PY_OPS = {OP_AND: operator.and_, OP_OR: operator.or_, OP_XOR: operator.xor}


def _good_machine(
    cones: ConeTable, program: KernelProgram, input_values: list[int]
) -> list[int]:
    """Every signal's word in the fault-free machine, as Python ints."""
    values = [0] * program.num_signals
    for col, word in zip(program.input_cols.tolist(), input_values):
        values[col] = word
    for op, inv, operands, out, _ in cones.gates:
        if len(operands) == 2:
            word = _PY_OPS[op](values[operands[0]], values[operands[1]])
        elif len(operands) == 1:
            word = values[operands[0]]
        else:
            word = reduce(_PY_OPS[op], [values[col] for col in operands])
        values[out] = word ^ WORD_MASK if inv else word
    return values


def _sort_keys(keys: np.ndarray, bound: int) -> np.ndarray:
    """Non-negative ``keys`` below ``bound``, as ``uint16`` when they
    fit: NumPy's stable sort of 16-bit keys is a radix sort."""
    return keys.astype(np.uint16) if bound <= 1 << 16 else keys


def _sorted_forces(group, key, span, num_groups, *fields):
    """Forces sorted stably by ``(group, key)``, ``key < span``.

    Returns the per-group bounds into the sorted arrays, the sorted
    composite keys ``group * span + key``, a dict from each composite
    key to its ``(lo, hi)`` slice, and the sorted ``fields``.
    Stability keeps machine order among duplicates, so fancy
    assignments resolve them last-wins.
    """
    composite = _sort_keys(group * span + key, num_groups * span)
    order = np.argsort(composite, kind="stable")
    composite = composite[order]
    if num_groups == 1:
        bounds = [0, int(composite.size)]
    else:
        bounds = np.searchsorted(
            composite, np.arange(num_groups + 1) * span
        ).tolist()
    starts = np.flatnonzero(np.diff(composite)) + 1
    lows = [0, *starts.tolist()]
    highs = [*lows[1:], int(composite.size)]
    slices = (
        dict(zip(composite[lows].tolist(), zip(lows, highs)))
        if composite.size
        else {}
    )
    return bounds, composite, slices, [field[order] for field in fields]


def execute_numpy(
    program: KernelProgram,
    cones: ConeTable,
    input_values: list[int],
    tables: InjectionTables,
    columns: np.ndarray,
) -> np.ndarray:
    """Run one block; returns the signal ``columns`` of every row.

    ``input_values`` is one masked word per primary input, in
    ``program.input_names`` order.  The result is ``(num_rows,
    len(columns))`` uint64, rows in machine order.
    """
    num_rows = tables.num_rows
    num_gates = program.num_gates
    num_signals = program.num_signals
    out_cols = program.out_cols
    # An unforced machine's word per column: the inputs now, the gates
    # once the good machine has run.
    base = np.zeros(num_signals, dtype=_U64)
    base[program.input_cols] = input_values
    good_known = False

    width = min(num_rows, GROUP_ROWS)
    num_groups = -(-num_rows // width)
    if num_groups > 1:
        earliest = np.full(num_rows, num_signals, dtype=np.int64)
        np.minimum.at(earliest, tables.pi_row, tables.pi_col)
        np.minimum.at(earliest, tables.stem_row, tables.stem_col)
        np.minimum.at(earliest, tables.pin_row, out_cols[tables.pin_gate])
        order = np.argsort(_sort_keys(earliest, num_signals + 1), kind="stable")
        position = np.empty(num_rows, dtype=np.int64)
        position[order] = np.arange(num_rows)
    else:
        order = None

    def place(rows):
        """(group, row within the group) of each force's row."""
        if order is None:
            return 0, rows
        return np.divmod(position[rows], width)

    # Sorted by (group, column) for PIs and (group, gate position) for
    # stems and pins, whose forced columns are the gates' outputs.
    pi_group, pi_local = place(tables.pi_row)
    pi_bounds, pi_keys, _, (pi_local, pi_word) = _sorted_forces(
        pi_group, tables.pi_col, num_signals, num_groups, pi_local, tables.pi_word
    )
    stem_group, stem_local = place(tables.stem_row)
    stem_bounds, stem_keys, stem_at, (stem_local, stem_word) = _sorted_forces(
        stem_group, tables.stem_gate, num_gates, num_groups,
        stem_local, tables.stem_word,
    )
    pin_group, pin_local = place(tables.pin_row)
    pin_bounds, pin_keys, pin_at, (pin_pin, pin_local, pin_word) = (
        _sorted_forces(
            pin_group, tables.pin_gate, num_gates, num_groups,
            tables.pin_pin, pin_local, tables.pin_word,
        )
    )

    # A ragged last group runs on the full width too: its spare lanes
    # compute on stale words that nothing reads.
    values = np.empty((num_signals, width), dtype=_U64)
    rows = list(values)
    gather = np.empty(program.max_fanin * width, dtype=_U64)
    gathers = [
        gather[: j * width].reshape(j, width)
        for j in range(program.max_fanin + 1)
    ]
    result = np.empty((num_rows, columns.size), dtype=_U64)
    live = np.zeros(num_signals, dtype=bool)
    for k in range(num_groups):
        start = k * width
        n = min(width, num_rows - start)
        offset = k * num_gates
        pi_lo, pi_hi = pi_bounds[k], pi_bounds[k + 1]
        pi_cols = pi_keys[pi_lo:pi_hi] - k * num_signals
        stem_gates = stem_keys[stem_bounds[k] : stem_bounds[k + 1]] - offset
        pin_gates = pin_keys[pin_bounds[k] : pin_bounds[k + 1]] - offset
        live[:] = False
        live[pi_cols] = True
        live[out_cols[stem_gates]] = True
        live[out_cols[pin_gates]] = True
        union = np.bitwise_or.reduce(
            cones.bits[np.flatnonzero(live)].view(_U64), axis=0
        )
        gates = np.flatnonzero(
            np.unpackbits(union.view(np.uint8), count=num_gates, bitorder="little")
        )
        if gates.size == num_gates:
            operands = program.op_idx
        else:
            if not good_known:
                base[:] = _good_machine(cones, program, input_values)
                good_known = True
            lo = program.op_ptr[gates]
            counts = program.op_ptr[gates + 1] - lo
            ends = np.cumsum(counts)
            operands = program.op_idx[
                np.arange(ends[-1] if ends.size else 0)
                + np.repeat(lo - ends + counts, counts)
            ]
        # Every column the group reads or returns but does not
        # evaluate holds ``base``, bar this group's PI forces.
        fill = np.zeros(num_signals, dtype=bool)
        fill[operands] = True
        fill[columns] = True
        fill[pi_cols] = True
        fill[out_cols[gates]] = False
        fill = np.flatnonzero(fill)
        values[fill] = base[fill, None]
        values[pi_cols, pi_local[pi_lo:pi_hi]] = pi_word[pi_lo:pi_hi]
        for g in gates.tolist():
            op, inv, ops, out, op_array = cones.gates[g]
            ufunc = _UFUNCS[op]
            dst = rows[out]
            pins = pin_at.get(offset + g)
            if pins is not None:
                lo, hi = pins
                gathered = gathers[len(ops)]
                values.take(op_array, axis=0, out=gathered, mode="clip")
                gathered[pin_pin[lo:hi], pin_local[lo:hi]] = pin_word[lo:hi]
                if ufunc is None:
                    np.copyto(dst, gathered[0])
                else:
                    ufunc.reduce(gathered, axis=0, out=dst)
            elif ufunc is None:
                np.copyto(dst, rows[ops[0]])
            else:
                ufunc(rows[ops[0]], rows[ops[1]], out=dst)
                for col in ops[2:]:
                    ufunc(dst, rows[col], out=dst)
            if inv:
                np.bitwise_not(dst, out=dst)
            stems = stem_at.get(offset + g)
            if stems is not None:
                lo, hi = stems
                dst[stem_local[lo:hi]] = stem_word[lo:hi]

        result[start : start + n] = values[columns, :n].T
    return result if order is None else result[position]
