"""NumPy executor for the kernel IR — the ``batch`` engine's backend.

Runs the lowered :class:`~repro.simulator.kernels.ir.KernelProgram` one
gate at a time with vectorized uint64 bitwise reductions over all
machine rows, with two mechanical advantages over a plain per-gate loop
on a row-major matrix:

* the value matrix is held **transposed** — shape ``(num_signals,
  num_rows)``, one *contiguous* row per signal — so every gate's
  operand reads and output write stream through cache lines instead of
  striding across a row-major matrix;
* the accumulator and the operand-gather scratch are **preallocated
  once per call** and reused by every gate via ``out=``, so the block
  loop allocates nothing per gate.

This is the default backend, the fallback when numba/CuPy are absent,
and the baseline the autotuner calibrates the accelerated backends
against.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.kernels.ir import (
    InjectionTables,
    KernelProgram,
    OP_AND,
    OP_BUF,
    OP_OR,
    OP_XOR,
)

__all__ = ["execute_numpy"]

_UFUNC = {
    OP_AND: np.bitwise_and,
    OP_OR: np.bitwise_or,
    OP_XOR: np.bitwise_xor,
}


def execute_numpy(
    program: KernelProgram,
    values_t: np.ndarray,
    tables: InjectionTables,
) -> None:
    """Run the gate schedule in place on a transposed value matrix.

    ``values_t`` is ``(num_signals, num_rows)`` uint64 with the input
    rows (and primary-input stem forces) already loaded; on return every
    signal row holds its evaluated words.
    """
    num_rows = values_t.shape[1]
    stem_by_gate, pin_by_gate = tables.by_gate()
    acc = np.empty(num_rows, dtype=np.uint64)
    gather = (
        np.empty((program.max_fanin, num_rows), dtype=np.uint64)
        if pin_by_gate
        else None
    )
    op_idx = program.op_idx
    op_ptr = program.op_ptr
    opcodes = program.opcodes
    invert = program.invert
    out_cols = program.out_cols
    for g in range(program.num_gates):
        lo = op_ptr[g]
        hi = op_ptr[g + 1]
        kind = opcodes[g]
        override = pin_by_gate.get(g)
        if override is not None:
            rows, pins, words = override
            operands = gather[: hi - lo]
            np.take(values_t, op_idx[lo:hi], axis=0, out=operands)
            operands[pins, rows] = words
            if kind == OP_BUF:
                word = operands[0]
            else:
                word = _UFUNC[kind].reduce(operands, axis=0, out=acc)
        elif kind == OP_BUF:
            word = values_t[op_idx[lo]]
        else:
            ufunc = _UFUNC[kind]
            word = ufunc(values_t[op_idx[lo]], values_t[op_idx[lo + 1]], out=acc)
            for j in range(lo + 2, hi):
                word = ufunc(word, values_t[op_idx[j]], out=acc)
        if invert[g]:
            word = np.bitwise_not(word, out=acc if word is acc else None)
        out = out_cols[g]
        values_t[out] = word
        force = stem_by_gate.get(g)
        if force is not None:
            rows, words = force
            values_t[out, rows] = words
