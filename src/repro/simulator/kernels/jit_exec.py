"""numba JIT executor: the whole gate schedule as one compiled kernel.

The kernel is row-parallel: a ``prange`` over machine rows, each row
evaluating the full level-grouped schedule sequentially in machine
code — zero Python dispatch inside the block loop, which is where the
NumPy executor spends most of its time at these circuit sizes.
Per-row injection state (this row's stem forces and pin overrides,
sorted by gate position) is walked with two pointers, so applying a
fault costs O(1) amortized and fault-free rows pay nothing.

The kernel body is a *plain Python function*; :func:`get_kernel` wraps
it with ``@njit(parallel=True, cache=True)`` on first use when numba is
importable.  That split buys two things:

* the exact algorithm numba compiles is unit-testable (slowly) in pure
  Python on machines without numba, so the differential suite pins its
  semantics everywhere;
* compilation happens lazily per process — a pickled engine carries
  only the IR arrays across the pool boundary, and each worker compiles
  (or loads numba's on-disk cache, keyed by this module's source) on
  first execution.

numba compiles one specialization of this kernel per process for the
fixed dtype signature below; the circuit itself is data, so every
netlist shares the same machine code.
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

__all__ = ["numba_available", "execute_jit", "eval_rows", "get_kernel"]

try:  # soft dependency: the engine falls back to NumPy without it
    import numba  # type: ignore

    prange = numba.prange
    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised on numba-less boxes
    numba = None
    prange = range
    _HAVE_NUMBA = False


def numba_available() -> bool:
    """True when the numba JIT backend can actually compile."""
    return _HAVE_NUMBA


def eval_rows(
    values,  # uint64 (num_rows, num_signals) — inputs + PI stems loaded
    opcodes,  # int8  (num_gates,)
    invert,  # uint8 (num_gates,)
    op_idx,  # int64 (nnz,)
    op_ptr,  # int64 (num_gates + 1,)
    out_cols,  # int64 (num_gates,)
    stem_ptr,  # int64 (num_rows + 1,) row-CSR into stem_gate/stem_word
    stem_gate,  # int64
    stem_word,  # uint64
    pin_ptr,  # int64 (num_rows + 1,) row-CSR into pin_gate/pin_pin/pin_word
    pin_gate,  # int64
    pin_pin,  # int64
    pin_word,  # uint64
):
    """Evaluate every machine row in place (the JIT kernel body).

    Rows are independent machines, so the outer loop is ``prange``; the
    inner loop walks gates in level-grouped topological order.  Stem and
    pin entries for a row are pre-sorted by gate position (pins also by
    pin), so the pointer walks consume them exactly once; repeated
    forces of one site apply sequentially, i.e. last-wins, matching the
    NumPy scatter semantics bit for bit.
    """
    num_rows = values.shape[0]
    num_gates = opcodes.shape[0]
    for r in prange(num_rows):
        s = stem_ptr[r]
        s_end = stem_ptr[r + 1]
        p = pin_ptr[r]
        p_end = pin_ptr[r + 1]
        for g in range(num_gates):
            lo = op_ptr[g]
            hi = op_ptr[g + 1]
            kind = opcodes[g]
            word = values[r, op_idx[lo]]
            while p < p_end and pin_gate[p] == g and pin_pin[p] == 0:
                word = pin_word[p]
                p += 1
            for j in range(lo + 1, hi):
                operand = values[r, op_idx[j]]
                while p < p_end and pin_gate[p] == g and pin_pin[p] == j - lo:
                    operand = pin_word[p]
                    p += 1

                if kind == OP_AND:
                    word = word & operand
                elif kind == OP_OR:
                    word = word | operand
                else:  # OP_XOR (BUF gates have a single operand)
                    word = word ^ operand
            if invert[g]:
                word = ~word
            while s < s_end and stem_gate[s] == g:
                word = stem_word[s]
                s += 1
            values[r, out_cols[g]] = word


_compiled = None


def get_kernel():
    """The compiled kernel (compiling on first call), or the pure-Python
    body when numba is unavailable."""
    global _compiled
    if _compiled is None:
        if _HAVE_NUMBA:
            _compiled = numba.njit(parallel=True, cache=True)(eval_rows)
        else:
            _compiled = eval_rows
    return _compiled


def execute_jit(
    program: KernelProgram,
    values: np.ndarray,
    tables: InjectionTables,
    kernel=None,
) -> None:
    """Run the schedule on a row-major value matrix via the JIT kernel.

    ``values`` is ``(num_rows, num_signals)`` uint64 with input columns
    (and primary-input stems) already loaded.  ``kernel`` overrides the
    compiled entry point — the tests pass :func:`eval_rows` itself to
    pin the pure-Python semantics.
    """
    if kernel is None:
        kernel = get_kernel()
    stem_ptr, stem_gate, stem_word, pin_ptr, pin_gate, pin_pin, pin_word = (
        tables.by_row()
    )
    kernel(
        values,
        program.opcodes,
        program.invert,
        program.op_idx,
        program.op_ptr,
        program.out_cols,
        stem_ptr,
        stem_gate,
        stem_word,
        pin_ptr,
        pin_gate,
        pin_pin,
        pin_word,
    )
