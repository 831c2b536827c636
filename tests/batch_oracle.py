"""Differential oracle: the interpreted fault-parallel batch loop.

Evaluates a ``(num_machines + 1, num_signals)`` ``uint64`` value matrix
gate by gate in plain topological order — row 0 the good machine, each
other row one machine's simultaneously injected fault set — with
per-signal stem forces after each driver and per-gate pin overrides on
the gathered operands.  The product runs the lowered kernel IR instead
(:class:`repro.simulator.BatchCompiledCircuit`); this straightforward
loop is what the kernel suites and the kernel benchmark compare its full
value matrices against.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.circuit.gates import WORD_MASK, GateType
from repro.circuit.netlist import Netlist
from repro.simulator.sites import validate_fault_site

__all__ = ["InterpretedBatchCircuit"]

_U64 = np.uint64
_ZERO = _U64(0)
_ONES = _U64(WORD_MASK)

# Reduction kind per gate family (the invert flag is carried separately).
_REDUCE_AND = 0
_REDUCE_OR = 1
_REDUCE_XOR = 2
_REDUCE_BUF = 3

_GATE_REDUCE = {
    GateType.BUF: (_REDUCE_BUF, False),
    GateType.NOT: (_REDUCE_BUF, True),
    GateType.AND: (_REDUCE_AND, False),
    GateType.NAND: (_REDUCE_AND, True),
    GateType.OR: (_REDUCE_OR, False),
    GateType.NOR: (_REDUCE_OR, True),
    GateType.XOR: (_REDUCE_XOR, False),
    GateType.XNOR: (_REDUCE_XOR, True),
}

_REDUCE_UFUNC = {
    _REDUCE_AND: np.bitwise_and,
    _REDUCE_OR: np.bitwise_or,
    _REDUCE_XOR: np.bitwise_xor,
}


class InterpretedBatchCircuit:
    """The interpreted per-gate batch loop: the full value-matrix oracle.

    One instance is reusable across blocks and machine batches; only the
    value matrix and the injection index arrays are rebuilt per call.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        order = netlist.topological_order()
        self._index: dict[str, int] = {name: i for i, name in enumerate(order)}
        self._num_signals = len(order)
        self._input_names = list(netlist.inputs)
        self._input_indices = [self._index[name] for name in self._input_names]
        self._input_index_set = frozenset(self._input_indices)
        self._output_indices = np.array(
            [self._index[name] for name in netlist.outputs], dtype=np.intp
        )
        # (reduce_kind, invert, input_index_array, output_index) per gate.
        self._ops: list[tuple[int, bool, np.ndarray, int]] = []
        for name in order:
            gate = netlist.gate(name)
            if gate.gate_type is GateType.INPUT:
                continue
            kind, invert = _GATE_REDUCE[gate.gate_type]
            in_idx = np.array(
                [self._index[s] for s in gate.inputs], dtype=np.intp
            )
            out_idx = self._index[name]
            self._ops.append((kind, invert, in_idx, out_idx))
        self._max_fanin = max((len(op[2]) for op in self._ops), default=0)

    @property
    def num_signals(self) -> int:
        return self._num_signals

    def signal_index(self, name: str) -> int:
        """Index of a signal in a value matrix column."""
        return self._index[name]

    # ------------------------------------------------------- fault compiling

    def _compile_machines(
        self, machines: Sequence[Sequence]
    ) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]],
               dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Turn per-machine fault sets into per-signal injection arrays.

        Returns ``(stem_forces, pin_overrides)``:

        * ``stem_forces[signal_idx] = (rows, words)`` — force column
          ``signal_idx`` to ``words`` on ``rows`` after it evaluates;
        * ``pin_overrides[gate_idx] = (rows, pins, words)`` — force operand
          ``pins`` of gate ``gate_idx`` to ``words`` on ``rows`` before the
          gate reduces.

        Machines are any sequences of objects with the
        :class:`~repro.faults.model.StuckAtFault` site attributes
        (``signal``, ``value``, ``is_branch``, ``gate``, ``pin``).
        """
        stems: dict[int, tuple[list[int], list[int]]] = {}
        pins: dict[int, tuple[list[int], list[int], list[int]]] = {}
        for row, machine in enumerate(machines, start=1):
            for fault in machine:
                validate_fault_site(self.netlist, fault)
                word = _ONES if fault.value else _ZERO
                if fault.is_branch:
                    gate_idx = self._index[fault.gate]
                    rows, pin_list, words = pins.setdefault(
                        gate_idx, ([], [], [])
                    )
                    rows.append(row)
                    pin_list.append(fault.pin)
                    words.append(word)
                else:
                    idx = self._index[fault.signal]
                    rows, words = stems.setdefault(idx, ([], []))
                    rows.append(row)
                    words.append(word)
        stem_forces = {
            idx: (np.array(rows, dtype=np.intp), np.array(words, dtype=_U64))
            for idx, (rows, words) in stems.items()
        }
        pin_overrides = {
            idx: (
                np.array(rows, dtype=np.intp),
                np.array(pin_list, dtype=np.intp),
                np.array(words, dtype=_U64),
            )
            for idx, (rows, pin_list, words) in pins.items()
        }
        return stem_forces, pin_overrides

    # ------------------------------------------------------------ evaluation

    def run_batch(
        self,
        input_words: Mapping[str, int],
        machines: Sequence[Sequence],
    ) -> np.ndarray:
        """Evaluate row 0 (good) plus one row per machine in ``machines``.

        ``input_words`` is one packed 64-pattern word per primary input, as
        produced by :func:`~repro.simulator.values.pack_patterns`.  Each
        machine is a sequence of stuck-at faults injected *simultaneously*
        into that machine's row.  Returns the full ``(len(machines) + 1,
        num_signals)`` value matrix.
        """
        stem_forces, pin_overrides = self._compile_machines(machines)
        num_rows = len(machines) + 1
        # Every column is either an input (filled below) or a gate output
        # (written by its gate in topological order), so empty is safe.
        values = np.empty((num_rows, self._num_signals), dtype=_U64)
        # One reduction accumulator and one operand-gather scratch are
        # reused by every gate via ``out=`` — the block loop allocates no
        # per-gate temporaries.
        acc = np.empty(num_rows, dtype=_U64)
        gather = (
            np.empty((num_rows, self._max_fanin), dtype=_U64)
            if pin_overrides
            else None
        )

        for name, idx in zip(self._input_names, self._input_indices):
            try:
                word = input_words[name]
            except KeyError:
                raise ValueError(f"missing input word for {name!r}") from None
            values[:, idx] = _U64(word & WORD_MASK)
        # Primary-input stems have no driving gate; force them at load time.
        for idx, (rows, words) in stem_forces.items():
            if idx in self._input_index_set:
                values[rows, idx] = words

        for kind, invert, in_idx, out_idx in self._ops:
            override = pin_overrides.get(out_idx)
            if override is not None:
                rows, pin_list, words = override
                operands = gather[:, : len(in_idx)]
                np.take(values, in_idx, axis=1, out=operands)
                operands[rows, pin_list] = words
                if kind == _REDUCE_BUF:
                    word = operands[:, 0]
                else:
                    word = _REDUCE_UFUNC[kind].reduce(
                        operands, axis=1, out=acc
                    )
            elif kind == _REDUCE_BUF:
                word = values[:, in_idx[0]]
            else:
                # Column-view accumulation avoids the gather on the (vastly
                # more common) gates with no pin override.
                ufunc = _REDUCE_UFUNC[kind]
                word = ufunc(values[:, in_idx[0]], values[:, in_idx[1]], out=acc)
                for j in range(2, len(in_idx)):
                    word = ufunc(word, values[:, in_idx[j]], out=acc)
            if invert:
                word = np.bitwise_not(word, out=acc)
            values[:, out_idx] = word
            force = stem_forces.get(out_idx)
            if force is not None:
                rows, words = force
                values[rows, out_idx] = words
        return values

    def detect_words(
        self,
        input_words: Mapping[str, int],
        machines: Sequence[Sequence],
    ) -> np.ndarray:
        """One 64-bit detect word per machine: bit ``k`` set iff pattern
        ``k`` of the block distinguishes that machine from the good one at
        some primary output."""
        values = self.run_batch(input_words, machines)
        outputs = values[:, self._output_indices]  # (rows, num_outputs)
        diff = outputs[1:] ^ outputs[0]
        return np.bitwise_or.reduce(diff, axis=1)

    def output_words(self, values: np.ndarray, row: int = 0) -> dict[str, int]:
        """Extract ``{output_name: word}`` for one row of a value matrix."""
        return {
            name: int(values[row, idx])
            for name, idx in zip(self.netlist.outputs, self._output_indices)
        }
