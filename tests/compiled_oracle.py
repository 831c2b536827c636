"""Differential oracle: the levelized word-level simulator.

The netlist is compiled once into flat arrays (gate opcode, input indices,
output index, in topological order); each :meth:`CompiledCircuit.simulate`
call then evaluates every gate exactly once on 64-bit words, giving 64
patterns per pass — the classical parallel-pattern technique.

Single stuck-at faults are injected at simulation time, either on a signal
(stem fault: the word is forced to all-0s or all-1s after its driver
evaluates) or on a specific gate input pin (branch fault: only that gate
sees the forced value).  This distinction is what makes fanout-branch
faults distinct fault sites, as the stuck-at model requires.

Three oracles are built on it, each the straightforward loop the product's
batch kernel replaced:

* :class:`CompiledEngine` — fault-at-a-time block engine; hand an
  instance to ``FaultSimulator(netlist, engine=...)`` to diff a coverage
  run against the kernel;
* :func:`first_fail` — one chip's multi-fault machine scanned block by
  block, the wafer tester's first-fail reference;
* :func:`lot_records` — :func:`first_fail` over a chip list, in the
  :class:`~repro.tester.tester.ChipTestRecord` form ``WaferTester.test_lot``
  returns.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.circuit.gates import WORD_MASK, GateType
from repro.circuit.netlist import Netlist
from repro.faults.model import full_fault_universe
from repro.simulator.sites import validate_pin_site, validate_stem_site, validate_stuck_value
from repro.simulator.values import WORD_BITS, first_detecting_bits, pack_patterns
from repro.tester.tester import ChipTestRecord

__all__ = [
    "CompiledCircuit",
    "CompiledEngine",
    "evaluate_word",
    "first_fail",
    "injection_args",
    "lot_records",
]

_ZERO = 0
_ONES = WORD_MASK


def evaluate_word(gate_type: GateType, inputs: list[int]) -> int:
    """Evaluate a gate on 64-bit words (bitwise across packed patterns).

    Raises on arity violations — silent arity bugs corrupt every downstream
    fault-coverage number, so they must fail loudly.
    """
    n = len(inputs)
    if n < gate_type.min_inputs:
        raise ValueError(f"{gate_type.name} needs >= {gate_type.min_inputs} inputs, got {n}")
    max_in = gate_type.max_inputs
    if max_in is not None and n > max_in:
        raise ValueError(f"{gate_type.name} takes <= {max_in} inputs, got {n}")

    if gate_type is GateType.INPUT:
        raise ValueError("INPUT pseudo-gates are not evaluated")
    if gate_type is GateType.BUF:
        return inputs[0] & WORD_MASK
    if gate_type is GateType.NOT:
        return ~inputs[0] & WORD_MASK

    acc = inputs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        for v in inputs[1:]:
            acc &= v
    elif gate_type in (GateType.OR, GateType.NOR):
        for v in inputs[1:]:
            acc |= v
    else:  # XOR / XNOR
        for v in inputs[1:]:
            acc ^= v
    if gate_type.inverting:
        acc = ~acc
    return acc & WORD_MASK


def injection_args(fault) -> dict:
    """A stuck-at fault as one keyword argument of
    :meth:`CompiledCircuit.simulate`: ``stuck_pin=(gate, pin, value)``
    for a branch, ``stuck_signal=(signal, value)`` for a stem."""
    if fault.is_branch:
        return {"stuck_pin": (fault.gate, fault.pin, fault.value)}
    return {"stuck_signal": (fault.signal, fault.value)}


class CompiledCircuit:
    """A netlist compiled for fast repeated 64-way pattern evaluation."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        order = netlist.topological_order()
        self._index: dict[str, int] = {name: i for i, name in enumerate(order)}
        self._input_indices = [self._index[name] for name in netlist.inputs]
        self._input_names = list(netlist.inputs)
        self._output_indices = [self._index[name] for name in netlist.outputs]
        self._output_names = list(netlist.outputs)
        # (gate_type, (input_idx...), output_idx) for logic gates only.
        self._ops: list[tuple[GateType, tuple[int, ...], int]] = []
        for name in order:
            gate = netlist.gate(name)
            if gate.gate_type is GateType.INPUT:
                continue
            self._ops.append(
                (
                    gate.gate_type,
                    tuple(self._index[s] for s in gate.inputs),
                    self._index[name],
                )
            )
        self._num_signals = len(order)

    @property
    def num_signals(self) -> int:
        return self._num_signals

    def signal_index(self, name: str) -> int:
        """Index of a signal in the internal value array."""
        return self._index[name]

    def simulate(
        self,
        input_words: Mapping[str, int],
        stuck_signal: tuple[str, int] | None = None,
        stuck_pin: tuple[str, int, int] | None = None,
        stuck_signals: Sequence[tuple[str, int]] = (),
        stuck_pins: Sequence[tuple[str, int, int]] = (),
    ) -> dict[str, int]:
        """Evaluate 64 packed patterns; returns ``{output_name: word}``.

        ``stuck_signal=(name, v)`` forces signal ``name`` to ``v`` for every
        pattern (a stem stuck-at fault); ``stuck_pin=(gate, pin, v)`` forces
        input pin ``pin`` of ``gate`` only (a branch fault).  At most one of
        those two may be given — the *single* stuck-at API.  The plural
        ``stuck_signals`` / ``stuck_pins`` inject a whole fault set at once
        (a defective chip's multi-fault machine).
        """
        values = self.run(
            input_words, stuck_signal, stuck_pin, stuck_signals, stuck_pins
        )
        return {
            name: values[idx]
            for name, idx in zip(self._output_names, self._output_indices)
        }

    def run(
        self,
        input_words: Mapping[str, int],
        stuck_signal: tuple[str, int] | None = None,
        stuck_pin: tuple[str, int, int] | None = None,
        stuck_signals: Sequence[tuple[str, int]] = (),
        stuck_pins: Sequence[tuple[str, int, int]] = (),
    ) -> list[int]:
        """Like :meth:`simulate` but returns the full value array.

        ``stuck_signals`` / ``stuck_pins`` inject an arbitrary *set* of
        faults simultaneously — the multi-fault machine a real defective
        chip is, masking effects included.  The singular arguments remain
        the single-fault API used by the fault simulator.
        """
        if stuck_signal is not None and stuck_pin is not None:
            raise ValueError("inject at most one fault per simulation")
        all_stems = list(stuck_signals)
        all_pins = list(stuck_pins)
        if stuck_signal is not None:
            all_stems.append(stuck_signal)
        if stuck_pin is not None:
            all_pins.append(stuck_pin)

        values = [0] * self._num_signals

        for name, idx in zip(self._input_names, self._input_indices):
            try:
                word = input_words[name]
            except KeyError:
                raise ValueError(f"missing input word for {name!r}") from None
            values[idx] = word & WORD_MASK

        stem_words: dict[int, int] = {}
        for name, v in all_stems:
            validate_stuck_value(v)
            validate_stem_site(self.netlist, name)
            idx = self._index[name]
            stem_words[idx] = _ONES if v else _ZERO
            values[idx] = stem_words[idx]  # covers faults on primary inputs

        pin_words: dict[int, dict[int, int]] = {}
        for gate_name, pin_pos, v in all_pins:
            validate_stuck_value(v)
            validate_pin_site(self.netlist, gate_name, pin_pos)
            gate_idx = self._index[gate_name]
            pin_words.setdefault(gate_idx, {})[pin_pos] = _ONES if v else _ZERO

        for gate_type, in_idx, out_idx in self._ops:
            words = [values[i] for i in in_idx]
            overrides = pin_words.get(out_idx)
            if overrides:
                for pos, forced in overrides.items():
                    words[pos] = forced
            word = evaluate_word(gate_type, words)
            forced_stem = stem_words.get(out_idx)
            if forced_stem is not None:
                word = forced_stem
            values[out_idx] = word
        return values

    def output_words(self, values: list[int]) -> dict[str, int]:
        """Extract the output mapping from a :meth:`run` value array."""
        return {
            name: values[idx]
            for name, idx in zip(self._output_names, self._output_indices)
        }


class CompiledEngine:
    """Serial fault-at-a-time block engine over :class:`CompiledCircuit`.

    Satisfies the :class:`~repro.simulator.Engine` protocol.  One good
    pass plus one full resimulation per fault — the pre-batching fault
    simulator inner loop, the word-level reference the batch engine must
    match bit for bit.  ``faults`` may be fault objects or an integer
    array of fault-universe indices, as the fault simulator passes them.
    """

    name = "compiled"

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.compiled = CompiledCircuit(netlist)

    def detect_block(
        self,
        input_words: Mapping[str, int],
        num_patterns: int,
        faults: Sequence,
    ) -> list[int]:
        if isinstance(faults, np.ndarray):
            universe = full_fault_universe(self.netlist)
            faults = [universe[i] for i in faults.tolist()]
        good = self.compiled.simulate(input_words)
        detect_words: list[int] = []
        for fault in faults:
            faulty = self.compiled.simulate(
                input_words, **injection_args(fault)
            )
            word = 0
            for name, good_word in good.items():
                word |= good_word ^ faulty[name]
            detect_words.append(word)
        return detect_words


def first_fail(
    compiled: CompiledCircuit,
    blocks: Sequence[tuple[Mapping[str, int], int]],
    good: Sequence[Mapping[str, int]],
    faults: Sequence,
) -> int | None:
    """Serial word-level first-fail scan of one chip's multi-fault machine
    against the good machine's per-block responses ``good``: the first
    failing pattern, or ``None`` if the chip passes."""
    stems = []
    pins = []
    for fault in faults:
        if fault.is_branch:
            pins.append((fault.gate, fault.pin, fault.value))
        else:
            stems.append((fault.signal, fault.value))
    if not stems and not pins:
        return None

    offset = 0
    for (words, block_len), good_words in zip(blocks, good):
        observed = compiled.simulate(words, stuck_signals=stems, stuck_pins=pins)
        fail_word = 0
        for name, good_word in good_words.items():
            fail_word |= good_word ^ observed[name]
        (first_bit,) = first_detecting_bits([fail_word], block_len).tolist()
        if first_bit >= 0:
            return offset + first_bit
        offset += block_len
    return None


def lot_records(program, chips) -> list[ChipTestRecord]:
    """First-fail records of ``chips`` under ``program``, chip at a time."""
    compiled = CompiledCircuit(program.netlist)
    patterns = program.patterns
    blocks = []
    for start in range(0, len(patterns), WORD_BITS):
        block = patterns[start : start + WORD_BITS]
        blocks.append((pack_patterns(program.netlist.inputs, block), len(block)))
    good = [compiled.simulate(words) for words, _ in blocks]
    return [
        ChipTestRecord(
            chip.chip_id,
            is_good=chip.is_good,
            first_fail=first_fail(compiled, blocks, good, chip.faults),
        )
        for chip in chips
    ]
