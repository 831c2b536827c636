"""Differential oracle: the scalar event-driven logic simulator.

The reference engine: simple, obviously correct, and able to report
activity statistics (events per pattern).  The word-level and batch
simulators are validated against it property-style in the test suite;
hand an :class:`EventEngine` instance to
``FaultSimulator(netlist, engine=...)`` to diff a coverage run against
the kernel pattern by pattern.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

import numpy as np

from repro.circuit.gates import GateType, evaluate_word
from repro.circuit.netlist import Netlist
from repro.faults.model import full_fault_universe
from repro.simulator.sites import validate_fault_site
from repro.simulator.values import unpack_outputs

__all__ = ["EventSimulator", "EventEngine"]


class EventSimulator:
    """Event-driven two-valued simulation of a combinational netlist.

    Maintains signal state between calls so that incremental input changes
    propagate with event counts proportional to the affected cone — the
    property that made event-driven simulation the workhorse of the LAMP
    era for low-activity functional patterns.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._fanout: dict[str, list[str]] = {name: [] for name in netlist.signals}
        for gate in netlist:
            for src in gate.inputs:
                self._fanout[src].append(gate.name)
        self._values: dict[str, int] = {}
        self._events_last_run = 0
        self.reset()

    def reset(self) -> None:
        """Reset all signals to 0 (inputs included) and settle the netlist."""
        self._values = {name: 0 for name in self.netlist.signals}
        for gate in self.netlist:
            if gate.gate_type is not GateType.INPUT:
                # Scalar simulation: keep only bit 0 of the word evaluation
                # (NOT of 0 is the all-ones word, but the scalar value is 1).
                self._values[gate.name] = (
                    evaluate_word(
                        gate.gate_type, [self._values[s] for s in gate.inputs]
                    )
                    & 1
                )

    @property
    def events_last_run(self) -> int:
        """Number of gate re-evaluations triggered by the last apply()."""
        return self._events_last_run

    def apply(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Apply new primary-input values and return settled output values.

        Only inputs present in ``inputs`` change; others keep their state.
        """
        queue: deque[str] = deque()
        for name, value in inputs.items():
            if name not in self.netlist:
                raise ValueError(
                    f"unknown primary input {name!r} in "
                    f"{self.netlist.name!r}"
                )
            gate = self.netlist.gate(name)
            if gate.gate_type is not GateType.INPUT:
                raise ValueError(f"{name!r} is not a primary input")
            if value not in (0, 1):
                raise ValueError(f"input {name!r} must be 0/1, got {value!r}")
            if self._values[name] != value:
                self._values[name] = value
                queue.extend(self._fanout[name])

        events = 0
        pending = set(queue)
        while queue:
            gate_name = queue.popleft()
            pending.discard(gate_name)
            gate = self.netlist.gate(gate_name)
            new_value = (
                evaluate_word(gate.gate_type, [self._values[s] for s in gate.inputs])
                & 1
            )
            events += 1
            if new_value != self._values[gate_name]:
                self._values[gate_name] = new_value
                for sink in self._fanout[gate_name]:
                    if sink not in pending:
                        pending.add(sink)
                        queue.append(sink)
        self._events_last_run = events
        return {name: self._values[name] for name in self.netlist.outputs}

    def run_pattern(self, pattern: Mapping[str, int]) -> dict[str, int]:
        """Apply a complete pattern (value for every primary input)."""
        missing = [name for name in self.netlist.inputs if name not in pattern]
        if missing:
            raise ValueError(f"pattern missing inputs: {missing[:5]}")
        return self.apply({name: pattern[name] for name in self.netlist.inputs})

    def value(self, signal: str) -> int:
        """Current settled value of any signal."""
        return self._values[signal]


class EventEngine:
    """Scalar fault-at-a-time, pattern-at-a-time block engine.

    Satisfies the :class:`~repro.simulator.Engine` protocol.  The good
    machine runs on the incremental :class:`EventSimulator`; each faulty
    machine is a fresh scalar topological pass with the fault injected
    using the same semantics as the word-level engines (stem forced after
    its driver evaluates, pin forced only inside the sink gate).  Slow and
    obviously correct — the cross-check for both fast paths.  ``faults``
    may be fault objects or an integer array of fault-universe indices.
    """

    name = "event"

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._good_sim = EventSimulator(netlist)
        self._gates = list(netlist)  # topological order
        self._outputs = list(netlist.outputs)

    def _faulty_outputs(self, pattern: Mapping[str, int], fault) -> dict[str, int]:
        values: dict[str, int] = {}
        stem = None if fault.is_branch else fault.signal
        for gate in self._gates:
            if gate.gate_type is GateType.INPUT:
                value = pattern[gate.name]
            else:
                operands = [values[s] for s in gate.inputs]
                if fault.is_branch and fault.gate == gate.name:
                    operands[fault.pin] = fault.value
                value = evaluate_word(gate.gate_type, operands) & 1
            if stem == gate.name:
                value = fault.value
            values[gate.name] = value
        return {name: values[name] for name in self._outputs}

    def detect_block(
        self,
        input_words: Mapping[str, int],
        num_patterns: int,
        faults: Sequence,
    ) -> list[int]:
        if isinstance(faults, np.ndarray):
            universe = full_fault_universe(self.netlist)
            faults = [universe[i] for i in faults.tolist()]
        for fault in faults:
            validate_fault_site(self.netlist, fault)
        patterns = unpack_outputs(input_words, num_patterns)
        detect_words = [0] * len(faults)
        for k, pattern in enumerate(patterns):
            good = self._good_sim.run_pattern(pattern)
            bit = 1 << k
            for i, fault in enumerate(faults):
                faulty = self._faulty_outputs(pattern, fault)
                if any(good[o] != faulty[o] for o in self._outputs):
                    detect_words[i] |= bit
        return detect_words
