"""Differential oracle: deductive fault simulation (Armstrong 1972).

Instead of re-simulating the circuit once per fault, a deductive simulator
propagates *fault lists*: for each signal, the set of single stuck-at
faults whose presence would complement that signal's value under the
current pattern.  One forward pass per pattern covers the entire fault
universe; a fault is detected when it reaches any primary output's list.

Propagation rule for a gate with controlling value ``c`` and inputs split
into S (inputs at ``c``) and the rest:

* no input at ``c``: a fault flips the output iff it flips an odd... no —
  for AND/OR-family gates, iff it flips *any* input, i.e. the union of the
  input lists;
* some inputs at ``c``: a fault flips the output iff it flips *every*
  controlling input while flipping *no* non-controlling input — the
  intersection of the controlling inputs' lists minus the union of the
  others.

XOR-family gates flip iff an odd number of inputs flip; for the single
stuck-at model (one fault active at a time) a fault flips the output iff
it appears in an odd number of input lists.

Local faults are then added: the output's own stuck-at-(not v) fault, and
on each input pin whose *branch* is a distinct site, the branch fault that
would complement that pin.  The result is validated against the serial
parallel-pattern simulator in the test suite — two independent engines,
one answer.  It is the LAMP-era technique, kept as an independent
cross-check of the product's batch kernel and of critical path tracing.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.faults.model import StuckAtFault, full_fault_universe

from event_oracle import EventSimulator

__all__ = ["DeductiveFaultSimulator"]


class DeductiveFaultSimulator:
    """One-pass-per-pattern full-universe stuck-at simulation."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.topological_order()
        self._fanout_counts = netlist.fanout_counts()
        self._universe = full_fault_universe(netlist)
        self._good = EventSimulator(netlist)

    @property
    def universe(self) -> list[StuckAtFault]:
        return list(self._universe)

    def detected_faults(self, pattern: Mapping[str, int]) -> set[StuckAtFault]:
        """All universe faults detected by one pattern (one forward pass)."""
        outputs = self._good.run_pattern(pattern)
        del outputs  # values read through self._good.value below
        value = self._good.value

        lists: dict[str, frozenset[StuckAtFault]] = {}
        for name in self._order:
            gate = self.netlist.gate(name)
            if gate.gate_type is GateType.INPUT:
                propagated: frozenset[StuckAtFault] = frozenset()
            else:
                propagated = self._propagate(gate, lists, value)
            # The signal's own stuck-at fault (the one complementing it)
            # joins the list at its stem.
            stem_fault = StuckAtFault(name, 1 - value(name))
            lists[name] = propagated | {stem_fault}

        detected: set[StuckAtFault] = set()
        for out in self.netlist.outputs:
            detected |= lists[out]
        return detected

    def _pin_list(
        self,
        gate_name: str,
        pin: int,
        source: str,
        lists: Mapping[str, frozenset[StuckAtFault]],
        value,
    ) -> frozenset[StuckAtFault]:
        """Fault list as seen at one gate input pin.

        Starts from the source signal's list; if the connection is a
        distinct branch site (stem fanout > 1), the branch's own stuck-at
        fault is added for this pin only.
        """
        pin_faults = lists[source]
        if self._fanout_counts[source] > 1:
            branch_fault = StuckAtFault(
                source, 1 - value(source), gate=gate_name, pin=pin
            )
            pin_faults = pin_faults | {branch_fault}
        return pin_faults

    def _propagate(
        self,
        gate,
        lists: Mapping[str, frozenset[StuckAtFault]],
        value,
    ) -> frozenset[StuckAtFault]:
        """Faults that complement the gate's output under this pattern."""
        gate_type = gate.gate_type
        pin_lists = [
            self._pin_list(gate.name, pin, source, lists, value)
            for pin, source in enumerate(gate.inputs)
        ]
        if gate_type in (GateType.BUF, GateType.NOT):
            return pin_lists[0]

        if gate_type in (GateType.XOR, GateType.XNOR):
            # Odd-parity propagation: with one active fault at a time, a
            # fault flips the output iff it flips an odd number of inputs.
            counts: dict[StuckAtFault, int] = {}
            for pin_faults in pin_lists:
                for fault in pin_faults:
                    counts[fault] = counts.get(fault, 0) + 1
            return frozenset(f for f, c in counts.items() if c % 2 == 1)

        ctrl = gate_type.controlling_value
        at_ctrl = [
            pin_faults
            for pin_faults, source in zip(pin_lists, gate.inputs)
            if value(source) == ctrl
        ]
        not_at_ctrl = [
            pin_faults
            for pin_faults, source in zip(pin_lists, gate.inputs)
            if value(source) != ctrl
        ]
        if not at_ctrl:
            # No controlling input: flipping any single input flips the
            # output (it becomes the lone controlling value).
            union: frozenset[StuckAtFault] = frozenset()
            for pin_faults in pin_lists:
                union |= pin_faults
            return union
        # Some controlling inputs: the fault must flip all of them away
        # from c while leaving every non-controlling input unflipped.
        result = at_ctrl[0]
        for pin_faults in at_ctrl[1:]:
            result &= pin_faults
        for pin_faults in not_at_ctrl:
            result -= pin_faults
        return result

    def run(
        self, patterns: Sequence[Mapping[str, int]]
    ) -> dict[StuckAtFault, int | None]:
        """First-detect index for every universe fault over a sequence."""
        if not patterns:
            raise ValueError("need at least one pattern")
        first_detect: dict[StuckAtFault, int | None] = {
            fault: None for fault in self._universe
        }
        remaining = set(self._universe)
        for index, pattern in enumerate(patterns):
            if not remaining:
                break
            detected = self.detected_faults(pattern) & remaining
            for fault in detected:
                first_detect[fault] = index
            remaining -= detected
        return first_detect

    def coverage(self, patterns: Sequence[Mapping[str, int]]) -> float:
        """Fault coverage of a pattern sequence over the full universe."""
        first_detect = self.run(patterns)
        detected = sum(1 for v in first_detect.values() if v is not None)
        return detected / len(first_detect)
