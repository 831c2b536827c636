"""Differential oracle: critical path tracing (Abramovici, Menon & Miller 1983).

A third coverage technique: instead of simulating faults (serial) or
propagating fault lists (deductive), trace *criticality* backward from the
primary outputs.  A line is critical under a pattern when complementing
its value complements some output; the pattern then detects exactly the
stuck-at fault opposing each critical line's value.

Gate-local rule: an input pin is critical iff its gate's output is
critical and flipping that pin alone flips the gate output — evaluated
directly on the gate function, which is exact.  The classical difficulty
is *stems*: a stem whose branches are individually non-critical can still
be critical through multiple reconverging paths (and vice versa).  Two
modes are provided:

* ``stem_analysis="exact"`` (default) resolves every fanout stem by a
  single-pattern fault injection on the compiled circuit — making the
  whole trace exact (validated against the deductive engine in the
  tests);
* ``stem_analysis="approximate"`` uses the cheap OR-of-branches rule the
  original fast implementations shipped, exposed so the error of the
  classical shortcut can be measured.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuit.gates import GateType, evaluate_word
from repro.circuit.netlist import Netlist
from repro.faults.model import StuckAtFault
from repro.simulator.values import pack_patterns

from compiled_oracle import CompiledCircuit

__all__ = ["CriticalPathTracer"]


class CriticalPathTracer:
    """Per-pattern critical-line analysis and coverage estimation."""

    def __init__(self, netlist: Netlist, stem_analysis: str = "exact"):
        if stem_analysis not in ("exact", "approximate"):
            raise ValueError(
                f"stem_analysis must be 'exact' or 'approximate', "
                f"got {stem_analysis!r}"
            )
        netlist.validate()
        self.netlist = netlist
        self.stem_analysis = stem_analysis
        self.compiled = CompiledCircuit(netlist)
        self._reverse_order = list(reversed(netlist.topological_order()))
        self._fanout = {
            name: netlist.fanout(name) for name in netlist.signals
        }
        self._output_set = set(netlist.outputs)

    # ------------------------------------------------------------ tracing

    def _pin_flips_gate(
        self, gate, pin: int, values: Mapping[str, int]
    ) -> bool:
        """Exact local test: does flipping this pin flip the gate output?"""
        words = [values[s] & 1 for s in gate.inputs]
        original = evaluate_word(gate.gate_type, words) & 1
        words[pin] ^= 1
        flipped = evaluate_word(gate.gate_type, words) & 1
        return original != flipped

    def _stem_flips_output(
        self, signal: str, value: int, words: Mapping[str, int]
    ) -> bool:
        """Exact stem check: inject s-a-(not v) and compare outputs."""
        good = self.compiled.simulate(words)
        faulty = self.compiled.simulate(
            words, stuck_signal=(signal, 1 - value)
        )
        return any((good[o] ^ faulty[o]) & 1 for o in good)

    def critical_lines(
        self, pattern: Mapping[str, int]
    ) -> tuple[set[str], set[tuple[str, int]]]:
        """Critical stems and critical pins ``(gate, pin)`` for a pattern."""
        words = pack_patterns(self.netlist.inputs, [pattern])
        values_list = self.compiled.run(words)
        values = {
            name: values_list[self.compiled.signal_index(name)] & 1
            for name in self.netlist.signals
        }

        critical_stems: set[str] = set()
        critical_pins: set[tuple[str, int]] = set()

        for name in self._reverse_order:
            sinks = self._fanout[name]
            if name in self._output_set:
                stem_critical = True
            elif not sinks:
                stem_critical = False  # dangling line observes nothing
            elif len(sinks) == 1:
                # Fanout-free: stem criticality is the single branch's.
                stem_critical = sinks[0] in critical_pins
            else:
                branch_critical = any(
                    (g, p) in critical_pins for (g, p) in sinks
                )
                if self.stem_analysis == "approximate":
                    stem_critical = branch_critical
                else:
                    # Exact: resolve reconvergence by fault injection.
                    stem_critical = self._stem_flips_output(
                        name, values[name], words
                    )
            if stem_critical:
                critical_stems.add(name)
                gate = self.netlist.gate(name)
                if gate.gate_type is not GateType.INPUT:
                    for pin in range(len(gate.inputs)):
                        if self._pin_flips_gate(gate, pin, values):
                            critical_pins.add((name, pin))
        return critical_stems, critical_pins

    # ----------------------------------------------------------- detection

    def detected_faults(self, pattern: Mapping[str, int]) -> set[StuckAtFault]:
        """Stuck-at faults (full universe convention) this pattern detects."""
        words = pack_patterns(self.netlist.inputs, [pattern])
        values_list = self.compiled.run(words)
        value = lambda s: values_list[self.compiled.signal_index(s)] & 1

        stems, pins = self.critical_lines(pattern)
        fanout_counts = self.netlist.fanout_counts()
        detected: set[StuckAtFault] = set()
        for stem in stems:
            detected.add(StuckAtFault(stem, 1 - value(stem)))
        for gate_name, pin in pins:
            source = self.netlist.gate(gate_name).inputs[pin]
            if fanout_counts[source] > 1:
                detected.add(
                    StuckAtFault(
                        source, 1 - value(source), gate=gate_name, pin=pin
                    )
                )
        return detected

    def coverage(
        self,
        patterns: Sequence[Mapping[str, int]],
        universe: Sequence[StuckAtFault],
    ) -> float:
        """Fraction of ``universe`` detected by the pattern sequence."""
        if not patterns:
            raise ValueError("need at least one pattern")
        if not universe:
            raise ValueError("empty fault universe")
        remaining = set(universe)
        detected_total = 0
        for pattern in patterns:
            if not remaining:
                break
            hit = self.detected_faults(pattern) & remaining
            detected_total += len(hit)
            remaining -= hit
        return detected_total / len(universe)
