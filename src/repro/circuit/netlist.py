"""Netlist container: named gates, levelization, structural validation.

A :class:`Netlist` is a combinational DAG.  Every signal is named by the
gate that drives it (``.bench`` convention); primary inputs are
``GateType.INPUT`` pseudo-gates.  The container enforces the invariants the
simulators and ATPG rely on: unique names, defined drivers, no cycles, and
declared primary outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.circuit.gates import GateType

__all__ = ["Gate", "Netlist"]


@dataclass(frozen=True)
class Gate:
    """One gate: an output signal name, a type, and input signal names."""

    name: str
    gate_type: GateType
    inputs: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("gate name must be non-empty")
        n = len(self.inputs)
        if n < self.gate_type.min_inputs:
            raise ValueError(
                f"gate {self.name!r}: {self.gate_type.name} needs at least "
                f"{self.gate_type.min_inputs} inputs, got {n}"
            )
        max_in = self.gate_type.max_inputs
        if max_in is not None and n > max_in:
            raise ValueError(
                f"gate {self.name!r}: {self.gate_type.name} takes at most "
                f"{max_in} inputs, got {n}"
            )
        if len(set(self.inputs)) != n:
            # Duplicate connections are legal hardware but break the
            # fault-collapsing bookkeeping; normalize upstream instead.
            raise ValueError(f"gate {self.name!r} has duplicate input connections")


class Netlist:
    """A combinational circuit as a named DAG of gates.

    Build with :meth:`add_input` / :meth:`add_gate` / :meth:`set_outputs`,
    or load from ``.bench`` text via :func:`repro.circuit.bench.parse_bench`.
    Call :meth:`validate` (or any method that needs structure — it validates
    lazily) before simulation.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._gates: dict[str, Gate] = {}
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._order: list[str] | None = None  # cached topological order
        self._levels: dict[str, int] | None = None
        self._sinks: dict[str, list[tuple[str, int]]] | None = None
        self._revision = 0

    # ------------------------------------------------------------ building

    def add_input(self, name: str) -> None:
        """Declare a primary input signal."""
        self._add(Gate(name, GateType.INPUT))
        self._inputs.append(name)

    def add_gate(self, name: str, gate_type: GateType, inputs: Sequence[str]) -> None:
        """Add a logic gate driving signal ``name``."""
        if gate_type is GateType.INPUT:
            raise ValueError("use add_input for primary inputs")
        self._add(Gate(name, gate_type, tuple(inputs)))

    def _add(self, gate: Gate) -> None:
        if gate.name in self._gates:
            raise ValueError(f"duplicate signal name {gate.name!r}")
        self._gates[gate.name] = gate
        self._order = None
        self._levels = None
        self._sinks = None
        self._revision += 1

    def set_outputs(self, names: Iterable[str]) -> None:
        """Declare the primary outputs (replaces any previous declaration)."""
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate primary output declaration")
        self._outputs = names
        self._order = None
        self._revision += 1

    # ------------------------------------------------------------- queries

    @property
    def revision(self) -> int:
        """Structural edit count: bumped by every :meth:`add_input`,
        :meth:`add_gate` and :meth:`set_outputs`.

        Per-netlist caches (fault universe, collapse, compiled engines)
        remember the revision they were built at and rebuild when it
        has moved.
        """
        return self._revision

    @property
    def inputs(self) -> list[str]:
        """Primary input names in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[str]:
        """Primary output names in declaration order."""
        return list(self._outputs)

    @property
    def signals(self) -> list[str]:
        """All signal names (inputs + gate outputs)."""
        return list(self._gates)

    def gate(self, name: str) -> Gate:
        """Return the gate driving signal ``name``."""
        try:
            return self._gates[name]
        except KeyError:
            raise KeyError(f"no signal named {name!r} in {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __len__(self) -> int:
        """Number of signals (including primary inputs)."""
        return len(self._gates)

    @property
    def num_gates(self) -> int:
        """Number of logic gates (excluding primary inputs)."""
        return len(self._gates) - len(self._inputs)

    def _sink_map(self) -> dict[str, list[tuple[str, int]]]:
        """``{source: [(sink_gate_name, pin_index), ...]}`` over every edge.

        Built in one pass over the gates (declaration order, pins in
        order) and cached until the next :meth:`add_input`/:meth:`add_gate`.
        """
        if self._sinks is None:
            sinks: dict[str, list[tuple[str, int]]] = {}
            for gate in self._gates.values():
                for pin, src in enumerate(gate.inputs):
                    sinks.setdefault(src, []).append((gate.name, pin))
            self._sinks = sinks
        return self._sinks

    def fanout(self, name: str) -> list[tuple[str, int]]:
        """Return ``(sink_gate_name, pin_index)`` pairs fed by ``name``."""
        return list(self._sink_map().get(name, ()))

    def fanout_counts(self) -> dict[str, int]:
        """Fanout count of every signal."""
        sinks = self._sink_map()
        return {name: len(sinks.get(name, ())) for name in self._gates}

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Ensures: at least one input and one declared output, all gate inputs
        driven, outputs exist, and the graph is acyclic.  Also populates the
        topological-order cache.
        """
        if not self._inputs:
            raise ValueError(f"netlist {self.name!r} has no primary inputs")
        if not self._outputs:
            raise ValueError(f"netlist {self.name!r} has no primary outputs")
        for out in self._outputs:
            if out not in self._gates:
                raise ValueError(f"primary output {out!r} is not driven by any gate")
        for gate in self._gates.values():
            for src in gate.inputs:
                if src not in self._gates:
                    raise ValueError(
                        f"gate {gate.name!r} input {src!r} has no driver"
                    )
        self._topological_order()  # raises on cycles

    def _topological_order(self) -> list[str]:
        if self._order is not None:
            return self._order
        # Kahn's algorithm over the signal graph.
        indegree = {name: len(g.inputs) for name, g in self._gates.items()}
        sinks: dict[str, list[str]] = {name: [] for name in self._gates}
        for gate in self._gates.values():
            for src in gate.inputs:
                if src in sinks:
                    sinks[src].append(gate.name)
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[str] = []
        while ready:
            current = ready.pop()
            order.append(current)
            for sink in sinks[current]:
                indegree[sink] -= 1
                if indegree[sink] == 0:
                    ready.append(sink)
        if len(order) != len(self._gates):
            cyclic = [n for n, d in indegree.items() if d > 0]
            raise ValueError(
                f"netlist {self.name!r} has a combinational cycle involving "
                f"{sorted(cyclic)[:5]}"
            )
        self._order = order
        return order

    def topological_order(self) -> list[str]:
        """Signals in dependency order (inputs first)."""
        return list(self._topological_order())

    def levels(self) -> dict[str, int]:
        """Logic depth of each signal (primary inputs at level 0)."""
        if self._levels is None:
            levels: dict[str, int] = {}
            for name in self._topological_order():
                gate = self._gates[name]
                if not gate.inputs:
                    levels[name] = 0
                else:
                    levels[name] = 1 + max(levels[src] for src in gate.inputs)
            self._levels = levels
        return dict(self._levels)

    def depth(self) -> int:
        """Maximum logic depth over all signals."""
        return max(self.levels().values(), default=0)

    def __iter__(self) -> Iterator[Gate]:
        """Iterate gates in topological order."""
        for name in self._topological_order():
            yield self._gates[name]

    # ------------------------------------------------------------ statistics

    def stats(self) -> dict[str, int]:
        """Summary counts used by reports and generators."""
        by_type: dict[str, int] = {}
        for gate in self._gates.values():
            by_type[gate.gate_type.name] = by_type.get(gate.gate_type.name, 0) + 1
        return {
            "signals": len(self._gates),
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "gates": self.num_gates,
            "depth": self.depth(),
            **{f"type_{k}": v for k, v in sorted(by_type.items())},
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={len(self._inputs)}, "
            f"gates={self.num_gates}, outputs={len(self._outputs)})"
        )
