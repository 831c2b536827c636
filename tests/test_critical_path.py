"""Tests for the critical path tracing oracle — a third coverage technique."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.library import parity_tree, ripple_carry_adder
from repro.circuit.netlist import Netlist
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import full_fault_universe

from critical_path_oracle import CriticalPathTracer
from deductive_oracle import DeductiveFaultSimulator


class TestCriticalLines:
    def test_outputs_always_critical(self):
        net = c17()
        tracer = CriticalPathTracer(net)
        stems, _ = tracer.critical_lines(
            {name: 0 for name in net.inputs}
        )
        assert set(net.outputs) <= stems

    def test_and_gate_pin_criticality(self):
        """AND(a=1, b=0): pin b is critical (the lone controlling value),
        pin a is not."""
        net = Netlist("and2")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", GateType.AND, ["a", "b"])
        net.set_outputs(["z"])
        tracer = CriticalPathTracer(net)
        _, pins = tracer.critical_lines({"a": 1, "b": 0})
        assert ("z", 1) in pins
        assert ("z", 0) not in pins

    def test_and_gate_two_controlling_none_critical(self):
        """AND(0, 0): flipping either input alone leaves the output 0."""
        net = Netlist("and2")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", GateType.AND, ["a", "b"])
        net.set_outputs(["z"])
        tracer = CriticalPathTracer(net)
        _, pins = tracer.critical_lines({"a": 0, "b": 0})
        assert pins == set()

    def test_xor_all_pins_critical(self):
        net = Netlist("x")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", GateType.XOR, ["a", "b"])
        net.set_outputs(["z"])
        tracer = CriticalPathTracer(net)
        _, pins = tracer.critical_lines({"a": 0, "b": 1})
        assert pins == {("z", 0), ("z", 1)}


class TestAgainstDeductive:
    @pytest.mark.parametrize(
        "make",
        [c17, lambda: ripple_carry_adder(3), lambda: parity_tree(5)],
        ids=["c17", "rca3", "parity5"],
    )
    def test_exact_mode_matches_deductive(self, make):
        net = make()
        tracer = CriticalPathTracer(net, stem_analysis="exact")
        deductive = DeductiveFaultSimulator(net)
        for pattern in random_patterns(net, 16, seed=2):
            assert tracer.detected_faults(pattern) == deductive.detected_faults(
                pattern
            )

    @given(st.integers(min_value=0, max_value=4000))
    @settings(max_examples=8, deadline=None)
    def test_exact_mode_property(self, seed):
        net = random_circuit(6, 25, 3, seed=seed)
        tracer = CriticalPathTracer(net, stem_analysis="exact")
        deductive = DeductiveFaultSimulator(net)
        for pattern in random_patterns(net, 6, seed=seed + 1):
            assert tracer.detected_faults(pattern) == deductive.detected_faults(
                pattern
            ), seed

    def test_approximate_mode_close_on_reconvergent_logic(self):
        """The classical OR-of-branches stem rule errs only at
        reconvergent stems; measure the per-pattern discrepancy."""
        net = random_circuit(8, 60, 4, seed=9)
        exact = CriticalPathTracer(net, stem_analysis="exact")
        approx = CriticalPathTracer(net, stem_analysis="approximate")
        total = wrong = 0
        for pattern in random_patterns(net, 10, seed=3):
            e = exact.detected_faults(pattern)
            a = approx.detected_faults(pattern)
            total += len(e | a)
            wrong += len(e ^ a)
        assert wrong / max(total, 1) < 0.25  # mostly right, never exact


class TestCoverage:
    def test_coverage_matches_serial(self):
        net = ripple_carry_adder(4)
        tracer = CriticalPathTracer(net)
        serial = FaultSimulator(net)
        patterns = random_patterns(net, 24, seed=4)
        universe = full_fault_universe(net)
        assert tracer.coverage(patterns, universe) == pytest.approx(
            serial.run(patterns, faults=universe).coverage
        )

    def test_validation(self):
        net = c17()
        tracer = CriticalPathTracer(net)
        with pytest.raises(ValueError):
            tracer.coverage([], full_fault_universe(net))
        with pytest.raises(ValueError):
            tracer.coverage(random_patterns(net, 2, seed=0), [])
        with pytest.raises(ValueError):
            CriticalPathTracer(net, stem_analysis="magic")
