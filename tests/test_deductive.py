"""Tests for the deductive fault-simulation oracle — validated against
the fault simulator's batch engine (two independent algorithms, one
answer)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.library import parity_tree, ripple_carry_adder
from repro.circuit.netlist import Netlist
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault

from deductive_oracle import DeductiveFaultSimulator


class TestSinglePattern:
    def test_and_gate_lists(self):
        """Hand-checked AND gate: pattern a=1, b=0 -> output 0.

        Detected at z: z/sa1, b/sa1 (flips the controlling input), and NOT
        a/sa0 (a is non-controlling; flipping it leaves z at 0)."""
        net = Netlist("and2")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", GateType.AND, ["a", "b"])
        net.set_outputs(["z"])
        sim = DeductiveFaultSimulator(net)
        detected = sim.detected_faults({"a": 1, "b": 0})
        assert StuckAtFault("z", 1) in detected
        assert StuckAtFault("b", 1) in detected
        assert StuckAtFault("a", 0) not in detected
        assert StuckAtFault("a", 1) not in detected

    def test_and_gate_all_ones(self):
        """a=1, b=1 -> z=1; any sa0 on a, b, or z is detected."""
        net = Netlist("and2")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", GateType.AND, ["a", "b"])
        net.set_outputs(["z"])
        sim = DeductiveFaultSimulator(net)
        detected = sim.detected_faults({"a": 1, "b": 1})
        assert {StuckAtFault("a", 0), StuckAtFault("b", 0), StuckAtFault("z", 0)} <= detected

    def test_xor_parity_propagation(self):
        """In a parity tree every input fault propagates on any pattern."""
        net = parity_tree(4)
        sim = DeductiveFaultSimulator(net)
        detected = sim.detected_faults({f"x{i}": 0 for i in range(4)})
        for i in range(4):
            assert StuckAtFault(f"x{i}", 1) in detected

    def test_branch_faults_distinct(self):
        """A stem with fanout 2: a branch fault is detected only through
        its own sink."""
        net = Netlist("fan")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z1", GateType.AND, ["a", "b"])
        net.add_gate("z2", GateType.BUF, ["a"])
        net.set_outputs(["z1", "z2"])
        sim = DeductiveFaultSimulator(net)
        detected = sim.detected_faults({"a": 1, "b": 0})
        # a -> z2 branch sa0 flips z2 (observed); a -> z1 branch sa0 does
        # not flip z1 (b = 0 controls it).
        assert StuckAtFault("a", 0, gate="z2", pin=0) in detected
        assert StuckAtFault("a", 0, gate="z1", pin=0) not in detected


class TestAgainstSerialEngine:
    @pytest.mark.parametrize(
        "make",
        [c17, lambda: ripple_carry_adder(4), lambda: parity_tree(6)],
        ids=["c17", "rca4", "parity6"],
    )
    def test_first_detect_identical(self, make):
        net = make()
        deductive = DeductiveFaultSimulator(net)
        serial = FaultSimulator(net)
        patterns = random_patterns(net, 48, seed=3)
        ded = deductive.run(patterns)
        ser = serial.run(patterns)
        for fault, det in zip(ser.faults, ser.first_detect):
            assert ded[fault] == det, fault

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=10, deadline=None)
    def test_random_circuits_property(self, seed):
        net = random_circuit(7, 30, 3, seed=seed)
        deductive = DeductiveFaultSimulator(net)
        serial = FaultSimulator(net)
        patterns = random_patterns(net, 16, seed=seed + 1)
        ded = deductive.run(patterns)
        ser = serial.run(patterns)
        for fault, det in zip(ser.faults, ser.first_detect):
            assert ded[fault] == det, (seed, fault)

    def test_coverage_matches(self):
        net = ripple_carry_adder(5)
        deductive = DeductiveFaultSimulator(net)
        serial = FaultSimulator(net)
        patterns = random_patterns(net, 30, seed=9)
        assert deductive.coverage(patterns) == pytest.approx(
            serial.run(patterns).coverage
        )


class TestInterface:
    def test_universe_matches_model(self):
        from repro.faults.model import full_fault_universe

        net = c17()
        assert sorted(
            DeductiveFaultSimulator(net).universe, key=lambda f: f.sort_key
        ) == sorted(full_fault_universe(net), key=lambda f: f.sort_key)

    def test_empty_patterns_raise(self):
        with pytest.raises(ValueError):
            DeductiveFaultSimulator(c17()).run([])

    def test_early_exit_when_all_detected(self):
        """Exhaustive patterns detect everything; extra patterns are a
        no-op (first_detect indices must not exceed the point of full
        detection)."""
        net = c17()
        sim = DeductiveFaultSimulator(net)
        patterns = [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(32)
        ]
        result = sim.run(patterns)
        assert all(v is not None for v in result.values())
