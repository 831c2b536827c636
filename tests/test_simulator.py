"""Tests for pattern packing, the event-driven simulator, and the
bit-parallel compiled simulator — including the cross-engine equivalence
property that validates the fast path against the reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.library import ripple_carry_adder
from repro.circuit.netlist import Netlist
from repro.simulator.values import WORD_BITS, pack_patterns, unpack_outputs

from compiled_oracle import CompiledCircuit
from event_oracle import EventSimulator


class TestPackPatterns:
    def test_dict_patterns(self):
        words = pack_patterns(["a", "b"], [{"a": 1, "b": 0}, {"a": 0, "b": 1}])
        assert words["a"] == 0b01
        assert words["b"] == 0b10

    def test_positional_patterns(self):
        words = pack_patterns(["a", "b"], [(1, 0), (1, 1)])
        assert words["a"] == 0b11
        assert words["b"] == 0b10

    def test_limits(self):
        with pytest.raises(ValueError):
            pack_patterns(["a"], [])
        with pytest.raises(ValueError):
            pack_patterns(["a"], [{"a": 0}] * (WORD_BITS + 1))

    def test_missing_input_raises(self):
        with pytest.raises(ValueError, match="missing input"):
            pack_patterns(["a", "b"], [{"a": 1}])

    def test_non_binary_raises(self):
        with pytest.raises(ValueError):
            pack_patterns(["a"], [{"a": 2}])

    def test_wrong_positional_arity(self):
        with pytest.raises(ValueError):
            pack_patterns(["a", "b"], [(1,)])

    def test_unpack_round_trip(self):
        patterns = [{"a": 1, "b": 0}, {"a": 0, "b": 0}, {"a": 1, "b": 1}]
        words = pack_patterns(["a", "b"], patterns)
        assert unpack_outputs(words, 3) == patterns

    def test_unpack_bad_count(self):
        with pytest.raises(ValueError):
            unpack_outputs({"a": 0}, 0)


def xor_net():
    net = Netlist("xor")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("z", GateType.XOR, ["a", "b"])
    net.set_outputs(["z"])
    return net


class TestEventSimulator:
    def test_basic_function(self):
        sim = EventSimulator(xor_net())
        assert sim.run_pattern({"a": 0, "b": 0})["z"] == 0
        assert sim.run_pattern({"a": 1, "b": 0})["z"] == 1
        assert sim.run_pattern({"a": 1, "b": 1})["z"] == 0

    def test_inverting_gates_stay_binary(self):
        net = Netlist("n")
        net.add_input("a")
        net.add_gate("x", GateType.NOT, ["a"])
        net.add_gate("z", GateType.NOR, ["a", "x"])
        net.set_outputs(["x", "z"])
        sim = EventSimulator(net)
        out = sim.run_pattern({"a": 0})
        assert out["x"] == 1
        assert out["z"] == 0  # NOR(0, 1) = 0

    def test_incremental_events_fewer_than_full(self):
        net = ripple_carry_adder(8)
        sim = EventSimulator(net)
        base = {f"a{i}": 0 for i in range(8)}
        base.update({f"b{i}": 0 for i in range(8)})
        base["cin"] = 0
        sim.run_pattern(base)
        full_events = sim.events_last_run
        # Toggle one top-bit input: only its small cone re-evaluates.
        sim.apply({"a7": 1})
        assert sim.events_last_run < max(full_events, net.num_gates)

    def test_apply_non_input_raises(self):
        sim = EventSimulator(xor_net())
        with pytest.raises(ValueError, match="not a primary input"):
            sim.apply({"z": 1})

    def test_apply_bad_value_raises(self):
        sim = EventSimulator(xor_net())
        with pytest.raises(ValueError):
            sim.apply({"a": 2})

    def test_run_pattern_missing_input_raises(self):
        sim = EventSimulator(xor_net())
        with pytest.raises(ValueError, match="missing"):
            sim.run_pattern({"a": 1})

    def test_value_of_internal_signal(self):
        sim = EventSimulator(xor_net())
        sim.run_pattern({"a": 1, "b": 0})
        assert sim.value("a") == 1
        assert sim.value("z") == 1

    def test_reset(self):
        sim = EventSimulator(xor_net())
        sim.run_pattern({"a": 1, "b": 0})
        sim.reset()
        assert sim.value("a") == 0
        assert sim.value("z") == 0


class TestCompiledCircuit:
    def test_single_pattern(self):
        cc = CompiledCircuit(xor_net())
        out = cc.simulate(pack_patterns(["a", "b"], [{"a": 1, "b": 0}]))
        assert out["z"] & 1 == 1

    def test_64_patterns_one_word(self):
        net = xor_net()
        cc = CompiledCircuit(net)
        patterns = [{"a": (k >> 0) & 1, "b": (k >> 1) & 1} for k in range(4)]
        out = cc.simulate(pack_patterns(["a", "b"], patterns))
        for k, p in enumerate(patterns):
            assert (out["z"] >> k) & 1 == p["a"] ^ p["b"]

    def test_missing_input_raises(self):
        cc = CompiledCircuit(xor_net())
        with pytest.raises(ValueError, match="missing input"):
            cc.simulate({"a": 1})

    def test_stuck_signal_injection(self):
        net = c17()
        cc = CompiledCircuit(net)
        words = {name: 0 for name in net.inputs}
        out = cc.simulate(words, stuck_signal=("22", 1))
        assert out["22"] & 1 == 1

    def test_stuck_pin_only_affects_that_gate(self):
        # z1 = AND(a, b); z2 = AND(a, c). Stick pin a of z1 only.
        net = Netlist("n")
        for s in ("a", "b", "c"):
            net.add_input(s)
        net.add_gate("z1", GateType.AND, ["a", "b"])
        net.add_gate("z2", GateType.AND, ["a", "c"])
        net.set_outputs(["z1", "z2"])
        cc = CompiledCircuit(net)
        words = pack_patterns(["a", "b", "c"], [{"a": 0, "b": 1, "c": 1}])
        out = cc.simulate(words, stuck_pin=("z1", 0, 1))
        assert out["z1"] & 1 == 1  # sees stuck-1 on its a pin
        assert out["z2"] & 1 == 0  # stem value 0 unaffected

    def test_double_fault_rejected(self):
        cc = CompiledCircuit(xor_net())
        words = pack_patterns(["a", "b"], [{"a": 0, "b": 0}])
        with pytest.raises(ValueError, match="one fault"):
            cc.simulate(words, stuck_signal=("a", 1), stuck_pin=("z", 0, 1))

    def test_bad_stuck_value(self):
        cc = CompiledCircuit(xor_net())
        words = pack_patterns(["a", "b"], [{"a": 0, "b": 0}])
        with pytest.raises(ValueError):
            cc.simulate(words, stuck_signal=("a", 2))

    def test_bad_pin_index(self):
        cc = CompiledCircuit(xor_net())
        words = pack_patterns(["a", "b"], [{"a": 0, "b": 0}])
        with pytest.raises(ValueError, match="pin"):
            cc.simulate(words, stuck_pin=("z", 5, 1))


class TestEngineEquivalence:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_engines_agree(self, seed):
        net = random_circuit(6, 25, 3, seed=seed)
        cc = CompiledCircuit(net)
        ev = EventSimulator(net)
        patterns = random_patterns(net, 32, seed=seed + 1)
        words = pack_patterns(net.inputs, patterns)
        parallel_out = cc.simulate(words)
        for k, pattern in enumerate(patterns):
            event_out = ev.run_pattern(pattern)
            for out_name in net.outputs:
                assert (parallel_out[out_name] >> k) & 1 == event_out[out_name]

    def test_adder_engines_agree(self):
        net = ripple_carry_adder(6)
        cc = CompiledCircuit(net)
        ev = EventSimulator(net)
        patterns = random_patterns(net, 64, seed=9)
        words = pack_patterns(net.inputs, patterns)
        parallel_out = cc.simulate(words)
        for k, pattern in enumerate(patterns):
            event_out = ev.run_pattern(pattern)
            for out_name in net.outputs:
                assert (parallel_out[out_name] >> k) & 1 == event_out[out_name]
