"""Direct tests of multi-fault injection in the compiled simulator.

The wafer tester relies on simulating a chip's entire fault set at once;
these tests pin the semantics down: masking is physical, order is
irrelevant, and single-fault injection is the one-element special case.
"""

import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.netlist import Netlist
from repro.simulator.values import pack_patterns

from compiled_oracle import CompiledCircuit


def and_or_net():
    """z = OR(AND(a, b), c) — enough structure for masking demos."""
    net = Netlist("m")
    for s in ("a", "b", "c"):
        net.add_input(s)
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.add_gate("z", GateType.OR, ["g", "c"])
    net.set_outputs(["z"])
    return net


class TestMultiFaultSemantics:
    def test_single_equals_plural_of_one(self):
        net = c17()
        compiled = CompiledCircuit(net)
        words = pack_patterns(net.inputs, random_patterns(net, 16, seed=1))
        a = compiled.simulate(words, stuck_signal=("10", 1))
        b = compiled.simulate(words, stuck_signals=[("10", 1)])
        assert a == b

    def test_masking(self):
        """g stuck-0 would flip z (with a=b=1, c=0), but c stuck-1 masks
        it: the pair passes a pattern each fault alone would fail."""
        net = and_or_net()
        compiled = CompiledCircuit(net)
        words = pack_patterns(["a", "b", "c"], [{"a": 1, "b": 1, "c": 0}])
        good = compiled.simulate(words)["z"] & 1
        only_g = compiled.simulate(words, stuck_signals=[("g", 0)])["z"] & 1
        both = compiled.simulate(
            words, stuck_signals=[("g", 0), ("c", 1)]
        )["z"] & 1
        assert good == 1
        assert only_g == 0          # detected alone
        assert both == 1            # masked in combination

    def test_order_independent(self):
        net = random_circuit(8, 40, 4, seed=3)
        compiled = CompiledCircuit(net)
        words = pack_patterns(net.inputs, random_patterns(net, 8, seed=4))
        faults = [("g3", 1), ("g10", 0), ("g20", 1)]
        forward = compiled.simulate(words, stuck_signals=faults)
        backward = compiled.simulate(words, stuck_signals=list(reversed(faults)))
        assert forward == backward

    def test_mixed_stem_and_pin_faults(self):
        net = and_or_net()
        compiled = CompiledCircuit(net)
        words = pack_patterns(["a", "b", "c"], [{"a": 1, "b": 1, "c": 0}])
        out = compiled.simulate(
            words,
            stuck_signals=[("c", 0)],
            stuck_pins=[("g", 0, 0)],  # pin a of the AND stuck at 0
        )
        assert out["z"] & 1 == 0  # AND killed via its pin, OR side held 0

    def test_pin_fault_does_not_touch_stem(self):
        net = and_or_net()
        compiled = CompiledCircuit(net)
        words = pack_patterns(["a", "b", "c"], [{"a": 1, "b": 1, "c": 1}])
        values = compiled.run(words, stuck_pins=[("g", 0, 0)])
        # The stem 'a' itself is unaffected by the branch fault.
        assert values[compiled.signal_index("a")] & 1 == 1

    def test_singular_pair_still_rejected(self):
        net = and_or_net()
        compiled = CompiledCircuit(net)
        words = pack_patterns(["a", "b", "c"], [{"a": 0, "b": 0, "c": 0}])
        with pytest.raises(ValueError, match="one fault"):
            compiled.simulate(
                words, stuck_signal=("g", 0), stuck_pin=("z", 0, 1)
            )

    def test_bad_values_rejected(self):
        net = and_or_net()
        compiled = CompiledCircuit(net)
        words = pack_patterns(["a", "b", "c"], [{"a": 0, "b": 0, "c": 0}])
        with pytest.raises(ValueError):
            compiled.simulate(words, stuck_signals=[("g", 2)])
        with pytest.raises(ValueError):
            compiled.simulate(words, stuck_pins=[("z", 9, 1)])
