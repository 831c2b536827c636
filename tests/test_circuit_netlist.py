"""Tests for gate types, netlist container, and structural checks."""

import pytest

from repro.circuit.gates import GateType, WORD_MASK
from repro.circuit.netlist import Gate, Netlist

from compiled_oracle import evaluate_word


class TestGateType:
    def test_arity_bounds(self):
        assert GateType.NOT.min_inputs == 1
        assert GateType.NOT.max_inputs == 1
        assert GateType.AND.min_inputs == 2
        assert GateType.AND.max_inputs is None
        assert GateType.INPUT.min_inputs == 0

    def test_inverting(self):
        assert GateType.NAND.inverting
        assert GateType.NOR.inverting
        assert GateType.XNOR.inverting
        assert GateType.NOT.inverting
        assert not GateType.AND.inverting
        assert not GateType.XOR.inverting

    def test_controlling_values(self):
        assert GateType.AND.controlling_value == 0
        assert GateType.NAND.controlling_value == 0
        assert GateType.OR.controlling_value == 1
        assert GateType.NOR.controlling_value == 1
        assert GateType.XOR.controlling_value is None
        assert GateType.BUF.controlling_value is None

    def test_controlled_response(self):
        assert GateType.AND.controlled_response == 0
        assert GateType.NAND.controlled_response == 1
        assert GateType.OR.controlled_response == 1
        assert GateType.NOR.controlled_response == 0
        assert GateType.XOR.controlled_response is None


class TestEvaluateWord:
    @pytest.mark.parametrize(
        "gate_type,a,b,expected",
        [
            (GateType.AND, 0b1100, 0b1010, 0b1000),
            (GateType.OR, 0b1100, 0b1010, 0b1110),
            (GateType.XOR, 0b1100, 0b1010, 0b0110),
            (GateType.NAND, 0b1100, 0b1010, ~0b1000 & WORD_MASK),
            (GateType.NOR, 0b1100, 0b1010, ~0b1110 & WORD_MASK),
            (GateType.XNOR, 0b1100, 0b1010, ~0b0110 & WORD_MASK),
        ],
    )
    def test_two_input(self, gate_type, a, b, expected):
        assert evaluate_word(gate_type, [a, b]) == expected

    def test_not_buf(self):
        assert evaluate_word(GateType.BUF, [0b101]) == 0b101
        assert evaluate_word(GateType.NOT, [0]) == WORD_MASK

    def test_wide_and(self):
        assert evaluate_word(GateType.AND, [0b111, 0b110, 0b011]) == 0b010

    def test_result_always_masked(self):
        for gt in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR):
            result = evaluate_word(gt, [0, 0] if gt is not GateType.NOT else [0])
            assert 0 <= result <= WORD_MASK

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            evaluate_word(GateType.AND, [1])
        with pytest.raises(ValueError):
            evaluate_word(GateType.NOT, [1, 1])
        with pytest.raises(ValueError):
            evaluate_word(GateType.INPUT, [])


class TestGate:
    def test_valid(self):
        g = Gate("z", GateType.AND, ("a", "b"))
        assert g.name == "z"

    def test_empty_name_raises(self):
        with pytest.raises(ValueError):
            Gate("", GateType.AND, ("a", "b"))

    def test_arity_raises(self):
        with pytest.raises(ValueError):
            Gate("z", GateType.AND, ("a",))
        with pytest.raises(ValueError):
            Gate("z", GateType.NOT, ("a", "b"))

    def test_duplicate_inputs_raise(self):
        with pytest.raises(ValueError):
            Gate("z", GateType.AND, ("a", "a"))


def simple_net():
    net = Netlist("t")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("n1", GateType.NAND, ["a", "b"])
    net.add_gate("z", GateType.NOT, ["n1"])
    net.set_outputs(["z"])
    return net


class TestNetlist:
    def test_build_and_validate(self):
        net = simple_net()
        net.validate()
        assert len(net) == 4
        assert net.num_gates == 2
        assert net.inputs == ["a", "b"]
        assert net.outputs == ["z"]

    def test_revision_counts_structural_edits(self):
        net = Netlist()
        assert net.revision == 0
        net.add_input("a")
        net.add_gate("z", GateType.NOT, ["a"])
        net.set_outputs(["z"])
        assert net.revision == 3
        net.validate()
        net.levels()
        net.fanout("a")
        assert net.revision == 3
        with pytest.raises(ValueError):
            net.add_input("a")
        assert net.revision == 3
        with pytest.raises(AttributeError):
            net.revision = 0

    def test_duplicate_signal_raises(self):
        net = Netlist()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_input("a")

    def test_input_via_add_gate_raises(self):
        net = Netlist()
        with pytest.raises(ValueError):
            net.add_gate("a", GateType.INPUT, [])

    def test_undriven_input_raises(self):
        net = Netlist()
        net.add_input("a")
        net.add_gate("z", GateType.NOT, ["missing"])
        net.set_outputs(["z"])
        with pytest.raises(ValueError, match="no driver"):
            net.validate()

    def test_no_outputs_raises(self):
        net = Netlist()
        net.add_input("a")
        net.add_gate("z", GateType.NOT, ["a"])
        with pytest.raises(ValueError, match="no primary outputs"):
            net.validate()

    def test_unknown_output_raises(self):
        net = simple_net()
        net.set_outputs(["nope"])
        with pytest.raises(ValueError, match="not driven"):
            net.validate()

    def test_cycle_detection(self):
        net = Netlist()
        net.add_input("a")
        net.add_gate("x", GateType.AND, ["a", "y"])
        net.add_gate("y", GateType.NOT, ["x"])
        net.set_outputs(["y"])
        with pytest.raises(ValueError, match="cycle"):
            net.validate()

    def test_topological_order(self):
        net = simple_net()
        order = net.topological_order()
        assert order.index("a") < order.index("n1") < order.index("z")

    def test_levels_and_depth(self):
        net = simple_net()
        levels = net.levels()
        assert levels["a"] == 0
        assert levels["n1"] == 1
        assert levels["z"] == 2
        assert net.depth() == 2

    def test_fanout(self):
        net = Netlist()
        net.add_input("a")
        net.add_gate("x", GateType.NOT, ["a"])
        net.add_gate("y", GateType.NOT, ["a"])
        net.set_outputs(["x", "y"])
        assert sorted(net.fanout("a")) == [("x", 0), ("y", 0)]
        assert net.fanout_counts()["a"] == 2
        assert net.fanout_counts()["x"] == 0

    def test_gate_lookup_missing(self):
        with pytest.raises(KeyError):
            simple_net().gate("nope")

    def test_contains(self):
        net = simple_net()
        assert "n1" in net
        assert "nope" not in net

    def test_stats(self):
        stats = simple_net().stats()
        assert stats["gates"] == 2
        assert stats["inputs"] == 2
        assert stats["type_NAND"] == 1

    def test_duplicate_outputs_raise(self):
        net = simple_net()
        with pytest.raises(ValueError):
            net.set_outputs(["z", "z"])

    def test_iteration_topological(self):
        names = [g.name for g in simple_net()]
        assert names.index("n1") < names.index("z")
