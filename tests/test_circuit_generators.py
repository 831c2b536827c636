"""Tests for synthetic circuit generators."""

import pytest

from repro.circuit.generators import (
    array_multiplier,
    merge_netlists,
    random_circuit,
    simple_alu,
    synthetic_chip,
)
from repro.circuit.library import ripple_carry_adder

from event_oracle import EventSimulator


class TestRandomCircuit:
    def test_reproducible(self):
        a = random_circuit(8, 40, 4, seed=5)
        b = random_circuit(8, 40, 4, seed=5)
        assert [g.name for g in a] == [g.name for g in b]
        assert all(
            a.gate(n).inputs == b.gate(n).inputs for n in a.signals
        )

    def test_different_seeds_differ(self):
        a = random_circuit(8, 40, 4, seed=5)
        b = random_circuit(8, 40, 4, seed=6)
        assert any(
            a.gate(n).gate_type != b.gate(n).gate_type
            or a.gate(n).inputs != b.gate(n).inputs
            for n in a.signals
            if n in b.signals
        )

    def test_all_gates_observable(self):
        """Every gate must have a path to some output (no dangling logic)."""
        net = random_circuit(10, 80, 5, seed=3)
        fanout = net.fanout_counts()
        outputs = set(net.outputs)
        dangling = [
            s
            for s in net.signals
            if fanout[s] == 0 and s not in outputs
        ]
        assert dangling == []

    def test_requested_shape(self):
        net = random_circuit(6, 30, 3, seed=1)
        assert len(net.inputs) == 6
        assert len(net.outputs) <= 3

    def test_validates(self):
        random_circuit(4, 10, 2, seed=0).validate()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            random_circuit(1, 10, 2)
        with pytest.raises(ValueError):
            random_circuit(4, 0, 2)
        with pytest.raises(ValueError):
            random_circuit(4, 10, 0)
        with pytest.raises(ValueError):
            random_circuit(4, 10, 2, max_fanin=1)


class TestArrayMultiplier:
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_exhaustive(self, width):
        net = array_multiplier(width)
        sim = EventSimulator(net)
        for a in range(1 << width):
            for b in range(1 << width):
                pat = {f"a{i}": (a >> i) & 1 for i in range(width)}
                pat.update({f"b{j}": (b >> j) & 1 for j in range(width)})
                out = sim.run_pattern(pat)
                value = sum(
                    out[name] << k for k, name in enumerate(net.outputs)
                )
                assert value == a * b, (a, b, value)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            array_multiplier(1)


class TestSimpleAlu:
    @pytest.mark.parametrize("width", [2, 4])
    def test_all_ops(self, width):
        net = simple_alu(width)
        sim = EventSimulator(net)
        mask = (1 << width) - 1
        ops = {
            (0, 0): lambda a, b: (a + b) & mask,
            (1, 0): lambda a, b: a & b,
            (0, 1): lambda a, b: a | b,
            (1, 1): lambda a, b: a ^ b,
        }
        for a in range(1 << width):
            for b in range(1 << width):
                for (op0, op1), func in ops.items():
                    pat = {f"a{i}": (a >> i) & 1 for i in range(width)}
                    pat.update({f"b{i}": (b >> i) & 1 for i in range(width)})
                    pat.update({"op0": op0, "op1": op1})
                    out = sim.run_pattern(pat)
                    value = sum(out[f"y{i}"] << i for i in range(width))
                    assert value == func(a, b), (a, b, op0, op1)

    def test_carry_out(self):
        net = simple_alu(2)
        sim = EventSimulator(net)
        pat = {"a0": 1, "a1": 1, "b0": 1, "b1": 1, "op0": 0, "op1": 0}
        out = sim.run_pattern(pat)
        assert out[net.outputs[-1]] == 1  # 3 + 3 = 6 carries out of 2 bits


class TestMergeAndChip:
    def test_merge_two_adders(self):
        merged = merge_netlists([ripple_carry_adder(2), ripple_carry_adder(3)])
        assert len(merged.inputs) == (2 * 2 + 1) + (3 * 2 + 1)
        merged.validate()

    def test_merge_prefixes_disjoint(self):
        merged = merge_netlists([ripple_carry_adder(2), ripple_carry_adder(2)])
        assert any(s.startswith("u0_") for s in merged.signals)
        assert any(s.startswith("u1_") for s in merged.signals)

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_netlists([])

    def test_merged_blocks_behave_independently(self):
        block = ripple_carry_adder(2)
        merged = merge_netlists([block, block])
        sim = EventSimulator(merged)
        pat = {}
        # u0 adds 3+2, u1 adds 1+1
        for i in range(2):
            pat[f"u0_a{i}"] = (3 >> i) & 1
            pat[f"u0_b{i}"] = (2 >> i) & 1
            pat[f"u1_a{i}"] = (1 >> i) & 1
            pat[f"u1_b{i}"] = (1 >> i) & 1
        pat["u0_cin"] = 0
        pat["u1_cin"] = 0
        out = sim.run_pattern(pat)
        u0 = out["u0_fa0_s"] + (out["u0_fa1_s"] << 1) + (out["u0_fa1_co"] << 2)
        u1 = out["u1_fa0_s"] + (out["u1_fa1_s"] << 1) + (out["u1_fa1_co"] << 2)
        assert u0 == 5
        assert u1 == 2

    def test_synthetic_chip_scales(self):
        small = synthetic_chip(1, seed=0)
        large = synthetic_chip(2, seed=0)
        assert large.num_gates > small.num_gates
        small.validate()
        large.validate()

    def test_synthetic_chip_reproducible(self):
        a = synthetic_chip(1, seed=42)
        b = synthetic_chip(1, seed=42)
        assert a.signals == b.signals

    def test_synthetic_chip_invalid_scale(self):
        with pytest.raises(ValueError):
            synthetic_chip(0)
