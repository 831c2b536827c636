"""Tests for the .bench parser/writer and the circuit library."""

import itertools

import pytest

from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.gates import GateType
from repro.circuit.generators import c17
from repro.circuit.library import (
    carry_lookahead_adder,
    comparator,
    decoder,
    majority,
    multiplexer,
    parity_tree,
    ripple_carry_adder,
)

from event_oracle import EventSimulator


class TestBenchParser:
    def test_c17_shape(self):
        net = c17()
        assert len(net.inputs) == 5
        assert len(net.outputs) == 2
        assert net.num_gates == 6
        assert all(
            net.gate(n).gate_type is GateType.NAND
            for n in net.signals
            if net.gate(n).gate_type is not GateType.INPUT
        )

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        INPUT(a)

        INPUT(b)
        OUTPUT(z)
        z = AND(a, b)   # trailing comment
        """
        net = parse_bench(text)
        assert net.num_gates == 1

    def test_gate_aliases(self):
        text = """
        INPUT(a)
        OUTPUT(x)
        OUTPUT(y)
        x = INV(a)
        y = BUFF(a)
        """
        net = parse_bench(text)
        assert net.gate("x").gate_type is GateType.NOT
        assert net.gate("y").gate_type is GateType.BUF

    def test_dff_full_scan_conversion(self):
        text = """
        INPUT(a)
        OUTPUT(z)
        q = DFF(d)
        d = AND(a, q)
        z = NOT(q)
        """
        net = parse_bench(text)
        # q becomes a pseudo-input; d becomes a pseudo-output.
        assert "q" in net.inputs
        assert "d" in net.outputs

    def test_dff_arity_error(self):
        with pytest.raises(ValueError, match="DFF"):
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a, a2)")

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError, match="unknown gate type"):
            parse_bench("INPUT(a)\nOUTPUT(z)\nz = FROB(a)")

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_bench("INPUT(a)\nOUTPUT(a)\nthis is not bench")

    def test_round_trip(self):
        net = c17()
        text = write_bench(net)
        net2 = parse_bench(text)
        assert net2.inputs == net.inputs
        assert net2.outputs == net.outputs
        assert net2.num_gates == net.num_gates
        for name in net.signals:
            assert net2.gate(name).gate_type == net.gate(name).gate_type
            assert net2.gate(name).inputs == net.gate(name).inputs


def run(net, pattern):
    return EventSimulator(net).run_pattern(pattern)


class TestRippleCarryAdder:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_exhaustive(self, width):
        net = ripple_carry_adder(width)
        sim = EventSimulator(net)
        for a in range(1 << width):
            for b in range(1 << width):
                for cin in (0, 1):
                    pat = {f"a{i}": (a >> i) & 1 for i in range(width)}
                    pat.update({f"b{i}": (b >> i) & 1 for i in range(width)})
                    pat["cin"] = cin
                    out = sim.run_pattern(pat)
                    outs = net.outputs
                    total = sum(out[outs[i]] << i for i in range(width))
                    total += out[outs[width]] << width
                    assert total == a + b + cin

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            ripple_carry_adder(0)


class TestCarryLookaheadAdder:
    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_matches_ripple(self, width):
        cla = carry_lookahead_adder(width)
        sim = EventSimulator(cla)
        for a in range(1 << width):
            for b in range(1 << width):
                pat = {f"a{i}": (a >> i) & 1 for i in range(width)}
                pat.update({f"b{i}": (b >> i) & 1 for i in range(width)})
                pat["cin"] = (a ^ b) & 1
                out = sim.run_pattern(pat)
                outs = cla.outputs
                total = sum(out[outs[i]] << i for i in range(width))
                total += out[outs[width]] << width
                assert total == a + b + ((a ^ b) & 1)


class TestParityTree:
    @pytest.mark.parametrize("width", [2, 3, 7, 8])
    def test_exhaustive_small(self, width):
        net = parity_tree(width)
        sim = EventSimulator(net)
        for bits in itertools.product((0, 1), repeat=width):
            pat = {f"x{i}": bits[i] for i in range(width)}
            assert sim.run_pattern(pat)["parity"] == sum(bits) % 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            parity_tree(1)


class TestMultiplexer:
    @pytest.mark.parametrize("select_bits", [1, 2, 3])
    def test_selects_correct_input(self, select_bits):
        net = multiplexer(select_bits)
        sim = EventSimulator(net)
        n_data = 1 << select_bits
        for sel in range(n_data):
            for hot in range(n_data):
                pat = {f"d{i}": 1 if i == hot else 0 for i in range(n_data)}
                pat.update(
                    {f"s{b}": (sel >> b) & 1 for b in range(select_bits)}
                )
                assert sim.run_pattern(pat)["y"] == (1 if sel == hot else 0)


class TestComparator:
    def test_equality(self):
        net = comparator(3)
        sim = EventSimulator(net)
        for a in range(8):
            for b in range(8):
                pat = {f"a{i}": (a >> i) & 1 for i in range(3)}
                pat.update({f"b{i}": (b >> i) & 1 for i in range(3)})
                assert sim.run_pattern(pat)["eq"] == (1 if a == b else 0)

    def test_width_one(self):
        net = comparator(1)
        sim = EventSimulator(net)
        assert sim.run_pattern({"a0": 1, "b0": 1})["eq"] == 1
        assert sim.run_pattern({"a0": 1, "b0": 0})["eq"] == 0


class TestDecoder:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_one_hot(self, bits):
        net = decoder(bits)
        sim = EventSimulator(net)
        for code in range(1 << bits):
            pat = {f"s{b}": (code >> b) & 1 for b in range(bits)}
            out = sim.run_pattern(pat)
            assert sum(out.values()) == 1
            assert out[f"o{code}"] == 1


class TestMajority:
    def test_truth_table(self):
        net = majority()
        sim = EventSimulator(net)
        for a, b, c in itertools.product((0, 1), repeat=3):
            expected = 1 if a + b + c >= 2 else 0
            assert sim.run_pattern({"a": a, "b": b, "c": c})["m"] == expected
