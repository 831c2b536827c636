"""Exhaustive tests for the extended circuit library and a .bench fuzz."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.generators import random_circuit
from repro.circuit.library import barrel_shifter, gray_converters, priority_encoder
from repro.simulator.values import pack_patterns

from compiled_oracle import CompiledCircuit
from event_oracle import EventSimulator


class TestBarrelShifter:
    @pytest.mark.parametrize("select_bits", [1, 2])
    def test_exhaustive_rotation(self, select_bits):
        width = 1 << select_bits
        net = barrel_shifter(select_bits)
        sim = EventSimulator(net)
        for data in range(1 << width):
            for shift in range(width):
                pattern = {f"d{i}": (data >> i) & 1 for i in range(width)}
                pattern.update(
                    {f"s{b}": (shift >> b) & 1 for b in range(select_bits)}
                )
                out = sim.run_pattern(pattern)
                for i in range(width):
                    expected = (data >> ((i - shift) % width)) & 1
                    assert out[f"y{i}"] == expected, (data, shift, i)

    def test_three_stage_sample(self):
        net = barrel_shifter(3)
        sim = EventSimulator(net)
        data, shift = 0b10110001, 5
        pattern = {f"d{i}": (data >> i) & 1 for i in range(8)}
        pattern.update({f"s{b}": (shift >> b) & 1 for b in range(3)})
        out = sim.run_pattern(pattern)
        value = sum(out[f"y{i}"] << i for i in range(8))
        expected = ((data << shift) | (data >> (8 - shift))) & 0xFF
        assert value == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            barrel_shifter(0)


class TestPriorityEncoder:
    @pytest.mark.parametrize("width", [2, 3, 5, 8])
    def test_exhaustive(self, width):
        net = priority_encoder(width)
        sim = EventSimulator(net)
        code_bits = len(net.outputs) - 1
        for requests in range(1 << width):
            pattern = {f"r{i}": (requests >> i) & 1 for i in range(width)}
            out = sim.run_pattern(pattern)
            if requests == 0:
                assert out["valid"] == 0
            else:
                winner = max(i for i in range(width) if (requests >> i) & 1)
                code = sum(out[f"y{b}"] << b for b in range(code_bits))
                assert out["valid"] == 1
                assert code == winner, (requests, winner, code)

    def test_invalid(self):
        with pytest.raises(ValueError):
            priority_encoder(1)


class TestGrayConverters:
    @pytest.mark.parametrize("width", [2, 3, 4, 6])
    def test_gray_identity(self, width):
        net = gray_converters(width)
        sim = EventSimulator(net)
        for value in range(1 << width):
            pattern = {f"b{i}": (value >> i) & 1 for i in range(width)}
            out = sim.run_pattern(pattern)
            gray = sum(out[f"g{i}"] << i for i in range(width))
            back = sum(out[f"c{i}"] << i for i in range(width))
            assert gray == value ^ (value >> 1)
            assert back == value  # round-trip identity wired into silicon

    def test_adjacent_codes_differ_by_one_bit(self):
        net = gray_converters(4)
        sim = EventSimulator(net)
        codes = []
        for value in range(16):
            pattern = {f"b{i}": (value >> i) & 1 for i in range(4)}
            out = sim.run_pattern(pattern)
            codes.append(sum(out[f"g{i}"] << i for i in range(4)))
        for a, b in zip(codes, codes[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            gray_converters(1)


class TestBenchRoundTripFuzz:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_write_parse_simulation_equivalent(self, seed):
        """Any generated circuit must survive .bench serialization with
        identical behaviour on random patterns."""
        original = random_circuit(6, 30, 3, seed=seed)
        restored = parse_bench(write_bench(original), name=original.name)
        patterns = random_patterns(original, 32, seed=seed + 1)
        words_a = pack_patterns(original.inputs, patterns)
        words_b = pack_patterns(restored.inputs, patterns)
        out_a = CompiledCircuit(original).simulate(words_a)
        out_b = CompiledCircuit(restored).simulate(words_b)
        assert out_a == out_b
