"""Tests for random pattern generation, PODEM, and compaction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.compaction import compact_reverse
from repro.atpg.podem import PodemGenerator, PodemStatus
from repro.atpg.random_gen import random_patterns, weighted_random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.library import ripple_carry_adder
from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapse_equivalent
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.utils.rng import make_rng


class TestRandomPatterns:
    def test_shape_and_values(self):
        net = c17()
        patterns = random_patterns(net, 10, seed=1)
        assert len(patterns) == 10
        for p in patterns:
            assert set(p) == set(net.inputs)
            assert all(v in (0, 1) for v in p.values())

    def test_reproducible(self):
        net = c17()
        assert random_patterns(net, 5, seed=3) == random_patterns(net, 5, seed=3)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_uniform_matches_per_element_formula(self, seed):
        net = ripple_carry_adder(3)
        rng = make_rng(seed)
        bits = rng.integers(0, 2, size=(70, len(net.inputs)))
        expected = [
            {name: int(bits[k, i]) for i, name in enumerate(net.inputs)}
            for k in range(70)
        ]
        patterns = random_patterns(net, 70, seed=seed)
        assert patterns == expected
        assert all(type(v) is int for p in patterns for v in p.values())

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("kind", ["scalar", "sequence", "mapping"])
    def test_weighted_matches_per_element_formula(self, seed, kind):
        net = ripple_carry_adder(3)
        probs = [0.1 + 0.8 * i / len(net.inputs) for i in range(len(net.inputs))]
        weights = {
            "scalar": 0.3,
            "sequence": probs,
            "mapping": dict(zip(net.inputs, probs)),
        }[kind]
        if kind == "scalar":
            probs = [0.3] * len(net.inputs)
        draws = make_rng(seed).random(size=(70, len(net.inputs)))
        expected = [
            {name: int(draws[k, i] < probs[i]) for i, name in enumerate(net.inputs)}
            for k in range(70)
        ]
        patterns = weighted_random_patterns(net, 70, weights=weights, seed=seed)
        assert patterns == expected
        assert all(type(v) is int for p in patterns for v in p.values())

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            random_patterns(c17(), 0)

    def test_weighted_scalar(self):
        net = c17()
        patterns = weighted_random_patterns(net, 2000, weights=0.9, seed=2)
        ones = sum(v for p in patterns for v in p.values())
        frac = ones / (2000 * len(net.inputs))
        assert frac == pytest.approx(0.9, abs=0.03)

    def test_weighted_extremes(self):
        net = c17()
        all_zero = weighted_random_patterns(net, 5, weights=0.0, seed=1)
        all_one = weighted_random_patterns(net, 5, weights=1.0, seed=1)
        assert all(v == 0 for p in all_zero for v in p.values())
        assert all(v == 1 for p in all_one for v in p.values())

    def test_weighted_by_name(self):
        net = c17()
        weights = {name: 1.0 for name in net.inputs}
        weights[net.inputs[0]] = 0.0
        patterns = weighted_random_patterns(net, 10, weights=weights, seed=4)
        assert all(p[net.inputs[0]] == 0 for p in patterns)

    def test_weighted_invalid(self):
        net = c17()
        with pytest.raises(ValueError):
            weighted_random_patterns(net, 5, weights=1.5)
        with pytest.raises(ValueError):
            weighted_random_patterns(net, 5, weights=[0.5])


class TestPodemC17:
    def test_detects_whole_universe(self):
        """c17 has no redundant faults: PODEM must find a test for all 34."""
        net = c17()
        gen = PodemGenerator(net, seed=0)
        sim = FaultSimulator(net)
        for fault in full_fault_universe(net):
            result = gen.generate(fault)
            assert result.status is PodemStatus.DETECTED, fault
            assert sim.detects(result.pattern, fault), fault

    def test_pattern_complete(self):
        net = c17()
        result = PodemGenerator(net, seed=0).generate(StuckAtFault("10", 1))
        assert set(result.pattern) == set(net.inputs)

    def test_unknown_fault_site(self):
        with pytest.raises(KeyError):
            PodemGenerator(c17()).generate(StuckAtFault("nope", 0))

    def test_invalid_backtrack_limit(self):
        with pytest.raises(ValueError):
            PodemGenerator(c17(), backtrack_limit=0)


class TestPodemRedundancy:
    def test_genuinely_redundant_fault(self):
        """z = OR(a, NOT(a)) is constant 1: z/sa1 is untestable."""
        net = Netlist("redundant")
        net.add_input("a")
        net.add_gate("an", GateType.NOT, ["a"])
        net.add_gate("z", GateType.OR, ["a", "an"])
        net.set_outputs(["z"])
        gen = PodemGenerator(net)
        result = gen.generate(StuckAtFault("z", 1))
        assert result.status is PodemStatus.UNTESTABLE
        # but z/sa0 is testable (any pattern works)
        assert gen.generate(StuckAtFault("z", 0)).found

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=8, deadline=None)
    def test_agrees_with_exhaustive(self, seed):
        """PODEM's detected/untestable split must match exhaustive
        simulation exactly (small circuits, full decision space)."""
        net = random_circuit(6, 25, 3, seed=seed)
        gen = PodemGenerator(net, seed=1, backtrack_limit=5000)
        sim = FaultSimulator(net)
        exhaustive = [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(1 << len(net.inputs))
        ]
        universe = collapse_equivalent(net)
        ground_truth = sim.run(exhaustive, faults=universe)
        for fault, det in zip(ground_truth.faults, ground_truth.first_detect):
            result = gen.generate(fault)
            if det is None:
                assert result.status is PodemStatus.UNTESTABLE, fault
            else:
                assert result.status is PodemStatus.DETECTED, fault
                assert sim.detects(result.pattern, fault)


class TestPodemSuite:
    def test_rca_full_coverage(self):
        net = ripple_carry_adder(4)
        gen = PodemGenerator(net, seed=2)
        universe = collapse_equivalent(net)
        patterns, report = gen.generate_suite(universe)
        assert not report["untestable"]
        assert not report["aborted"]
        sim = FaultSimulator(net)
        assert sim.run(patterns, faults=universe).coverage == 1.0

    def test_report_buckets_partition(self):
        net = random_circuit(8, 40, 4, seed=10)
        gen = PodemGenerator(net, seed=3)
        universe = collapse_equivalent(net)
        _, report = gen.generate_suite(universe)
        total = sum(len(v) for v in report.values())
        assert total == len(universe)

    def test_max_aborts_stops_early(self):
        net = random_circuit(10, 80, 4, seed=11)
        gen = PodemGenerator(net, seed=4, backtrack_limit=1)
        universe = collapse_equivalent(net)
        _, report = gen.generate_suite(universe, max_aborts=1)
        if report["aborted"]:
            total = sum(len(v) for v in report.values())
            assert total <= len(universe)


class TestCompaction:
    def test_preserves_coverage(self):
        net = ripple_carry_adder(4)
        universe = collapse_equivalent(net)
        patterns = random_patterns(net, 120, seed=5)
        sim = FaultSimulator(net)
        before = sim.run(patterns, faults=universe).coverage
        compacted = compact_reverse(net, patterns, faults=universe)
        after = sim.run(compacted, faults=universe).coverage
        assert after == pytest.approx(before)
        assert len(compacted) <= len(patterns)

    def test_removes_duplicates(self):
        net = c17()
        pattern = random_patterns(net, 1, seed=1)[0]
        compacted = compact_reverse(net, [pattern] * 10)
        assert len(compacted) == 1

    def test_keeps_original_order(self):
        net = ripple_carry_adder(3)
        patterns = random_patterns(net, 60, seed=6)
        compacted = compact_reverse(net, patterns)
        # Identity-based position check (duplicate patterns confound .index).
        positions = {id(p): i for i, p in enumerate(patterns)}
        indices = [positions[id(p)] for p in compacted]
        assert indices == sorted(indices)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compact_reverse(c17(), [])
