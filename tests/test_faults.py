"""Tests for fault model, collapsing, fault simulation, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.library import ripple_carry_adder
from repro.circuit.netlist import Netlist
from repro.faults.collapse import (
    collapse_equivalent,
    collapsed_indices,
    equivalence_classes,
)
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import (
    StuckAtFault,
    checkpoint_faults,
    fault_site_lookup,
    full_fault_universe,
)
from repro.faults.sampling import sample_coverage

from compiled_oracle import injection_args


class TestStuckAtFault:
    def test_stem(self):
        f = StuckAtFault("x", 0)
        assert not f.is_branch
        assert injection_args(f) == {"stuck_signal": ("x", 0)}
        assert str(f) == "x/sa0"

    def test_branch(self):
        f = StuckAtFault("x", 1, gate="g", pin=2)
        assert f.is_branch
        assert injection_args(f) == {"stuck_pin": ("g", 2, 1)}
        assert str(f) == "x->g.2/sa1"

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            StuckAtFault("x", 2)

    def test_half_branch_raises(self):
        with pytest.raises(ValueError):
            StuckAtFault("x", 0, gate="g")
        with pytest.raises(ValueError):
            StuckAtFault("x", 0, pin=1)

    def test_sort_key_total_order(self):
        faults = [
            StuckAtFault("b", 1),
            StuckAtFault("a", 0, gate="g", pin=0),
            StuckAtFault("a", 0),
        ]
        ordered = sorted(faults, key=lambda f: f.sort_key)
        assert ordered[0] == StuckAtFault("a", 0)


class TestUniverse:
    def test_c17_universe_size(self):
        """c17: 11 signals -> 22 stem faults; two stems (3, 11, 16) have
        fanout 2 -> 12 branch faults. Total 34."""
        assert len(full_fault_universe(c17())) == 34

    def test_no_branch_faults_without_fanout(self):
        net = Netlist("chain")
        net.add_input("a")
        net.add_gate("b", GateType.NOT, ["a"])
        net.add_gate("z", GateType.NOT, ["b"])
        net.set_outputs(["z"])
        universe = full_fault_universe(net)
        assert len(universe) == 6
        assert all(not f.is_branch for f in universe)

    def test_branch_faults_per_fanout(self):
        net = Netlist("fan")
        net.add_input("a")
        net.add_gate("x", GateType.NOT, ["a"])
        net.add_gate("y", GateType.NOT, ["a"])
        net.set_outputs(["x", "y"])
        universe = full_fault_universe(net)
        branches = [f for f in universe if f.is_branch]
        assert len(branches) == 4  # a->x.0 and a->y.0, two values each

    def test_checkpoints_subset_of_universe(self):
        net = c17()
        universe = set(full_fault_universe(net))
        checkpoints = checkpoint_faults(net)
        assert set(checkpoints) <= universe
        assert len(checkpoints) < len(universe)

    def test_checkpoint_coverage_implies_full_coverage(self):
        """A test set detecting all checkpoint faults detects all faults
        (the checkpoint theorem) — validated on c17 exhaustively."""
        net = c17()
        sim = FaultSimulator(net)
        patterns = [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(32)
        ]
        cp = sim.run(patterns, faults=checkpoint_faults(net))
        full = sim.run(patterns, faults=full_fault_universe(net))
        assert cp.coverage == 1.0
        assert full.coverage == 1.0


def and_then_or():
    """AND(a, b), to be extended by an OR that gives ``a`` a second sink."""
    net = Netlist("grow")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.set_outputs(["g"])
    return net


class TestEditedNetlist:
    """Per-netlist memos follow the netlist's revision, not its identity."""

    def test_memos_rebuild_after_edit(self):
        net = and_then_or()
        assert len(full_fault_universe(net)) == 6
        assert len(fault_site_lookup(net)) == 6
        assert len(collapsed_indices(net)[1]) == 6
        net.add_gate("h", GateType.OR, ["a", "g"])
        net.set_outputs(["h"])
        fresh = and_then_or()
        fresh.add_gate("h", GateType.OR, ["a", "g"])
        fresh.set_outputs(["h"])
        universe = full_fault_universe(net)
        assert len(universe) == 12
        assert universe == full_fault_universe(fresh)
        assert fault_site_lookup(net) == fault_site_lookup(fresh)
        assert equivalence_classes(net) == equivalence_classes(fresh)
        for ours, theirs in zip(collapsed_indices(net), collapsed_indices(fresh)):
            assert np.array_equal(ours, theirs)

    def test_universe_is_a_fresh_list_of_shared_faults(self):
        net = c17()
        first, second = full_fault_universe(net), full_fault_universe(net)
        assert first == second and first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert len(full_fault_universe(net)) == 34

    def test_collapse_arrays_are_read_only(self):
        net = c17()
        reps, class_of = collapsed_indices(net)
        assert not reps.flags.writeable and not class_of.flags.writeable
        # Each representative sits in its own class, in class order.
        assert np.array_equal(class_of[reps], np.arange(len(reps)))
        universe = full_fault_universe(net)
        assert sorted(
            (universe[r] for r in reps), key=lambda f: f.sort_key
        ) == collapse_equivalent(net)


class TestCollapse:
    def test_c17_collapse_ratio(self):
        net = c17()
        collapsed = collapse_equivalent(net)
        assert 0.4 < len(collapsed) / 34 < 0.8

    def test_classes_partition_universe(self):
        net = c17()
        classes = equivalence_classes(net)
        members = [f for cls in classes.values() for f in cls]
        assert sorted(members, key=lambda f: f.sort_key) == sorted(
            full_fault_universe(net), key=lambda f: f.sort_key
        )

    def test_representative_in_own_class(self):
        for rep, members in equivalence_classes(c17()).items():
            assert rep in members

    def test_nand_rule(self):
        """NAND: input s-a-0 == output s-a-1."""
        net = Netlist("n")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", GateType.NAND, ["a", "b"])
        net.set_outputs(["z"])
        classes = equivalence_classes(net)
        joint = None
        for rep, members in classes.items():
            if StuckAtFault("z", 1) in members:
                joint = members
        assert StuckAtFault("a", 0) in joint
        assert StuckAtFault("b", 0) in joint

    def test_not_rule(self):
        net = Netlist("n")
        net.add_input("a")
        net.add_gate("z", GateType.NOT, ["a"])
        net.set_outputs(["z"])
        classes = equivalence_classes(net)
        for rep, members in classes.items():
            if StuckAtFault("a", 0) in members:
                assert StuckAtFault("z", 1) in members
            if StuckAtFault("a", 1) in members:
                assert StuckAtFault("z", 0) in members

    def test_xor_no_collapse(self):
        net = Netlist("n")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", GateType.XOR, ["a", "b"])
        net.set_outputs(["z"])
        assert len(collapse_equivalent(net)) == len(full_fault_universe(net))

    @pytest.mark.parametrize(
        "make",
        [
            c17,
            lambda: ripple_carry_adder(4),
            lambda: random_circuit(6, 40, 3, seed=2),
            lambda: random_circuit(5, 30, 4, seed=9),
        ],
    )
    def test_classes_match_object_union_find(self, make):
        """The index-based union-find gives the same classes, in the same
        order, as a union-find over fault objects applying the same
        rules with the same smallest-``sort_key`` representative."""
        net = make()
        universe = full_fault_universe(net)
        parent = {fault: fault for fault in universe}

        def find(fault):
            while parent[fault] != fault:
                fault = parent[fault]
            return fault

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                if rb.sort_key < ra.sort_key:
                    ra, rb = rb, ra
                parent[rb] = ra

        counts = net.fanout_counts()

        def site(gate, pin, value):
            source = gate.inputs[pin]
            if counts[source] > 1:
                return StuckAtFault(source, value, gate=gate.name, pin=pin)
            return StuckAtFault(source, value)

        for gate in net:
            gtype = gate.gate_type
            if gtype in (GateType.BUF, GateType.NOT):
                for v in (0, 1):
                    out_v = 1 - v if gtype is GateType.NOT else v
                    union(site(gate, 0, v), StuckAtFault(gate.name, out_v))
            elif gtype is not GateType.INPUT and gtype.controlling_value is not None:
                out = StuckAtFault(gate.name, gtype.controlled_response)
                for pin in range(len(gate.inputs)):
                    union(site(gate, pin, gtype.controlling_value), out)
        expected: dict = {}
        for fault in universe:
            expected.setdefault(find(fault), []).append(fault)

        classes = equivalence_classes(net)
        assert list(classes.items()) == list(expected.items())
        assert collapse_equivalent(net) == sorted(
            expected, key=lambda f: f.sort_key
        )

    def test_equivalent_faults_detected_by_same_patterns(self):
        """Soundness: members of one class have identical detection sets."""
        net = c17()
        sim = FaultSimulator(net)
        patterns = [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(32)
        ]
        for rep, members in equivalence_classes(net).items():
            if len(members) < 2:
                continue
            signatures = []
            for fault in members:
                detected = tuple(
                    sim.detects(p, fault) for p in patterns
                )
                signatures.append(detected)
            assert all(sig == signatures[0] for sig in signatures), rep


class TestFaultSimulator:
    def test_c17_exhaustive_full_coverage(self):
        net = c17()
        sim = FaultSimulator(net)
        patterns = [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(32)
        ]
        result = sim.run(patterns)
        assert result.coverage == 1.0
        assert result.num_detected == len(result.faults)

    def test_coverage_curve_monotone_and_final(self):
        net = ripple_carry_adder(4)
        sim = FaultSimulator(net)
        patterns = random_patterns(net, 100, seed=1)
        result = sim.run(patterns)
        curve = result.coverage_curve()
        assert len(curve) == 100
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(result.coverage)

    def test_first_detect_is_first(self):
        """first_detect must point at the earliest detecting pattern."""
        net = c17()
        sim = FaultSimulator(net)
        patterns = random_patterns(net, 70, seed=3)  # spans two words
        result = sim.run(patterns)
        for fault, det in zip(result.faults, result.first_detect):
            if det is None:
                for p in patterns:
                    assert not sim.detects(p, fault)
            else:
                assert sim.detects(patterns[det], fault)
                for p in patterns[:det]:
                    assert not sim.detects(p, fault)

    def test_multi_word_blocks(self):
        net = c17()
        sim = FaultSimulator(net)
        patterns = random_patterns(net, 130, seed=5)
        result = sim.run(patterns)
        assert result.num_patterns == 130

    def test_empty_patterns_raise(self):
        with pytest.raises(ValueError):
            FaultSimulator(c17()).run([])

    def test_coverage_of_empty_faults_raises(self):
        from repro.faults.fault_sim import FaultSimResult

        with pytest.raises(ValueError):
            FaultSimResult((), (), 5).coverage

    def test_detected_undetected_partition(self):
        net = c17()
        sim = FaultSimulator(net)
        result = sim.run(random_patterns(net, 3, seed=2))
        assert len(result.detected_faults()) + len(result.undetected_faults()) == len(
            result.faults
        )

    def test_expand_restores_universe(self):
        net = c17()
        sim = FaultSimulator(net)
        classes = equivalence_classes(net)
        reps = sorted(classes, key=lambda f: f.sort_key)
        patterns = random_patterns(net, 40, seed=7)
        collapsed_result = sim.run(patterns, faults=reps)
        expanded = collapsed_result.expand(classes)
        assert len(expanded.faults) == len(full_fault_universe(net))
        # Expanded coverage equals direct full-universe coverage.
        direct = sim.run(patterns, faults=full_fault_universe(net))
        assert expanded.coverage == pytest.approx(direct.coverage)

    def test_expand_missing_rep_raises(self):
        net = c17()
        sim = FaultSimulator(net)
        result = sim.run(random_patterns(net, 4, seed=1))
        with pytest.raises(KeyError):
            result.expand({})

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=10, deadline=None)
    def test_collapsed_expansion_property(self, seed):
        """Collapsed-run + expand == full-universe run, for random circuits."""
        net = random_circuit(6, 20, 3, seed=seed)
        sim = FaultSimulator(net)
        classes = equivalence_classes(net)
        patterns = random_patterns(net, 24, seed=seed + 1)
        collapsed = sim.run(
            patterns, faults=sorted(classes, key=lambda f: f.sort_key)
        )
        direct = sim.run(patterns, faults=full_fault_universe(net))
        assert collapsed.expand(classes).coverage == pytest.approx(direct.coverage)


class TestSampling:
    def test_full_sample_is_exact(self):
        net = c17()
        sim = FaultSimulator(net)
        patterns = random_patterns(net, 20, seed=11)
        universe = full_fault_universe(net)
        sampled = sample_coverage(sim, patterns, sample_size=len(universe), seed=1)
        exact = sim.run(patterns).coverage
        assert sampled.estimate == pytest.approx(exact)
        assert sampled.half_width == pytest.approx(0.0, abs=1e-12)

    def test_partial_sample_within_ci(self):
        net = ripple_carry_adder(6)
        sim = FaultSimulator(net)
        patterns = random_patterns(net, 50, seed=13)
        exact = sim.run(patterns).coverage
        sampled = sample_coverage(sim, patterns, sample_size=80, seed=2)
        # 95% CI: allow a generous 3x half-width margin for this single draw
        assert abs(sampled.estimate - exact) <= max(3 * sampled.half_width, 0.1)

    def test_ci_bounds_clamped(self):
        net = c17()
        sim = FaultSimulator(net)
        patterns = [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(32)
        ]
        sampled = sample_coverage(sim, patterns, sample_size=10, seed=3)
        assert 0.0 <= sampled.low <= sampled.estimate <= sampled.high <= 1.0

    def test_invalid_args(self):
        net = c17()
        sim = FaultSimulator(net)
        patterns = random_patterns(net, 4, seed=1)
        with pytest.raises(ValueError):
            sample_coverage(sim, patterns, sample_size=0)
        with pytest.raises(ValueError):
            sample_coverage(sim, patterns, sample_size=10_000)
        with pytest.raises(ValueError):
            sample_coverage(sim, patterns, sample_size=5, confidence=0.5)
