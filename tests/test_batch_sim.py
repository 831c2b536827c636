"""Tests for the fault-parallel batched engine and engine selection.

The centerpiece is the differential property test: the kernel engines
and the ``compiled`` and ``event`` oracles (``tests/compiled_oracle.py``,
``tests/event_oracle.py``, handed to the fault simulator as engine
instances) must produce identical ``first_detect`` vectors and coverage
curves on randomly generated circuits, including fanout-branch pin
faults and multi-block (>64 pattern) runs.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.podem import PodemGenerator
from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.netlist import Netlist
from repro.experiments import config
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.manufacturing.lot import fabricate_lot
from repro.manufacturing.wafer import FabricatedChip
from repro.simulator import (
    ENGINES,
    BatchCompiledCircuit,
    BatchEngine,
    Engine,
    make_engine,
)
from repro.simulator.kernels import cupy_available
from repro.simulator.values import pack_patterns
from repro.tester.program import TestProgram
from repro.tester.tester import WaferTester

from batch_oracle import InterpretedBatchCircuit
from compiled_oracle import CompiledCircuit, CompiledEngine, injection_args, lot_records
from event_oracle import EventEngine, EventSimulator

# The reference engines, by the names the differential suites use.
ORACLES = {"compiled": CompiledEngine, "event": EventEngine}


def engine_for(net, name):
    """An engine name the product knows, or an oracle instance for ``net``."""
    return ORACLES[name](net) if name in ORACLES else name


def fanout_net():
    """a drives both z1 and z2 — the minimal branch-fault circuit."""
    net = Netlist("fan")
    for s in ("a", "b", "c"):
        net.add_input(s)
    net.add_gate("z1", GateType.AND, ["a", "b"])
    net.add_gate("z2", GateType.AND, ["a", "c"])
    net.set_outputs(["z1", "z2"])
    return net


class TestBatchCompiledCircuit:
    def test_good_row_matches_compiled(self):
        net = c17()
        batch = BatchCompiledCircuit(net)
        compiled = CompiledCircuit(net)
        patterns = random_patterns(net, 64, seed=1)
        words = pack_patterns(net.inputs, patterns)
        values = batch.run_batch(words, [])
        assert batch.output_words(values, row=0) == compiled.simulate(words)

    def test_each_faulty_row_matches_compiled(self):
        net = c17()
        batch = BatchCompiledCircuit(net)
        compiled = CompiledCircuit(net)
        faults = full_fault_universe(net)
        patterns = random_patterns(net, 64, seed=2)
        words = pack_patterns(net.inputs, patterns)
        values = batch.run_batch(words, [(f,) for f in faults])
        for row, fault in enumerate(faults, start=1):
            expected = compiled.simulate(words, **injection_args(fault))
            assert batch.output_words(values, row=row) == expected, fault

    def test_stem_fault_on_primary_input(self):
        net = fanout_net()
        batch = BatchCompiledCircuit(net)
        words = pack_patterns(net.inputs, [{"a": 0, "b": 1, "c": 1}])
        det = batch.detect_words(words, [(StuckAtFault("a", 1),)])
        assert int(det[0]) & 1 == 1  # both outputs flip 0 -> 1

    def test_pin_fault_only_affects_sink_gate(self):
        net = fanout_net()
        batch = BatchCompiledCircuit(net)
        words = pack_patterns(net.inputs, [{"a": 0, "b": 1, "c": 1}])
        values = batch.run_batch(
            words, [(StuckAtFault("a", 1, gate="z1", pin=0),)]
        )
        out = batch.output_words(values, row=1)
        assert out["z1"] & 1 == 1  # z1 sees the stuck-1 pin
        assert out["z2"] & 1 == 0  # z2 still sees the stem value 0

    def test_multi_fault_machine_matches_compiled(self):
        """A whole fault set in one row == CompiledCircuit's plural API."""
        net = c17()
        batch = BatchCompiledCircuit(net)
        compiled = CompiledCircuit(net)
        machine = (
            StuckAtFault("10", 1),
            StuckAtFault("3", 0, gate="11", pin=0),
            StuckAtFault("1", 0),
        )
        patterns = random_patterns(net, 64, seed=3)
        words = pack_patterns(net.inputs, patterns)
        values = batch.run_batch(words, [machine])
        expected = compiled.simulate(
            words,
            stuck_signals=[("10", 1), ("1", 0)],
            stuck_pins=[("11", 0, 0)],
        )
        assert batch.output_words(values, row=1) == expected

    def test_missing_input_raises(self):
        batch = BatchCompiledCircuit(fanout_net())
        with pytest.raises(ValueError, match="missing input"):
            batch.run_batch({"a": 1}, [])

    def test_unknown_signal_raises(self):
        batch = BatchCompiledCircuit(fanout_net())
        words = pack_patterns(["a", "b", "c"], [(0, 0, 0)])
        with pytest.raises(ValueError, match="no signal"):
            batch.detect_words(words, [(StuckAtFault("nope", 1),)])

    def test_bad_pin_raises(self):
        batch = BatchCompiledCircuit(fanout_net())
        words = pack_patterns(["a", "b", "c"], [(0, 0, 0)])
        with pytest.raises(ValueError, match="pin"):
            batch.detect_words(
                words, [(StuckAtFault("a", 1, gate="z1", pin=7),)]
            )

    def test_empty_batch(self):
        batch = BatchCompiledCircuit(c17())
        words = pack_patterns(c17().inputs, [(0, 0, 0, 0, 0)])
        assert batch.detect_words(words, []).shape == (0,)


class TestInterpretedOracle:
    """Full value matrices against the interpreted per-gate loop: any
    divergence shows at the first differing signal of any row."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_value_matrix_matches_oracle(self, seed):
        import random as _random

        net = random_circuit(5, 20, 3, seed=seed)
        faults = full_fault_universe(net)
        rng = _random.Random(seed)
        machines = [(f,) for f in faults] + [
            tuple(rng.sample(faults, k)) for k in (2, 3, 5) for _ in range(6)
        ]
        words = pack_patterns(net.inputs, random_patterns(net, 64, seed=seed))
        assert np.array_equal(
            InterpretedBatchCircuit(net).run_batch(words, machines),
            BatchCompiledCircuit(net).run_batch(words, machines),
        )


class TestEngineSelection:
    def test_factory_names(self):
        net = c17()
        for name in ENGINES:
            engine = make_engine(net, name)
            assert isinstance(engine, BatchEngine) and engine.name == name
        for oracle in ORACLES.values():
            engine = oracle(net)
            assert make_engine(net, engine) is engine

    def test_engine_names(self):
        """One simulator in the product: only the kernel backends."""
        assert set(ENGINES) == {"batch", "batch-jit", "batch-gpu", "auto"}
        for name in ORACLES:
            with pytest.raises(ValueError, match="unknown engine"):
                make_engine(c17(), name)

    def test_factory_unknown_name(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine(c17(), "warp")

    def test_factory_bad_type(self):
        with pytest.raises(TypeError):
            make_engine(c17(), 42)

    def test_engines_satisfy_protocol(self):
        net = c17()
        for name in ENGINES:
            assert isinstance(make_engine(net, name), Engine)
        for oracle in ORACLES.values():
            assert isinstance(oracle(net), Engine)

    def test_instance_passes_through(self):
        net = c17()
        engine = BatchEngine(net)
        assert make_engine(net, engine) is engine
        assert FaultSimulator(net, engine=engine).engine is engine

    def test_simulator_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            FaultSimulator(c17(), engine="warp")

    def test_instance_for_other_netlist_rejected(self):
        """A shared engine must belong to the simulator's own netlist —
        detect words from a different circuit would silently corrupt
        coverage."""
        with pytest.raises(ValueError, match="different netlist|compiled for"):
            FaultSimulator(c17(), engine=BatchEngine(fanout_net()))


# The oracles and the kernel-backed engines run the differential suite
# unconditionally:
# without numba batch-jit runs the NumPy kernel executor like batch, with
# numba the compiled kernel; auto calibrates between them.  batch-gpu
# only differs from that fallback where a device exists.
_DIFFERENTIAL_ENGINES = ("batch", "compiled", "event", "batch-jit", "auto") + (
    ("batch-gpu",) if cupy_available() else ()
)


def _run_all_engines(net, patterns, faults=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # jit/gpu fallbacks
        return {
            name: FaultSimulator(net, engine=engine_for(net, name)).run(
                patterns, faults=faults
            )
            for name in _DIFFERENTIAL_ENGINES
        }


class TestDifferentialEngines:
    """All engines must be bit-identical, block boundaries included."""

    def test_c17_exhaustive(self):
        net = c17()
        patterns = [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(32)
        ]
        results = _run_all_engines(net, patterns)
        for name in _DIFFERENTIAL_ENGINES[1:]:
            assert (
                results["batch"].first_detect == results[name].first_detect
            ), name
        assert results["batch"].coverage == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_random_circuits_multi_block(self, seed):
        """96 patterns (two blocks) over the full universe — which always
        contains fanout-branch pin faults for these generator settings."""
        net = random_circuit(5, 18, 3, seed=seed)
        universe = full_fault_universe(net)
        assert any(f.is_branch for f in universe)  # branch sites exercised
        patterns = random_patterns(net, 96, seed=seed + 1)
        results = _run_all_engines(net, patterns, faults=universe)
        reference = results["compiled"]
        for name in _DIFFERENTIAL_ENGINES:
            if name == "compiled":
                continue
            result = results[name]
            assert result.first_detect == reference.first_detect, name
            assert result.num_patterns == reference.num_patterns
            assert np.array_equal(
                result.coverage_curve(), reference.coverage_curve()
            ), name

    def test_canonical_chip_batch_vs_compiled(self):
        """The acceptance workload: bit-identical FaultSimResult on the
        canonical chip (event is excluded here — too slow for a unit
        test at this size, and covered on the random circuits above)."""
        chip = config.make_chip()
        patterns = random_patterns(chip, 96, seed=7)
        batch = FaultSimulator(chip, engine="batch").run(patterns)
        compiled = FaultSimulator(chip, engine=CompiledEngine(chip)).run(patterns)
        assert batch.faults == compiled.faults
        assert batch.first_detect == compiled.first_detect
        assert np.array_equal(batch.coverage_curve(), compiled.coverage_curve())


class TestArrayPatterns:
    """FaultSimulator.run accepts array-like pattern blocks (the old
    ``if not patterns:`` guard raised 'truth value is ambiguous')."""

    def test_numpy_pattern_matrix(self):
        net = c17()
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, 2, size=(70, len(net.inputs)))
        as_list = [tuple(int(v) for v in row) for row in matrix]
        from_array = FaultSimulator(net).run(matrix)
        from_list = FaultSimulator(net).run(as_list)
        assert from_array.first_detect == from_list.first_detect

    def test_empty_numpy_patterns_raise(self):
        with pytest.raises(ValueError, match="at least one pattern"):
            FaultSimulator(c17()).run(np.zeros((0, 5), dtype=np.int64))


class TestPackPatternsUnknownKeys:
    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown inputs"):
            pack_patterns(["a", "b"], [{"a": 1, "b": 0, "typo": 1}])

    def test_known_keys_still_pack(self):
        words = pack_patterns(["a", "b"], [{"a": 1, "b": 0}])
        assert words == {"a": 1, "b": 0}


class TestEventSimulatorUnknownInput:
    def test_unknown_name_is_value_error(self):
        sim = EventSimulator(c17())
        with pytest.raises(ValueError, match="unknown primary input"):
            sim.apply({"nope": 1})


class TestEventEngineSiteValidation:
    """The scalar reference engine must fail as loudly as the fast paths
    on bogus fault sites — not silently report them undetected."""

    def test_unknown_stem_raises(self):
        net = c17()
        sim = FaultSimulator(net, engine=EventEngine(net))
        with pytest.raises(ValueError, match="no signal"):
            sim.run([(0, 0, 0, 0, 0)], faults=[StuckAtFault("typo", 1)])

    def test_unknown_gate_raises(self):
        net = c17()
        sim = FaultSimulator(net, engine=EventEngine(net))
        with pytest.raises(ValueError, match="no gate"):
            sim.run(
                [(0, 0, 0, 0, 0)],
                faults=[StuckAtFault("10", 1, gate="typo", pin=0)],
            )

    def test_bad_pin_raises(self):
        net = c17()
        sim = FaultSimulator(net, engine=EventEngine(net))
        with pytest.raises(ValueError, match="pin"):
            sim.run(
                [(0, 0, 0, 0, 0)],
                faults=[StuckAtFault("10", 1, gate="22", pin=9)],
            )


class TestBatchedWaferTester:
    def test_lot_records_identical_to_serial(self):
        chip = config.make_chip()
        program = config.make_program(chip, num_patterns=32)
        lot = fabricate_lot(chip, config.make_recipe(), 60, seed=5)
        batched = WaferTester(program, engine="batch").test_lot(lot.chips)
        serial = lot_records(program, lot.chips)
        assert batched == serial

    def test_unknown_engine_raises(self):
        program = config.make_program(num_patterns=4)
        with pytest.raises(ValueError, match="tester engine"):
            WaferTester(program, engine="warp")

    def test_unknown_engine_lists_kernel_engines(self):
        program = config.make_program(num_patterns=4)
        for name in ORACLES:
            with pytest.raises(ValueError, match="'batch-jit'"):
                WaferTester(program, engine=name)


class TestSingleChecksAgainstOracles:
    """``FaultSimulator.detects`` (a one-pattern, one-fault run) and
    ``WaferTester.test_chip`` (a one-chip lot) against the oracles on
    exhaustive c17; an ad-hoc branch fault outside the universe is
    rejected."""

    # Signal "1" has one sink, so its branch is not a universe site.
    ADHOC = StuckAtFault("1", 1, gate="10", pin=0)

    @pytest.fixture(scope="class")
    def net(self):
        return c17()

    @pytest.fixture(scope="class")
    def patterns(self, net):
        return [
            {n: (i >> k) & 1 for k, n in enumerate(net.inputs)}
            for i in range(32)
        ]

    def test_adhoc_fault_is_outside_universe(self, net):
        assert self.ADHOC not in full_fault_universe(net)

    def test_detects_matches_oracle(self, net, patterns):
        simulator = FaultSimulator(net)
        oracle = CompiledEngine(net)
        for fault in full_fault_universe(net):
            for pattern in patterns:
                words = pack_patterns(net.inputs, [pattern])
                (word,) = oracle.detect_block(words, 1, [fault])
                assert simulator.detects(pattern, fault) == bool(word & 1), fault
        with pytest.raises(ValueError, match=re.escape(str(self.ADHOC))):
            simulator.detects(patterns[0], self.ADHOC)

    def test_test_chip_matches_oracle(self, net, patterns):
        program = TestProgram.build(net, patterns)
        universe = full_fault_universe(net)
        machines = [
            (),
            *((fault,) for fault in universe),
            (universe[0], universe[9], universe[20]),
        ]
        chips = [FabricatedChip(k, (), faults) for k, faults in enumerate(machines)]
        tester = WaferTester(program)
        records = [tester.test_chip(chip) for chip in chips]
        assert records == lot_records(program, chips)
        assert records[0].passed and records[0].is_good
        assert all(not r.passed for r in records[1 : len(universe) + 1])
        for faults in [(self.ADHOC,), (self.ADHOC, universe[5])]:
            with pytest.raises(ValueError, match=re.escape(str(self.ADHOC))):
                tester.test_chip(FabricatedChip(0, (), faults))


class TestPodemFaultDrop:
    def test_dropping_preserves_detected_set_with_fewer_patterns(self):
        net = random_circuit(6, 30, 3, seed=17)
        faults = full_fault_universe(net)
        gen = PodemGenerator(net, seed=1)
        plain_patterns, plain_report = gen.generate_suite(faults)
        drop_patterns, drop_report = PodemGenerator(net, seed=1).generate_suite(
            faults, fault_drop=True
        )
        assert len(drop_patterns) <= len(plain_patterns)
        assert {str(f) for f in drop_report["detected"]} == {
            str(f) for f in plain_report["detected"]
        }
        assert drop_report["untestable"] == plain_report["untestable"]
        # The dropped suite still detects everything the plain one does.
        sim = FaultSimulator(net)
        covered = sim.run(drop_patterns, faults=plain_report["detected"])
        assert covered.coverage == 1.0
