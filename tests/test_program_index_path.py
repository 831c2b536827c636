"""The index-native program build must match the object reference exactly.

``TestProgram.build`` runs the fault simulator on universe indices — the
memoised collapse representatives, or every index — and expands the
collapsed first-detects to the full universe with one gather.  The
reference is the object path it replaced: ``equivalence_classes`` →
sorted representative objects → ``FaultSimulator.run`` on the objects →
``FaultSimResult.expand`` through the class dict.  Coverage curves must
be equal bit for bit on every engine, collapsed or not, serially and
through a pool; and a warm build must construct no fault object at all.
The ``compiled`` and ``event`` cases run the references on the oracle
engines of ``tests/compiled_oracle.py`` and ``tests/event_oracle.py``,
and diff the product's batch sessions against them.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import array_multiplier, random_circuit, synthetic_chip
from repro.experiments import config
from repro.faults.collapse import collapsed_indices, equivalence_classes
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.tester.program import TestProgram

from compiled_oracle import CompiledEngine
from event_oracle import EventEngine

ORACLES = {"compiled": CompiledEngine, "event": EventEngine}
NETLISTS = {
    "canonical": config.make_chip,
    "mult4": lambda: array_multiplier(4),
    "syn1": lambda: synthetic_chip(1, seed=5),
}
# The fault-at-a-time engines are seconds-to-minutes slow on chip-sized
# netlists, so they run on the multiplier only (``event``, the scalar
# one, with a short sequence).  70 patterns span two 64-pattern blocks.
CASES = [
    ("canonical", "batch", 70),
    ("mult4", "batch", 70),
    ("syn1", "batch", 70),
    ("mult4", "compiled", 70),
    ("mult4", "event", 3),
]
PATTERN_SEED = 4


@functools.lru_cache(maxsize=None)
def case_reference(name, engine, num_patterns, collapse):
    """The object reference of one ``CASES`` entry, computed once."""
    netlist = NETLISTS[name]()
    patterns = random_patterns(netlist, num_patterns, seed=PATTERN_SEED)
    return object_reference(netlist, patterns, engine, collapse)


def engine_for(netlist, name):
    """An engine name the product knows, or an oracle instance for ``netlist``."""
    return ORACLES[name](netlist) if name in ORACLES else name


def object_reference(netlist, patterns, engine, collapse):
    """``(curve, universe size)`` the object way: classes, objects, expand."""
    simulator = FaultSimulator(netlist, engine=engine_for(netlist, engine))
    if collapse:
        classes = equivalence_classes(netlist)
        reps = sorted(classes, key=lambda f: f.sort_key)
        result = simulator.run(patterns, faults=reps).expand(classes)
    else:
        result = simulator.run(patterns, faults=full_fault_universe(netlist))
    return result.coverage_curve(), len(result.faults)


def assert_same_program(program, curve, size):
    assert program.universe_size == size
    assert program.coverage_curve.dtype == np.float64
    np.testing.assert_array_equal(program.coverage_curve, curve)
    assert program.coverage_curve.tobytes() == curve.tobytes()


@pytest.fixture(scope="module")
def netlists():
    return {name: make() for name, make in NETLISTS.items()}


@pytest.fixture(scope="module")
def sessions():
    """One session per (engine, workers), opened on first use."""
    opened: dict[tuple[str, int], Session] = {}

    def get(engine: str, workers: int) -> Session:
        if (engine, workers) not in opened:
            opened[engine, workers] = Session(engine=engine, workers=workers)
        return opened[engine, workers]

    yield get
    for session in opened.values():
        session.close()


@pytest.mark.parametrize("collapse", [True, False], ids=["collapsed", "full"])
@pytest.mark.parametrize(
    "name,engine,num_patterns", CASES, ids=[f"{n}-{e}" for n, e, _ in CASES]
)
class TestAgainstObjectReference:
    def test_direct_build(self, netlists, name, engine, num_patterns, collapse):
        netlist = netlists[name]
        patterns = random_patterns(netlist, num_patterns, seed=PATTERN_SEED)
        program = TestProgram.build(
            netlist, patterns, collapse=collapse, engine=engine_for(netlist, engine)
        )
        assert_same_program(
            program, *case_reference(name, engine, num_patterns, collapse)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_session_build(
        self, netlists, sessions, name, engine, num_patterns, collapse, workers
    ):
        netlist = netlists[name]
        patterns = random_patterns(netlist, num_patterns, seed=PATTERN_SEED)
        # Sessions run product engines only; an oracle case diffs the
        # batch session against the oracle's reference.
        session_engine = "batch" if engine in ORACLES else engine
        program = sessions(session_engine, workers).build_program(
            netlist, patterns, collapse=collapse
        )
        assert_same_program(
            program, *case_reference(name, engine, num_patterns, collapse)
        )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_gates=st.integers(min_value=1, max_value=40),
    num_patterns=st.integers(min_value=1, max_value=140),
    engine=st.sampled_from(["batch", "compiled"]),
    collapse=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_random_circuits_match_object_reference(
    seed, num_gates, num_patterns, engine, collapse
):
    netlist = random_circuit(5, num_gates, 3, seed=seed)
    patterns = random_patterns(netlist, num_patterns, seed=seed + 1)
    program = TestProgram.build(netlist, patterns, collapse=collapse)
    assert_same_program(
        program, *object_reference(netlist, patterns, engine, collapse)
    )


class TestIndexRun:
    """``FaultSimulator.run`` on universe indices == the run on objects."""

    @pytest.mark.parametrize(
        "engine,num_patterns", [("batch", 70), ("compiled", 70), ("event", 5)]
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_result_as_objects(self, engine, num_patterns, workers):
        netlist = array_multiplier(3)
        patterns = random_patterns(netlist, num_patterns, seed=1)
        universe = full_fault_universe(netlist)
        reps, _ = collapsed_indices(netlist)
        simulator = FaultSimulator(
            netlist, engine=engine_for(netlist, engine), workers=workers
        )
        by_index = simulator.run(patterns, faults=reps)
        by_object = simulator.run(patterns, faults=[universe[i] for i in reps])
        assert by_index == by_object
        assert by_index.faults == by_object.faults
        assert by_index.first_detect == by_object.first_detect
        assert by_index.detects.dtype == np.int64

    def test_object_shards_match_index_shards(self):
        """A fault outside the universe sends the whole run over the pipe
        as fault objects; the universe members' first detects equal the
        index-shard run's."""
        netlist = array_multiplier(3)
        patterns = random_patterns(netlist, 70, seed=2)
        universe = full_fault_universe(netlist)
        reps, _ = collapsed_indices(netlist)
        simulator = FaultSimulator(netlist, workers=2)
        by_index = simulator.run(patterns, faults=reps)
        signal, (gate, pin) = next(
            (name, sinks[0])
            for name in netlist.signals
            if len(sinks := netlist.fanout(name)) == 1
        )
        adhoc = StuckAtFault(signal, 1, gate=gate, pin=pin)
        assert adhoc not in universe
        by_object = simulator.run(
            patterns, faults=[universe[i] for i in reps] + [adhoc]
        )
        assert by_object.first_detect[:-1] == by_index.first_detect

    def test_default_universe_is_index_run(self):
        netlist = array_multiplier(3)
        patterns = random_patterns(netlist, 20, seed=3)
        simulator = FaultSimulator(netlist)
        default = simulator.run(patterns)
        assert default.faults == tuple(full_fault_universe(netlist))
        assert default == simulator.run(patterns, faults=full_fault_universe(netlist))

    @pytest.mark.parametrize(
        "faults",
        [
            np.zeros((2, 2), dtype=np.int64),
            np.array([0.0, 1.0]),
            np.array([-1]),
            np.array([10**6]),
        ],
        ids=["2d", "float", "negative", "past-end"],
    )
    def test_bad_indices_rejected(self, faults):
        netlist = array_multiplier(3)
        with pytest.raises(ValueError):
            FaultSimulator(netlist).run(random_patterns(netlist, 4, seed=0), faults=faults)


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_build_constructs_no_fault_objects(monkeypatch, workers):
    calls = []
    original = StuckAtFault.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    with Session(workers=workers) as session:
        monkeypatch.setattr(StuckAtFault, "__post_init__", counting)
        netlist = array_multiplier(4)
        session.build_program(netlist, random_patterns(netlist, 8, seed=0))
        # The counter sees the cold build's one universe enumeration.
        assert len(calls) == len(full_fault_universe(netlist)) > 0

        patterns = random_patterns(netlist, 100, seed=1)
        calls.clear()
        for collapse in (True, False):
            session.build_program(netlist, patterns, collapse=collapse)
        assert calls == []
