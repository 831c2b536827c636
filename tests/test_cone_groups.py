"""Cone-restricted row groups in the NumPy executor.

The NumPy backend sorts a block's machine rows, cuts them into groups of
``numpy_exec.GROUP_ROWS`` and evaluates each group on the union of its
rows' fanout cones only.  The contract under test: the value matrices
and detect words stay bit-identical to the interpreted dense batch loop
(``batch_oracle.py``) whatever the grouping.  The width is patched down
to a few rows so that small random circuits cross group boundaries;
``batch-jit`` (its numba kernel where numba is installed) runs the same
sweep.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import array_multiplier, random_circuit, synthetic_chip
from repro.faults.collapse import collapsed_indices
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.simulator import BatchCompiledCircuit
from repro.simulator.kernels import autotune, numpy_exec
from repro.simulator.values import first_detecting_bits, pack_patterns

from batch_oracle import InterpretedBatchCircuit

SMALL_GROUP = 7
BACKENDS = ("numpy", "jit")


@pytest.fixture(autouse=True)
def _quiet_fallbacks():
    """``batch-jit`` falls back to NumPy, with a warning, without numba."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _assert_matches_oracle(net, words, machines, num_patterns):
    oracle = InterpretedBatchCircuit(net)
    expected = oracle.run_batch(words, machines)
    expected_detect = oracle.detect_words(words, machines)
    for backend in BACKENDS:
        circuit = BatchCompiledCircuit(net, backend=backend)
        assert np.array_equal(circuit.run_batch(words, machines), expected), backend
        detect = circuit.detect_words(words, machines)
        assert np.array_equal(detect, expected_detect), backend
        assert np.array_equal(
            first_detecting_bits(detect, num_patterns),
            first_detecting_bits(expected_detect, num_patterns),
        ), backend


@st.composite
def _blocks(draw):
    """A random circuit, maybe with a primary input that is also an
    output, and one block of multi-fault machines over its universe."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    net = random_circuit(
        draw(st.integers(min_value=2, max_value=6)),
        draw(st.integers(min_value=1, max_value=30)),
        1,
        seed=seed,
    )
    if draw(st.booleans()):
        net.set_outputs([*net.outputs, net.inputs[0]])
    universe = full_fault_universe(net)
    # Rows = machines + 1 (the good row): one short of a group, exactly
    # one group, one over, and several groups with a ragged tail.
    num_machines = draw(
        st.sampled_from(
            [SMALL_GROUP - 2, SMALL_GROUP - 1, SMALL_GROUP, 3 * SMALL_GROUP + 2]
        )
    )
    # Empty machines carry no force; sampling with replacement repeats
    # sites, and both polarities of one site make a double force.
    machines = draw(
        st.lists(
            st.lists(st.sampled_from(universe), max_size=4).map(tuple),
            min_size=num_machines,
            max_size=num_machines,
        )
    )
    num_patterns = draw(st.integers(min_value=1, max_value=64))
    words = pack_patterns(
        net.inputs, random_patterns(net, num_patterns, seed=seed + 1)
    )
    return net, words, machines, num_patterns


class TestConeGroupSweep:
    @given(_blocks())
    @settings(max_examples=60, deadline=None)
    def test_small_groups_match_oracle(self, block):
        net, words, machines, num_patterns = block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numpy_exec, "GROUP_ROWS", SMALL_GROUP)
            _assert_matches_oracle(net, words, machines, num_patterns)

    @given(_blocks())
    @settings(max_examples=15, deadline=None)
    def test_default_width_matches_oracle(self, block):
        _assert_matches_oracle(*block)


class TestEdgeRows:
    def _net(self):
        net = random_circuit(4, 16, 2, seed=5)
        net.set_outputs([*net.outputs, net.inputs[1]])
        return net

    def test_pi_fault_on_an_output_input(self):
        net = self._net()
        pi = net.inputs[1]
        machines = [(StuckAtFault(pi, 1),), (StuckAtFault(pi, 0),)] * 6
        words = pack_patterns(net.inputs, random_patterns(net, 64, seed=2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numpy_exec, "GROUP_ROWS", SMALL_GROUP)
            _assert_matches_oracle(net, words, machines, 64)

    def test_double_forced_site_last_wins(self):
        net = self._net()
        universe = full_fault_universe(net)
        machines = []
        for fault in universe[: 3 * SMALL_GROUP]:
            flipped = StuckAtFault(
                fault.signal, 1 - fault.value, gate=fault.gate, pin=fault.pin
            )
            machines.append((fault, flipped, fault))
            machines.append((fault, flipped))
        words = pack_patterns(net.inputs, random_patterns(net, 40, seed=3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numpy_exec, "GROUP_ROWS", SMALL_GROUP)
            _assert_matches_oracle(net, words, machines, 40)

    def test_machines_without_forces(self):
        net = self._net()
        words = pack_patterns(net.inputs, random_patterns(net, 64, seed=4))
        for num_machines in (0, SMALL_GROUP, 3 * SMALL_GROUP):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(numpy_exec, "GROUP_ROWS", SMALL_GROUP)
                _assert_matches_oracle(net, words, [()] * num_machines, 64)


class TestConeTable:
    def test_cones_match_netlist_fanout(self):
        """The cones derived from the lowered program equal the
        transitive fanout walked on the netlist."""
        net = random_circuit(6, 40, 3, seed=8)
        circuit = BatchCompiledCircuit(net)
        program = circuit.program
        names = {col: name for name, col in circuit._index.items()}
        position = {int(col): g for g, col in enumerate(program.out_cols)}
        bits = np.unpackbits(
            circuit.cones.bits, axis=1, count=program.num_gates, bitorder="little"
        )
        for col in range(program.num_signals):
            expected = set()
            if col in position:
                expected.add(position[col])
            stack = [names[col]]
            while stack:
                for sink, _ in net.fanout(stack.pop()):
                    g = position[circuit._index[sink]]
                    if g not in expected:
                        expected.add(g)
                        stack.append(sink)
            assert set(np.flatnonzero(bits[col]).tolist()) == expected, names[col]

    def test_cones_not_shipped(self):
        net = random_circuit(5, 20, 2, seed=6)
        circuit = BatchCompiledCircuit(net)
        circuit.detect_words(
            pack_patterns(net.inputs, random_patterns(net, 8, seed=1)),
            [(f,) for f in full_fault_universe(net)],
        )
        assert circuit._cones is not None  # warm
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._cones is None
        assert np.array_equal(clone.cones.bits, circuit.cones.bits)


class TestDeepNetlists:
    """First-block detect words of the collapsed set on the deep
    netlists, several groups at the default width, against the dense
    oracle."""

    @pytest.mark.parametrize(
        "net",
        [synthetic_chip(scale=4, seed=11, name="syn4"), array_multiplier(16)],
        ids=["syn4", "mult16"],
    )
    def test_first_block_detect_words(self, net):
        reps, _ = collapsed_indices(net)
        assert len(reps) + 1 > 2 * numpy_exec.GROUP_ROWS
        universe = full_fault_universe(net)
        words = pack_patterns(net.inputs, random_patterns(net, 64, seed=0))
        circuit = BatchCompiledCircuit(net)
        got = circuit.detect_words(words, circuit.single_fault_tables(reps))
        expected = InterpretedBatchCircuit(net).detect_words(
            words, [(universe[i],) for i in reps.tolist()]
        )
        assert np.array_equal(got, expected)


class TestBlockCounters:
    def test_one_numpy_block_per_call(self):
        """A block counts once however many row groups it is cut into."""
        net = random_circuit(5, 20, 2, seed=12)
        circuit = BatchCompiledCircuit(net)
        words = pack_patterns(net.inputs, random_patterns(net, 64, seed=5))
        machines = [(f,) for f in full_fault_universe(net)]
        assert len(machines) > 3 * SMALL_GROUP
        autotune.reset()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numpy_exec, "GROUP_ROWS", SMALL_GROUP)
            circuit.detect_words(words, machines)
            circuit.run_batch(words, machines)
        assert autotune.BACKEND_BLOCKS["numpy"] == 2

    def test_session_counts_one_block_per_run_batch(self):
        net = random_circuit(5, 20, 2, seed=13)
        patterns = random_patterns(net, 3 * 64, seed=6)
        calls = []
        run_batch = BatchCompiledCircuit.run_batch

        def counted(self, *args, **kwargs):
            calls.append(1)
            return run_batch(self, *args, **kwargs)

        with Session(workers=1) as session, pytest.MonkeyPatch.context() as patch:
            patch.setattr(numpy_exec, "GROUP_ROWS", SMALL_GROUP)
            patch.setattr(BatchCompiledCircuit, "run_batch", counted)
            before = session.stats()["kernel_blocks_numpy"]
            session.build_program(net, patterns)
            blocks = session.stats()["kernel_blocks_numpy"] - before
        assert calls and blocks == len(calls)
