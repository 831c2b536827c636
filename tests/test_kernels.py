"""Tests for the pluggable kernel backends (`repro.simulator.kernels`).

The contract under test: every backend — NumPy reference, numba JIT
(pure-Python fallback included), CuPy, and the autotuned ``auto`` — is
**bit-identical** to the interpreted batch loop (the oracle in
``batch_oracle.py``) on full value matrices, and to each other on detect
words, fault-simulator results, and wafer-tester records, across worker
counts (which exercises the IR-only pickling path).  numba- and CuPy-specific tests skip cleanly where those
packages are absent; everything else runs everywhere because the JIT
kernel body is plain Python under a ``prange = range`` fallback.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.netlist import Netlist
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.simulator import (
    AutoBatchEngine,
    BatchCompiledCircuit,
    Engine,
    ENGINES,
    GpuBatchEngine,
    JitBatchEngine,
    make_engine,
)
from repro.simulator.kernels import (
    BACKENDS,
    autotune,
    cupy_available,
    numba_available,
    reset_fallback_warnings,
)
from repro.simulator.kernels.jit_exec import eval_rows, get_kernel
from repro.simulator.values import pack_patterns

from batch_oracle import InterpretedBatchCircuit
from compiled_oracle import CompiledEngine

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba is not installed"
)
needs_cupy = pytest.mark.skipif(
    not cupy_available(), reason="CuPy (or a CUDA device) is unavailable"
)


def fanout_net():
    net = Netlist("fan")
    for s in ("a", "b", "c"):
        net.add_input(s)
    net.add_gate("z1", GateType.AND, ["a", "b"])
    net.add_gate("z2", GateType.AND, ["a", "c"])
    net.set_outputs(["z1", "z2"])
    return net


def _words(net, n=64, seed=1):
    return pack_patterns(net.inputs, random_patterns(net, n, seed=seed))


@pytest.fixture(autouse=True)
def _quiet_fallbacks():
    """Kernel-engine fallbacks are expected on boxes without numba/CuPy;
    the one dedicated warning test manages them explicitly."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestLowering:
    def test_schedule_is_topological(self):
        """Every operand column is produced strictly before its gate."""
        net = c17()
        circuit = BatchCompiledCircuit(net)
        program = circuit.program
        produced_at = {int(c): g for g, c in enumerate(program.out_cols)}
        for g in range(program.num_gates):
            for col in program.op_idx[program.op_ptr[g] : program.op_ptr[g + 1]]:
                pos = produced_at.get(int(col))
                assert pos is None or pos < g  # None = primary input

    def test_levels_are_grouped_and_monotone(self):
        net = random_circuit(5, 25, 3, seed=3)
        circuit = BatchCompiledCircuit(net)
        program = circuit.program
        levels = net.levels()
        out_level = [
            levels[name]
            for name in net.topological_order()
            if net.gate(name).gate_type is not GateType.INPUT
        ]
        col_names = {idx: name for name, idx in circuit._index.items()}
        sched_levels = [
            levels[col_names[int(c)]] for c in program.out_cols
        ]
        assert sched_levels == sorted(sched_levels)
        assert sorted(sched_levels) == sorted(out_level)
        # level_ptr brackets exactly the runs of equal level
        for lvl in range(program.num_levels):
            lo, hi = program.level_ptr[lvl], program.level_ptr[lvl + 1]
            assert len(set(sched_levels[lo:hi])) == 1

    def test_gate_pos_maps_outputs_and_pis(self):
        net = fanout_net()
        circuit = BatchCompiledCircuit(net)
        program = circuit.program
        for name in ("a", "b", "c"):
            assert program.gate_pos[circuit._index[name]] == -1
        for name in ("z1", "z2"):
            pos = int(program.gate_pos[circuit._index[name]])
            assert int(program.out_cols[pos]) == circuit._index[name]

    def test_fingerprint_stable_and_discriminating(self):
        net = c17()
        a = BatchCompiledCircuit(net).program.fingerprint
        b = BatchCompiledCircuit(c17()).program.fingerprint
        other = BatchCompiledCircuit(fanout_net()).program.fingerprint
        assert a == b
        assert a != other

    def test_lower_program_empty_circuit(self):
        net = Netlist("wires")
        net.add_input("a")
        net.add_gate("z", GateType.BUF, ["a"])
        net.set_outputs(["z"])
        program = BatchCompiledCircuit(net).program
        assert program.num_gates == 1
        assert program.max_fanin == 1


class TestKernelCircuitIdentity:
    """Full value matrices, not just detect words: any divergence shows
    up at the first differing signal, not post-hoc."""

    @pytest.mark.parametrize("backend", ["numpy", "jit", "auto"])
    def test_single_fault_machines(self, backend):
        for net in (c17(), fanout_net(), random_circuit(5, 20, 3, seed=9)):
            faults = full_fault_universe(net)
            words = _words(net, seed=4)
            ref = InterpretedBatchCircuit(net)
            kern = BatchCompiledCircuit(net, backend=backend)
            machines = [(f,) for f in faults]
            assert np.array_equal(
                ref.run_batch(words, machines),
                kern.run_batch(words, machines),
            ), net.name

    @pytest.mark.parametrize("backend", ["numpy", "jit"])
    def test_multi_fault_machines(self, backend):
        """Multi-fault rows mix PI stems, gate stems, and pin overrides —
        including several faults on one row (last-wins resolution)."""
        net = random_circuit(5, 20, 3, seed=11)
        faults = full_fault_universe(net)
        import random as _random

        rng = _random.Random(0)
        machines = [
            tuple(rng.sample(faults, k)) for k in (1, 2, 3, 5, 8)
            for _ in range(8)
        ]
        words = _words(net, seed=5)
        assert np.array_equal(
            InterpretedBatchCircuit(net).run_batch(words, machines),
            BatchCompiledCircuit(net, backend=backend).run_batch(
                words, machines
            ),
        )

    def test_duplicate_forces_resolve_last_wins(self):
        net = fanout_net()
        words = pack_patterns(net.inputs, [{"a": 0, "b": 1, "c": 1}])
        machine = (StuckAtFault("a", 1), StuckAtFault("a", 0))
        ref = InterpretedBatchCircuit(net).run_batch(words, [machine])
        for backend in ("numpy", "jit"):
            got = BatchCompiledCircuit(net, backend=backend).run_batch(
                words, [machine]
            )
            assert np.array_equal(ref, got), backend

    def test_pin_fault_only_affects_sink_gate(self):
        net = fanout_net()
        words = pack_patterns(net.inputs, [{"a": 0, "b": 1, "c": 1}])
        for backend in ("numpy", "jit"):
            circuit = BatchCompiledCircuit(net, backend=backend)
            values = circuit.run_batch(
                words, [(StuckAtFault("a", 1, gate="z1", pin=0),)]
            )
            out = circuit.output_words(values, row=1)
            assert out["z1"] & 1 == 1, backend
            assert out["z2"] & 1 == 0, backend

    def test_error_paths_match_reference(self):
        circuit = BatchCompiledCircuit(fanout_net())
        words = pack_patterns(["a", "b", "c"], [(0, 0, 0)])
        with pytest.raises(ValueError, match="missing input"):
            circuit.run_batch({"a": 1}, [])
        with pytest.raises(ValueError, match="no signal"):
            circuit.detect_words(words, [(StuckAtFault("nope", 1),)])
        with pytest.raises(ValueError, match="pin"):
            circuit.detect_words(
                words, [(StuckAtFault("a", 1, gate="z1", pin=7),)]
            )

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            BatchCompiledCircuit(c17(), backend="warp")
        assert BACKENDS == ("numpy", "jit", "gpu", "auto")


class TestPurePythonKernelBody:
    """``eval_rows`` itself (no numba) must match the NumPy executor —
    this pins the exact algorithm numba compiles, on every machine."""

    def test_eval_rows_matches_numpy_executor(self):
        net = random_circuit(5, 22, 3, seed=21)
        faults = full_fault_universe(net)
        circuit = BatchCompiledCircuit(net)
        words = _words(net, seed=6)
        machines = [(f,) for f in faults[:40]]
        tables = circuit.machine_tables(machines)
        via_numpy = circuit._execute("numpy", words, tables)
        values = circuit._prefill(words, tables, False)
        from repro.simulator.kernels.jit_exec import execute_jit

        execute_jit(circuit.program, values, tables, kernel=eval_rows)
        assert np.array_equal(via_numpy, values)


class TestEngineRegistry:
    def test_new_names_registered(self):
        net = c17()
        assert isinstance(make_engine(net, "batch-jit"), JitBatchEngine)
        assert isinstance(make_engine(net, "batch-gpu"), GpuBatchEngine)
        assert isinstance(make_engine(net, "auto"), AutoBatchEngine)
        for name in ("batch-jit", "batch-gpu", "auto"):
            assert isinstance(make_engine(net, name), Engine)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="choose from") as exc:
            make_engine(c17(), "batch-fpga")
        for name in sorted(ENGINES):
            assert name in str(exc.value)

    def test_engine_exposes_kernel_circuit(self):
        engine = make_engine(c17(), "batch-jit")
        assert isinstance(engine.batch, BatchCompiledCircuit)
        assert engine.batch.backend == "jit"


class TestFallbackWarning:
    @pytest.mark.skipif(
        numba_available(), reason="warning only fires without numba"
    )
    def test_jit_fallback_warns_exactly_once(self):
        reset_fallback_warnings()
        net = c17()
        faults = full_fault_universe(net)
        words = _words(net)
        engine = make_engine(net, "batch-jit")
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            engine.detect_block(words, 64, faults)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            engine.detect_block(words, 64, faults)  # silent the second time
            make_engine(net, "batch-jit").detect_block(words, 64, faults)

    @pytest.mark.skipif(
        cupy_available(), reason="warning only fires without CuPy"
    )
    def test_gpu_fallback_warns_exactly_once(self):
        reset_fallback_warnings()
        net = c17()
        engine = make_engine(net, "batch-gpu")
        words = _words(net)
        faults = full_fault_universe(net)
        with pytest.warns(RuntimeWarning, match="batch-gpu"):
            engine.detect_block(words, 64, faults)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            engine.detect_block(words, 64, faults)

    def test_auto_is_silent_about_missing_accelerators(self):
        """'auto' means "use what exists" — absence is not a warning."""
        reset_fallback_warnings()
        net = c17()
        engine = make_engine(net, "auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            engine.detect_block(words := _words(net), 64, full_fault_universe(net))


class TestAutotune:
    def test_bucket_is_next_power_of_two(self):
        assert autotune.bucket(1) == 1
        assert autotune.bucket(2) == 2
        assert autotune.bucket(3) == 4
        assert autotune.bucket(900) == 1024
        assert autotune.bucket(1024) == 1024

    def test_auto_decision_cached_per_shape(self):
        autotune.reset()
        net = c17()
        engine = make_engine(net, "auto")
        words = _words(net)
        faults = full_fault_universe(net)
        fingerprint = engine.batch.program.fingerprint
        assert autotune.cached_decision(fingerprint, len(faults) + 1) is None
        engine.detect_block(words, 64, faults)
        decision = autotune.cached_decision(fingerprint, len(faults) + 1)
        assert decision in ("numpy", "jit", "gpu")
        # Same shape class: the cached decision is reused, not re-probed.
        engine.detect_block(words, 64, faults)
        assert (
            autotune.cached_decision(fingerprint, len(faults) + 1) == decision
        )

    def test_backend_blocks_counted(self):
        autotune.reset()
        net = c17()
        faults = full_fault_universe(net)
        words = _words(net)
        make_engine(net, "batch-jit").detect_block(words, 64, faults)
        expected = "jit" if numba_available() else "numpy"
        assert autotune.BACKEND_BLOCKS[expected] == 1

    def test_session_stats_expose_kernel_counters(self):
        autotune.reset()
        session = Session(engine="batch-jit", workers=1)
        try:
            stats = session.stats()
            for key in (
                "kernel_blocks_numpy",
                "kernel_blocks_jit",
                "kernel_blocks_gpu",
            ):
                assert key in stats and stats[key] == 0
            net = c17()
            FaultSimulator(net, engine="batch-jit").run(
                random_patterns(net, 64, seed=2)
            )
            stats = session.stats()
            assert (
                stats["kernel_blocks_numpy"]
                + stats["kernel_blocks_jit"]
                + stats["kernel_blocks_gpu"]
                >= 1
            )
        finally:
            session.close()

    def test_probe_refuses_disagreeing_backends(self):
        autotune.reset()
        ones = np.ones(4, dtype=np.uint64)
        with pytest.raises(RuntimeError, match="disagrees"):
            autotune.calibrate(
                "deadbeef",
                8,
                [
                    ("numpy", lambda: ones),
                    ("jit", lambda: ones * 2),
                ],
            )


class TestPickling:
    """Kernel engines ship only IR + netlist across the pool boundary."""

    def test_round_trip_is_bit_identical(self):
        net = random_circuit(5, 20, 3, seed=31)
        faults = full_fault_universe(net)
        words = _words(net, seed=8)
        engine = make_engine(net, "batch-jit")
        base = engine.detect_block(words, 64, faults)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.detect_block(words, 64, faults) == base

    def test_site_table_not_shipped(self):
        net = c17()
        circuit = BatchCompiledCircuit(net, backend="jit")
        circuit.detect_words(_words(net), [(f,) for f in full_fault_universe(net)])
        assert circuit._site_table is not None  # warm
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._site_table is None
        assert clone.program.fingerprint == circuit.program.fingerprint
        assert np.array_equal(clone.site_table.kind, circuit.site_table.kind)


def _available_engine_names():
    names = ["batch", "batch-jit", "auto"]
    if cupy_available():
        names.append("batch-gpu")
    return names


class TestDifferentialAllBackends:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_random_netlists_bit_identical(self, seed):
        """The tentpole acceptance property: every available backend
        produces bit-identical detect words on random netlists with
        branch faults, at workers=1 and workers=2 (the pool round-trip
        exercises the IR-only pickling path)."""
        autotune.reset()
        net = random_circuit(5, 18, 3, seed=seed)
        universe = full_fault_universe(net)
        assert any(f.is_branch for f in universe)
        patterns = random_patterns(net, 96, seed=seed + 1)
        reference = FaultSimulator(net, engine=CompiledEngine(net)).run(
            patterns, faults=universe
        )
        for name in _available_engine_names():
            for workers in (1, 2):
                result = FaultSimulator(
                    net, engine=name, workers=workers
                ).run(patterns, faults=universe)
                assert (
                    result.first_detect == reference.first_detect
                ), (name, workers)
                assert np.array_equal(
                    result.coverage_curve(), reference.coverage_curve()
                ), (name, workers)


@needs_numba
class TestCompiledKernel:
    def test_compiled_kernel_matches_pure_python(self):
        net = random_circuit(5, 22, 3, seed=41)
        faults = full_fault_universe(net)
        circuit = BatchCompiledCircuit(net, backend="jit")
        words = _words(net, seed=9)
        machines = [(f,) for f in faults]
        tables = circuit.machine_tables(machines)
        from repro.simulator.kernels.jit_exec import execute_jit

        compiled = circuit._prefill(words, tables, False)
        execute_jit(circuit.program, compiled, tables, kernel=get_kernel())
        pure = circuit._prefill(words, tables, False)
        execute_jit(circuit.program, pure, tables, kernel=eval_rows)
        assert np.array_equal(compiled, pure)

    def test_jit_engine_actually_uses_jit(self):
        autotune.reset()
        net = c17()
        make_engine(net, "batch-jit").detect_block(
            _words(net), 64, full_fault_universe(net)
        )
        assert autotune.BACKEND_BLOCKS["jit"] == 1


@needs_cupy
class TestGpuKernel:
    def test_gpu_matches_numpy(self):
        net = random_circuit(5, 22, 3, seed=51)
        faults = full_fault_universe(net)
        circuit = BatchCompiledCircuit(net, backend="gpu")
        words = _words(net, seed=10)
        machines = [(f,) for f in faults]
        ref = InterpretedBatchCircuit(net).run_batch(words, machines)
        assert np.array_equal(ref, circuit.run_batch(words, machines))
