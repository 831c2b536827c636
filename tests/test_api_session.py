"""Session semantics: caches, lifecycle, shims, and bit-identity.

The :class:`repro.api.Session` contract has four load-bearing claims:

1. **Compile-once** — the same netlist through one session compiles one
   engine, and a cached tester context ships to a persistent pool once,
   no matter how many lots replay it.
2. **Bit-identity** — serial session, persistent-pool session, and the
   legacy per-call-pool kwargs all produce byte-for-byte equal lots,
   coverage curves, tester records, and experiment reports.
3. **Lifecycle** — sessions and executors are context managers; use
   after ``close()`` raises instead of limping.
4. **Deprecation shims** — legacy ``engine=`` / ``workers=`` kwargs
   still work but emit :class:`DeprecationWarning`.
"""

import warnings

import numpy as np
import pytest

from repro.api import Session, resolve_session
from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17
from repro.circuit.netlist import Netlist
from repro.experiments import config, fig5
from repro.experiments.runner import run_experiment
from repro.manufacturing.lot import fabricate_lot
from repro.manufacturing.process import ProcessRecipe
from repro.runtime import ParallelExecutor, new_context_token
from repro.tester.program import TestProgram as Program
from repro.tester.tester import WaferTester

from compiled_oracle import CompiledEngine, lot_records


@pytest.fixture(scope="module")
def chip():
    return c17()


@pytest.fixture(scope="module")
def recipe():
    return ProcessRecipe(
        defect_density=3.0, clustering=0.5, mean_defect_radius=0.15
    )


@pytest.fixture(scope="module")
def patterns(chip):
    return random_patterns(chip, 48, seed=3)


# ----------------------------------------------------------- construction


class TestConstruction:
    def test_engine_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Session(engine="warp")

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            Session(workers=0)
        with pytest.raises(ValueError):
            Session(workers="turbo")

    def test_serial_session_never_forks(self, chip, recipe):
        with Session(workers=1) as session:
            session.fabricate(chip, recipe, 8, dies_per_wafer=4, seed=1)
            assert session.executor.worker_pids == ()
            assert session.stats()["contexts_shipped"] == 0


# ---------------------------------------------------------- compile-once


class TestCompileOnce:
    def test_same_netlist_compiles_once(self, chip, patterns, monkeypatch):
        import repro.api.session as session_module

        calls = []
        real_make_engine = session_module.make_engine

        def counting_make_engine(netlist, engine):
            calls.append(netlist)
            return real_make_engine(netlist, engine)

        monkeypatch.setattr(session_module, "make_engine", counting_make_engine)
        with Session(workers=1) as session:
            first = session.build_program(chip, patterns)
            second = session.build_program(chip, patterns)
            assert len(calls) == 1
            np.testing.assert_array_equal(
                first.coverage_curve, second.coverage_curve
            )
            # The tester shares the session's compiled batch circuit
            # instead of re-levelizing the netlist.
            tester = session._tester_for(first)
            assert tester._batch is session._cached_engine(chip).batch
            assert len(calls) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_edited_netlist_recompiles(self, workers):
        """A netlist edited after a build recompiles (and its stale
        engine is evicted) instead of reusing the old engine."""
        net = Netlist("grow")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.set_outputs(["g"])
        with Session(workers=workers) as session:
            session.build_program(net, random_patterns(net, 8, seed=1))
            net.add_gate("h", GateType.OR, ["a", "g"])
            net.set_outputs(["h"])
            patterns = random_patterns(net, 8, seed=2)
            edited = session.build_program(net, patterns)
            stats = session.stats()
            assert stats["engine_compiles"] == 2
            assert stats["cached_netlists"] == 1
            if workers > 1:
                assert stats["contexts_evicted"] == 1
        reference = Program.build(net, patterns)
        assert edited.universe_size == reference.universe_size == 12
        np.testing.assert_array_equal(edited.coverage_curve, reference.coverage_curve)

    def test_tester_cached_per_program(self, chip, recipe, patterns):
        with Session(workers=1) as session:
            program = session.build_program(chip, patterns)
            lot = session.fabricate(chip, recipe, 12, dies_per_wafer=4, seed=7)
            session.test(lot, program)
            session.test(lot, program)
            assert session.stats()["cached_testers"] == 1
            truncated = program.truncated(16)
            session.test(lot, truncated)
            assert session.stats()["cached_testers"] == 2

    def test_persistent_pool_ships_tester_context_once(
        self, chip, recipe, patterns
    ):
        with Session(workers=2) as session:
            program = session.build_program(chip, patterns)
            lot = session.fabricate(chip, recipe, 16, dies_per_wafer=4, seed=7)
            shipped_before = session.stats()["contexts_shipped"]
            first = session.test(lot, program)
            shipped_first = session.stats()["contexts_shipped"]
            assert shipped_first == shipped_before + 1
            second = session.test(lot, program)
            third = session.test(lot, program)
            # Replaying the same compiled context ships nothing new.
            assert session.stats()["contexts_shipped"] == shipped_first
            assert first.records == second.records == third.records

    def test_build_program_ships_engine_once(self, chip, patterns):
        with Session(workers=2) as session:
            first = session.build_program(chip, patterns)
            shipped = session.stats()["contexts_shipped"]
            assert shipped == 1
            second = session.build_program(chip, patterns)
            # The compiled engine is token-stable across runs; only the
            # per-run pattern blocks travel with the shard tasks.
            assert session.stats()["contexts_shipped"] == shipped
            np.testing.assert_array_equal(
                first.coverage_curve, second.coverage_curve
            )

    def test_fabricate_ships_wafer_context_once(self, chip, recipe):
        with Session(workers=2) as session:
            first = session.fabricate(chip, recipe, 16, dies_per_wafer=4, seed=5)
            shipped = session.stats()["contexts_shipped"]
            second = session.fabricate(
                chip, recipe, 16, dies_per_wafer=4, seed=5
            )
            assert session.stats()["contexts_shipped"] == shipped
            assert first.chips == second.chips


# ----------------------------------------------------------- bit-identity


class TestBitIdentity:
    def test_pipeline_identical_serial_persistent_and_percall(
        self, chip, recipe, patterns
    ):
        # Legacy per-call-pool path: the pre-redesign mechanics.
        legacy_program = Program.build(chip, patterns, workers=2)
        legacy_lot = fabricate_lot(
            chip, recipe, 20, dies_per_wafer=4, seed=9, workers=2
        )
        legacy_records = tuple(
            WaferTester(legacy_program, workers=2).test_lot(legacy_lot.chips)
        )

        for workers in (1, 2):
            with Session(workers=workers) as session:
                program = session.build_program(chip, patterns)
                lot = session.fabricate(
                    chip, recipe, 20, dies_per_wafer=4, seed=9
                )
                result = session.test(lot, program)
            np.testing.assert_array_equal(
                program.coverage_curve, legacy_program.coverage_curve
            )
            assert lot.chips == legacy_lot.chips
            assert result.records == legacy_records

    def test_engines_agree_through_sessions(self, chip, recipe, patterns):
        """Sessions on the kernel engines against the word-level oracles."""
        lot = fabricate_lot(chip, recipe, 12, dies_per_wafer=4, seed=3)
        program = Program.build(chip, patterns, engine=CompiledEngine(chip))
        reference = (tuple(program.coverage_curve), tuple(lot_records(program, lot.chips)))
        for engine in ("batch", "auto"):
            with Session(engine=engine, workers=1) as session:
                program = session.build_program(chip, patterns)
                assert session.fabricate(
                    chip, recipe, 12, dies_per_wafer=4, seed=3
                ) == lot
                result = (
                    tuple(program.coverage_curve),
                    session.test(lot, program).records,
                )
            assert result == reference, engine


# -------------------------------------------------------------- lifecycle


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, chip, recipe):
        session = Session(workers=1)
        session.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=1)
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.fabricate(chip, recipe, 4, dies_per_wafer=4, seed=1)
        with pytest.raises(RuntimeError, match="closed"):
            session.run_experiment("fig1")

    def test_context_manager_closes(self):
        with Session(workers=1) as session:
            assert not session.closed
        assert session.closed
        assert session.executor.closed

    def test_closed_executor_rejects_work(self):
        executor = ParallelExecutor(2, persistent=True)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map_shards(lambda c, t: t, None, [[1], [2]])

    def test_persistent_pool_reused_across_calls(self):
        with ParallelExecutor(2, persistent=True) as executor:
            token = new_context_token()
            first = executor.map_shards(_double, 2, [[1], [2]], token=token)
            pids = executor.worker_pids
            second = executor.map_shards(_double, 2, [[3], [4]], token=token)
            assert executor.worker_pids == pids
            assert (first, second) == ([[2], [4]], [[6], [8]])
            assert executor.contexts_shipped == 1


def _double(context, task):
    return [context * value for value in task]


# ------------------------------------------------------ deprecation shims


class TestDeprecationShims:
    def test_make_program_engine_kwarg_warns(self, chip):
        with pytest.warns(DeprecationWarning, match="session="):
            legacy = config.make_program(num_patterns=16, engine="auto")
        fresh = config.make_program(num_patterns=16)
        np.testing.assert_array_equal(
            legacy.coverage_curve, fresh.coverage_curve
        )

    def test_make_lot_workers_kwarg_warns(self):
        with pytest.warns(DeprecationWarning, match="session="):
            legacy = config.make_lot(num_chips=8, workers=2)
        assert legacy.chips == config.make_lot(num_chips=8).chips

    def test_experiment_run_workers_kwarg_warns(self):
        with pytest.warns(DeprecationWarning, match="session="):
            fig5.run(workers=2)

    def test_run_experiment_engine_kwarg_warns(self):
        with pytest.warns(DeprecationWarning, match="session="):
            run_experiment("fig1", engine="batch")

    def test_session_and_legacy_kwargs_are_exclusive(self):
        with Session(workers=1) as session:
            with pytest.raises(TypeError, match="not both"):
                fig5.run(session=session, workers=2)

    def test_resolve_session_leaves_callers_session_open(self):
        with Session(workers=1) as session:
            with resolve_session(session) as resolved:
                assert resolved is session
            assert not session.closed

    def test_no_warning_on_plain_defaults(self, recwarn):
        warnings.simplefilter("error", DeprecationWarning)
        config.make_program(num_patterns=8)
        config.make_lot(num_chips=8)


# ------------------------------------------------------------ experiments


class TestExperimentsThroughSessions:
    def test_differential_report_session_vs_legacy(self):
        # The pre-redesign path (throwaway serial session via the shim
        # machinery, engine fixed) must render byte-identical reports to
        # an explicit session at any worker count.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = run_experiment("fig5", workers=1)
        with Session(workers=1) as session:
            serial = session.run_experiment("fig5")
        with Session(workers=2) as session:
            parallel = session.run_experiment("fig5")
        assert serial == legacy
        assert parallel == legacy

    def test_one_session_runs_many_experiments(self):
        with Session(workers=1) as session:
            assert "Fig. 1" in session.run_experiment("fig1")
            assert "Fig. 6" in session.run_experiment("fig6")

    def test_unknown_experiment_raises_keyerror(self):
        with Session(workers=1) as session:
            with pytest.raises(KeyError, match="choose from"):
                session.run_experiment("nope")
