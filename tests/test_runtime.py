"""The process-sharded runtime: shard bookkeeping and determinism.

The load-bearing claim of :mod:`repro.runtime` is that the worker count
is *invisible* in the results: fabricated lots, tester records, and
coverage curves must be bit-identical at ``workers=1`` and ``workers=4``
for a fixed seed.  These tests pin that down, plus the shard-plan edge
cases (empty lists, single items, more workers than shards).
"""

import numpy as np
import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import c17
from repro.defects.generation import DefectGenerator
from repro.faults.fault_sim import FaultSimulator
from repro.manufacturing.lot import FabricatedLot, _cached_wafer, fabricate_lot
from repro.manufacturing.process import ProcessRecipe
from repro.runtime import ParallelExecutor, ShardPlan, resolve_workers
from repro.tester.program import TestProgram as Program
from repro.tester.tester import WaferTester
from repro.yieldmodels.density import GammaDensity

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
def lot(chip, recipe):
    return fabricate_lot(chip, recipe, 40, dies_per_wafer=8, seed=11)


@pytest.fixture(scope="module")
def program(chip):
    return Program.build(chip, random_patterns(chip, 80, seed=3))


# --------------------------------------------------------------- ShardPlan


class TestShardPlan:
    def test_balanced_sizes_differ_by_at_most_one(self):
        plan = ShardPlan.balanced(10, 4)
        assert plan.shard_sizes == (3, 3, 2, 2)
        assert sum(plan.shard_sizes) == 10

    def test_bounds_are_contiguous(self):
        plan = ShardPlan.balanced(10, 3)
        bounds = plan.bounds()
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_split_merge_roundtrip(self):
        items = list(range(23))
        plan = ShardPlan.balanced(len(items), 5)
        assert plan.merge(plan.split(items)) == items

    def test_more_shards_than_items(self):
        plan = ShardPlan.balanced(3, 8)
        assert plan.num_shards == 3
        assert plan.shard_sizes == (1, 1, 1)

    def test_zero_items(self):
        plan = ShardPlan.balanced(0, 4)
        assert plan.num_shards == 0
        assert plan.split([]) == []
        assert plan.merge([]) == []

    def test_split_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="covers 4 items"):
            ShardPlan.balanced(4, 2).split([1, 2, 3])

    def test_merge_rejects_wrong_shard_count(self):
        with pytest.raises(ValueError, match="2 shards"):
            ShardPlan.balanced(4, 2).merge([[1, 2]])

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.balanced(-1, 2)
        with pytest.raises(ValueError):
            ShardPlan.balanced(4, 0)
        with pytest.raises(ValueError):
            ShardPlan(4, (2, 3))
        with pytest.raises(ValueError):
            ShardPlan(2, (2, 0))


# ---------------------------------------------------------------- executor


def _scale_task(context, task):
    return [context * value for value in task]


class TestParallelExecutor:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        assert resolve_workers("auto") >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers("fast")
        with pytest.raises(TypeError):
            resolve_workers(2.0)
        with pytest.raises(TypeError):
            resolve_workers(True)

    def test_serial_map_preserves_order(self):
        executor = ParallelExecutor(1)
        assert executor.is_serial
        result = executor.map_shards(_scale_task, 10, [[1, 2], [3], [4, 5]])
        assert result == [[10, 20], [30], [40, 50]]

    def test_parallel_map_matches_serial(self):
        tasks = [[i, i + 1] for i in range(6)]
        serial = ParallelExecutor(1).map_shards(_scale_task, 3, tasks)
        parallel = ParallelExecutor(3).map_shards(_scale_task, 3, tasks)
        assert parallel == serial

    def test_empty_task_list(self):
        assert ParallelExecutor(4).map_shards(_scale_task, 1, []) == []


# ------------------------------------------------------------- determinism


class TestWorkerCountDeterminism:
    def test_fault_sim_first_detect_identical(self, chip):
        patterns = [
            {name: (i >> k) & 1 for k, name in enumerate(chip.inputs)}
            for i in range(32)
        ]
        serial = FaultSimulator(chip).run(patterns)
        sharded = FaultSimulator(chip, workers=4).run(patterns)
        assert sharded.first_detect == serial.first_detect
        assert sharded.faults == serial.faults
        np.testing.assert_array_equal(
            sharded.coverage_curve(), serial.coverage_curve()
        )

    def test_fault_sim_compiled_engine_sharded(self, chip):
        patterns = random_patterns(chip, 20, seed=5)
        engine = CompiledEngine(chip)
        serial = FaultSimulator(chip, engine=engine).run(patterns)
        sharded = FaultSimulator(chip, engine=engine, workers=3).run(patterns)
        assert sharded.first_detect == serial.first_detect
        assert sharded == FaultSimulator(chip).run(patterns)

    def test_coverage_curve_identical(self, chip, program):
        sharded = Program.build(
            chip, random_patterns(chip, 80, seed=3), workers=4
        )
        np.testing.assert_array_equal(
            sharded.coverage_curve, program.coverage_curve
        )

    def test_fabricated_lot_identical(self, chip, recipe, lot):
        for workers in (2, 4, "auto"):
            sharded = fabricate_lot(
                chip, recipe, 40, dies_per_wafer=8, seed=11, workers=workers
            )
            assert sharded.chips == lot.chips

    def test_tester_records_identical(self, program, lot):
        serial = WaferTester(program).test_lot(lot.chips)
        sharded = WaferTester(program, workers=4).test_lot(lot.chips)
        assert sharded == serial

    def test_tester_word_level_engine_sharded(self, program, lot):
        serial = lot_records(program, lot.chips)
        sharded = WaferTester(program).test_lot(lot.chips, workers=3)
        assert sharded == serial
        batched = WaferTester(program).test_lot(lot.chips, workers=2)
        assert batched == serial


# -------------------------------------------------------------- edge cases


class TestEdgeCases:
    def test_empty_lot_test(self, program):
        assert WaferTester(program, workers=4).test_lot([]) == []

    def test_single_chip_lot(self, program, lot):
        serial = WaferTester(program).test_lot(lot.chips[:1])
        sharded = WaferTester(program, workers=4).test_lot(lot.chips[:1])
        assert sharded == serial
        assert len(sharded) == 1

    def test_more_workers_than_wafers(self, chip, recipe):
        # 24 chips on 16-die wafers -> 2 wafer shards under 8 workers.
        serial = fabricate_lot(chip, recipe, 24, dies_per_wafer=16, seed=2)
        sharded = fabricate_lot(
            chip, recipe, 24, dies_per_wafer=16, seed=2, workers=8
        )
        assert sharded.chips == serial.chips
        assert len(sharded) == 24

    def test_more_workers_than_faults(self, chip):
        patterns = random_patterns(chip, 8, seed=1)
        faults = FaultSimulator(chip).run(patterns).faults[:3]
        serial = FaultSimulator(chip).run(patterns, faults=faults)
        sharded = FaultSimulator(chip, workers=16).run(patterns, faults=faults)
        assert sharded.first_detect == serial.first_detect

    def test_workers_validation_threads_through(self, chip, recipe, program):
        with pytest.raises(ValueError):
            FaultSimulator(chip, workers=0).run(random_patterns(chip, 4, seed=0))
        with pytest.raises(ValueError):
            WaferTester(program, workers=-2).test_lot([])
        with pytest.raises(ValueError):
            fabricate_lot(chip, recipe, 8, seed=0, workers="turbo")


# ----------------------------------------------------- satellite regressions


class TestLotStatistics:
    def test_mean_defects_per_chip_empty_lot_raises(self, recipe):
        empty = FabricatedLot(recipe=recipe, chips=())
        with pytest.raises(ValueError, match="empty lot"):
            empty.mean_defects_per_chip()
        with pytest.raises(ValueError, match="empty lot"):
            empty.empirical_yield()
        with pytest.raises(ValueError, match="empty lot"):
            empty.empirical_nav()

    def test_fault_count_histogram_empty_lot(self, recipe):
        assert FabricatedLot(recipe=recipe, chips=()).fault_count_histogram() == {}

    def test_fault_count_histogram_matches_dict_loop(self, lot):
        histogram = lot.fault_count_histogram()
        expected = {}
        for chip in lot.chips:
            expected[chip.fault_count] = expected.get(chip.fault_count, 0) + 1
        assert histogram == dict(sorted(expected.items()))
        assert list(histogram) == sorted(histogram)
        assert all(
            isinstance(k, int) and isinstance(v, int)
            for k, v in histogram.items()
        )
        assert sum(histogram.values()) == len(lot)


class TestDefectArrays:
    def test_arrays_match_materialized_defects(self):
        generator = DefectGenerator(
            GammaDensity(4.0, clustering=1.0), mean_radius=0.05
        )
        xs, ys, radii = generator.chip_defect_arrays(
            1.0, rng=np.random.default_rng(7)
        )
        defects = generator.chip_defects(1.0, rng=np.random.default_rng(7))
        assert len(defects) == len(xs)
        for defect, x, y, r in zip(defects, xs, ys, radii):
            assert defect.x == x
            assert defect.y == y
            assert defect.radius == r

    def test_empty_draw_returns_empty_arrays(self):
        generator = DefectGenerator(
            GammaDensity(1e-9, clustering=1.0), mean_radius=0.05
        )
        xs, ys, radii = generator.chip_defect_arrays(
            1e-6, rng=np.random.default_rng(0)
        )
        assert xs.size == ys.size == radii.size == 0
        assert generator.chip_defects(1e-6, rng=np.random.default_rng(0)) == []

    def test_negative_radius_from_sizes_rejected_at_array_level(self):
        class NegativeSizes:
            def sample(self, rng, count):
                return np.full(count, -0.1)

        generator = DefectGenerator(
            GammaDensity(50.0, clustering=1.0),
            mean_radius=0.05,
            sizes=NegativeSizes(),
        )
        with pytest.raises(ValueError, match="radius must be >= 0"):
            generator.chip_defect_arrays(1.0, rng=np.random.default_rng(1))

    def test_rng_stream_unchanged_by_vectorization(self):
        # Same seed must keep producing the historical defect sets: the
        # draw order (density, count, xs, ys, radii) is part of the
        # reproducibility contract.
        generator = DefectGenerator(
            GammaDensity(5.0, clustering=0.5), mean_radius=0.04, radius_sigma=0.3
        )
        first = generator.chip_defects(1.0, rng=np.random.default_rng(123))
        second = generator.chip_defects(1.0, rng=np.random.default_rng(123))
        assert first == second


class TestLayoutCaching:
    def test_wafer_and_layout_reused_across_lots(self, chip, recipe):
        first = _cached_wafer(chip, recipe, 8)
        second = _cached_wafer(chip, recipe, 8)
        assert first is second
        other_dies = _cached_wafer(chip, recipe, 16)
        assert other_dies is not first
        assert other_dies.layout is first.layout

    def test_cached_fabrication_stays_deterministic(self, chip, recipe):
        # Two consecutive lots under one recipe (the cache hit path) must
        # match a fresh serial fabrication of the same seeds.
        a1 = fabricate_lot(chip, recipe, 16, dies_per_wafer=8, seed=5)
        a2 = fabricate_lot(chip, recipe, 16, dies_per_wafer=8, seed=5)
        assert a1.chips == a2.chips
