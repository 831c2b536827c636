"""Differential suite for the array-native fabrication pipeline.

The refactor's contract is *bit-identity*: the grid-indexed batched
geometry, the vectorized defect-to-fault sampling (word-stream or
generic), and the SoA wafer/lot path must reproduce the scalar
per-object reference implementation draw for draw — same seeds, same
chips, same defects, same faults (stuck levels included) — across radius laws,
zero-defect chips, truncated lots, and worker counts.
"""

import pickle

import numpy as np
import pytest

from fab_oracle import faults_for_chip_scalar, sites_within_scan

from repro.circuit.generators import c17, synthetic_chip
from repro.defects import mapping
from repro.defects.generation import Defect, DefectGenerator
from repro.defects.layout import ChipLayout
from repro.defects.mapping import DefectToFaultMapper
from repro.defects.sizes import InversePowerSizes
from repro.manufacturing.lot import (
    FabricatedLot,
    _cached_fab_context,
    _fabricate_wafer_shard,
    fabricate_lot,
)
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import ChipFabData, FabricatedChip, Wafer
from repro.utils.rng import make_rng, spawn_rngs
from repro.yieldmodels.density import DeltaDensity, GammaDensity


def fabricate_wafer_scalar(wafer, seed, first_chip_id=0):
    """The pre-refactor per-object wafer loop (the ground truth)."""
    rng = make_rng(seed)
    density = float(wafer.recipe.density_distribution().sample(rng, 1)[0])
    chips = []
    for die, die_rng in enumerate(spawn_rngs(rng, wafer.dies_per_wafer)):
        defects = wafer._generator.chip_defects(
            wafer.recipe.chip_area, rng=die_rng, density_value=density
        )
        faults = faults_for_chip_scalar(wafer._mapper, defects, rng=die_rng)
        chips.append(
            FabricatedChip(
                chip_id=first_chip_id + die,
                defects=tuple(defects),
                faults=tuple(faults),
            )
        )
    return chips


# ------------------------------------------------------------- grid index


class TestGridIndex:
    @pytest.mark.parametrize("netlist,area", [(c17(), 1.0), (synthetic_chip(1, seed=2), 2.5)])
    def test_batched_query_matches_full_scan(self, netlist, area):
        layout = ChipLayout(netlist, area=area)
        rng = np.random.default_rng(0)
        xs = np.concatenate(
            [rng.uniform(-0.5, layout.side + 0.5, 150), [-10.0, layout.side / 2, 0.0]]
        )
        ys = np.concatenate(
            [rng.uniform(-0.5, layout.side + 0.5, 150), [-10.0, layout.side / 2, layout.side]]
        )
        radii = np.concatenate(
            [rng.lognormal(-3.0, 1.2, 150), [0.001, 10.0, 0.0]]
        )
        indices, offsets = layout.sites_within_many(xs, ys, radii)
        assert offsets.shape == (xs.size + 1,)
        assert offsets[0] == 0 and offsets[-1] == indices.size
        for d in range(xs.size):
            got = list(indices[offsets[d] : offsets[d + 1]])
            assert got == sites_within_scan(layout, xs[d], ys[d], radii[d]), d

    def test_wrapper_matches_scan(self):
        layout = ChipLayout(c17())
        for x, y, r in [(0.2, 0.3, 0.15), (layout.side / 2, layout.side / 2, 10.0), (-5.0, -5.0, 0.01)]:
            assert layout.sites_within(x, y, r) == sites_within_scan(layout, x, y, r)

    def test_empty_query(self):
        layout = ChipLayout(c17())
        indices, offsets = layout.sites_within_many(
            np.empty(0), np.empty(0), np.empty(0)
        )
        assert indices.size == 0
        assert list(offsets) == [0]

    def test_negative_radius_rejected(self):
        layout = ChipLayout(c17())
        with pytest.raises(ValueError, match="radius"):
            layout.sites_within_many(
                np.array([0.5]), np.array([0.5]), np.array([-0.1])
            )

    def test_misaligned_arrays_rejected(self):
        layout = ChipLayout(c17())
        with pytest.raises(ValueError, match="aligned"):
            layout.sites_within_many(
                np.array([0.5, 0.6]), np.array([0.5]), np.array([0.1])
            )

    def test_fault_pairs_share_a_site(self):
        # The fab folds a drawn polarity into ``(site & ~1) | polarity``
        # and dedups on ``fault >> 1``: the universe must list both
        # levels of each electrical site next to each other, s-a-0 first.
        layout = ChipLayout(c17())
        by_key = {}
        for i, site in enumerate(layout.sites):
            by_key.setdefault((site.signal, site.gate, site.pin), []).append(i)
            assert site.value == i & 1, site
        for key, members in by_key.items():
            assert {i >> 1 for i in members} == {members[0] >> 1}, key
            assert len(members) == 2, key
        assert len(by_key) == layout.num_sites // 2


# ------------------------------------------------------ mapper bit-identity


class TestMapperDifferential:
    def setup_method(self):
        self.layout = ChipLayout(synthetic_chip(1, seed=2), area=1.0)
        self.mapper = DefectToFaultMapper(self.layout, activation_probability=0.7)

    def _defects(self, seed, count=25, big=False):
        rng = np.random.default_rng(seed)
        radius = rng.lognormal(-2.2 if big else -3.0, 0.8, count)
        return [
            Defect(x, y, r)
            for x, y, r in zip(
                rng.uniform(0, self.layout.side, count),
                rng.uniform(0, self.layout.side, count),
                radius,
            )
        ]

    def test_array_path_matches_scalar(self):
        for seed in range(8):
            defects = self._defects(seed)
            fast = self.mapper.faults_for_chip(defects, rng=make_rng(seed))
            slow = faults_for_chip_scalar(self.mapper, defects, rng=make_rng(seed))
            assert fast == slow

    def test_low_activation_fallback_matches(self):
        mapper = DefectToFaultMapper(self.layout, activation_probability=0.02)
        for seed in range(8):
            defects = self._defects(seed, big=True)
            fast = mapper.faults_for_chip(defects, rng=make_rng(seed))
            slow = faults_for_chip_scalar(mapper, defects, rng=make_rng(seed))
            assert fast == slow

    def test_generator_state_matches_scalar_after_call(self):
        # Callers may keep drawing from the rng they passed in; the
        # word-stream path must leave it exactly where the scalar path
        # would (surplus words returned, half-word buffer written back).
        defects = self._defects(3)
        a, b = make_rng(9), make_rng(9)
        self.mapper.faults_for_chip(defects, rng=a)
        faults_for_chip_scalar(self.mapper, defects, rng=b)
        assert a.random(5).tolist() == b.random(5).tolist()
        assert a.integers(1000, size=5).tolist() == b.integers(1000, size=5).tolist()

    def test_non_pcg64_generator_uses_generic_path(self):
        defects = self._defects(4)
        fast = self.mapper.faults_for_chip(
            defects, rng=np.random.Generator(np.random.MT19937(5))
        )
        slow = faults_for_chip_scalar(
            self.mapper, defects, rng=np.random.Generator(np.random.MT19937(5))
        )
        assert fast == slow

    def test_word_stream_self_check_passes(self):
        assert mapping._word_stream_verified() is True

    def test_empty_defect_set(self):
        faults = self.mapper.site_hits_for_chip(
            np.empty(0), np.empty(0), np.empty(0), rng=make_rng(0)
        )
        assert faults.size == 0
        assert self.mapper.faults_for_chip([], rng=make_rng(0)) == []

    def test_custom_sizes_distribution_matches(self):
        generator = DefectGenerator(
            DeltaDensity(20.0),
            mean_radius=0.05,
            sizes=InversePowerSizes(0.03, exponent=3.5),
        )
        for seed in range(5):
            xs, ys, radii = generator.chip_defect_arrays(1.0, rng=make_rng(seed))
            fast = self.layout.site_faults(
                self.mapper.site_hits_for_chip(xs, ys, radii, rng=make_rng(seed + 100))
            )
            defects = generator.chip_defects(1.0, rng=make_rng(seed))
            slow = faults_for_chip_scalar(self.mapper, defects, rng=make_rng(seed + 100))
            assert fast == slow

    def test_counted_sites_per_defect(self):
        # Counted variant: exact census over the grid, approaching the
        # analytic density approximation away from edge effects.
        analytic = self.mapper.expected_sites_per_defect(0.08)
        counted = self.mapper.counted_sites_per_defect(0.08, resolution=48)
        assert counted == pytest.approx(analytic, rel=0.25)
        assert counted < analytic  # footprints hang off the die edge
        assert self.mapper.counted_sites_per_defect(10.0, resolution=4) == (
            self.layout.num_sites
        )
        with pytest.raises(ValueError):
            self.mapper.counted_sites_per_defect(-1.0)
        with pytest.raises(ValueError):
            self.mapper.counted_sites_per_defect(0.1, resolution=0)


# ------------------------------------------------------- wafer / lot paths


class TestWaferDifferential:
    CONFIGS = [
        ProcessRecipe(defect_density=3.0, clustering=0.5, mean_defect_radius=0.15),
        ProcessRecipe(
            defect_density=2.0, mean_defect_radius=0.05, defect_radius_sigma=0.0
        ),
        ProcessRecipe(defect_density=0.0),  # zero-defect chips
        ProcessRecipe(
            defect_density=5.0,
            clustering=2.0,
            mean_defect_radius=0.3,
            activation_probability=0.05,
        ),
    ]

    @pytest.mark.parametrize("recipe", CONFIGS)
    def test_wafer_bit_identical_to_scalar(self, recipe):
        net = synthetic_chip(1, seed=0)
        wafer = Wafer(recipe, ChipLayout(net, area=recipe.chip_area), dies_per_wafer=10)
        for seed in (1, 7):
            array_chips = wafer.fabricate(seed=seed)
            scalar_chips = fabricate_wafer_scalar(wafer, seed)
            assert array_chips == scalar_chips
            # Same identity fault-by-fault, polarity included.
            for a, s in zip(array_chips, scalar_chips):
                assert a.defects == s.defects
                assert a.faults == s.faults

    def test_lot_bit_identical_serial_vs_workers(self):
        net = c17()
        recipe = ProcessRecipe(
            defect_density=3.0, clustering=0.5, mean_defect_radius=0.15
        )
        serial = fabricate_lot(net, recipe, 43, dies_per_wafer=8, seed=11)
        sharded = fabricate_lot(
            net, recipe, 43, dies_per_wafer=8, seed=11, workers=2
        )
        assert serial.chips == sharded.chips
        assert len(serial) == 43
        np.testing.assert_array_equal(
            serial.fault_counts(), sharded.fault_counts()
        )

    def test_truncated_wafer_is_prefix_of_full(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=2.0, mean_defect_radius=0.2)
        wafer = Wafer(recipe, ChipLayout(net), dies_per_wafer=12)
        full = wafer.fabricate(seed=9)
        for k in (1, 5, 12, 30):
            assert wafer.fabricate(seed=9, max_dies=k) == full[: min(k, 12)]
        with pytest.raises(ValueError):
            wafer.fabricate(seed=9, max_dies=0)

    def test_shard_path_respects_final_wafer_limit(self):
        # The sharded path must not fabricate the truncated dies at all:
        # the worker payload for the last wafer carries only the limit.
        net = c17()
        recipe = ProcessRecipe(defect_density=2.0, mean_defect_radius=0.2)
        context, _ = _cached_fab_context(net, recipe, 10)
        rng = make_rng(5)
        wafer_rngs = spawn_rngs(rng, 2)
        payload = _fabricate_wafer_shard(
            context, [(0, wafer_rngs[0], None), (1, wafer_rngs[1], 3)]
        )
        assert payload.num_dies == 13
        assert payload.chip_ids.tolist() == list(range(10)) + [10, 11, 12]

    def test_lot_chip_ids_contiguous_with_truncation(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0)
        lot = fabricate_lot(net, recipe, 37, dies_per_wafer=16, seed=2, workers=2)
        assert [c.chip_id for c in lot.chips] == list(range(37))


class TestFabricatedChip:
    def _array_chip(self):
        net = c17()
        recipe = ProcessRecipe(
            defect_density=6.0, mean_defect_radius=0.3, clustering=0.0
        )
        wafer = Wafer(recipe, ChipLayout(net), dies_per_wafer=4)
        return next(c for c in wafer.fabricate(seed=4) if not c.is_good)

    def test_lazy_chip_equals_eager_twin(self):
        chip = self._array_chip()
        eager = FabricatedChip(chip.chip_id, chip.defects, chip.faults)
        assert chip == eager and eager == chip
        assert hash(chip) == hash(eager)

    def test_counts_without_materialization(self):
        chip = self._array_chip()
        assert chip._defects is None and chip._faults is None
        assert chip.fault_count == len(chip._data.fault_indices)
        assert chip.defect_count == len(chip._data.xs)
        # counts alone must not have materialized the tuples
        assert chip._defects is None and chip._faults is None
        assert chip.fault_count == len(chip.faults)
        assert chip.defect_count == len(chip.defects)

    def test_pickle_round_trip(self):
        chip = self._array_chip()
        clone = pickle.loads(pickle.dumps(chip))
        assert clone == chip
        assert clone.faults == chip.faults

    def test_constructor_validation(self):
        with pytest.raises(TypeError):
            FabricatedChip(0)
        with pytest.raises(TypeError):
            FabricatedChip(0, (), None)
        chip = self._array_chip()
        with pytest.raises(TypeError):
            FabricatedChip(0, (), (), data=chip._data)

    def test_repr_is_compact(self):
        chip = self._array_chip()
        assert f"chip_id={chip.chip_id}" in repr(chip)


class TestLotSoA:
    def test_soa_statistics_match_object_loop(self):
        net = c17()
        recipe = ProcessRecipe(
            defect_density=3.0, clustering=1.0, mean_defect_radius=0.2
        )
        lot = fabricate_lot(net, recipe, 60, dies_per_wafer=8, seed=6)
        assert lot.fault_counts().tolist() == [c.fault_count for c in lot.chips]
        assert lot.mean_defects_per_chip() == pytest.approx(
            float(np.mean([len(c.defects) for c in lot.chips]))
        )
        assert lot.empirical_yield() == (
            sum(c.is_good for c in lot.chips) / len(lot.chips)
        )

    def test_manual_lot_builds_soa_lazily(self):
        recipe = ProcessRecipe(defect_density=1.0)
        chips = (
            FabricatedChip(0, (), ()),
            FabricatedChip(1, (Defect(0.1, 0.1, 0.05),), ()),
        )
        lot = FabricatedLot(recipe=recipe, chips=chips)
        assert lot.fault_counts().tolist() == [0, 0]
        assert lot.mean_defects_per_chip() == 0.5
        assert lot.empirical_yield() == 1.0

    def test_lot_yield_matches_laplace_transform(self):
        """Statistical gate: with a footprint big enough that nearly
        every defect kills, the empirical lot yield reproduces the
        mixing distribution's Laplace transform (the Eq. 3 yield)."""
        net = synthetic_chip(1, seed=0)
        recipe = ProcessRecipe(
            defect_density=1.2,
            clustering=1.5,
            mean_defect_radius=0.3,
            defect_radius_sigma=0.0,
            activation_probability=1.0,
        )
        # Small wafers: many independent density realizations, so the
        # clustered lot yield concentrates around the transform.
        lot = fabricate_lot(net, recipe, 4000, dies_per_wafer=8, seed=21, workers=2)
        predicted = GammaDensity(1.2, clustering=1.5).laplace(1.0)
        assert lot.empirical_yield() == pytest.approx(predicted, abs=0.03)
