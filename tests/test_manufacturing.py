"""Tests for the process recipe, wafer fabrication, and lot statistics."""

import numpy as np
import pytest

from repro.api import Session
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, synthetic_chip
from repro.circuit.netlist import Netlist
from repro.defects.layout import ChipLayout
from repro.faults.model import full_fault_universe
from repro.manufacturing.lot import _cached_layout, _cached_wafer, fabricate_lot
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import FabricatedChip, Wafer
from repro.yieldmodels.density import DeltaDensity, GammaDensity
from repro.yieldmodels.models import NegativeBinomialYield, PoissonYield


class TestProcessRecipe:
    def test_predicted_yield_poisson(self):
        recipe = ProcessRecipe(defect_density=1.0, chip_area=2.0)
        assert recipe.predicted_yield() == pytest.approx(np.exp(-2.0))

    def test_predicted_yield_clustered(self):
        recipe = ProcessRecipe(defect_density=1.0, chip_area=2.0, clustering=1.0)
        assert recipe.predicted_yield() == pytest.approx(1 / 3.0)

    def test_density_distribution_types(self):
        assert isinstance(
            ProcessRecipe(1.0).density_distribution(), DeltaDensity
        )
        assert isinstance(
            ProcessRecipe(1.0, clustering=2.0).density_distribution(), GammaDensity
        )

    def test_for_target_yield_round_trip(self):
        for clustering in (0.0, 1.0, 3.0):
            recipe = ProcessRecipe.for_target_yield(
                0.07, chip_area=1.5, clustering=clustering
            )
            assert recipe.predicted_yield() == pytest.approx(0.07, rel=1e-9)

    def test_hit_probability_scales_density(self):
        base = ProcessRecipe.for_target_yield(0.3)
        scaled = ProcessRecipe.for_target_yield(0.3, hit_probability=0.5)
        assert scaled.defect_density == pytest.approx(2 * base.defect_density)

    def test_expected_defects(self):
        assert ProcessRecipe(2.0, chip_area=3.0).expected_defects_per_chip() == 6.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ProcessRecipe(-1.0)
        with pytest.raises(ValueError):
            ProcessRecipe(1.0, chip_area=0.0)
        with pytest.raises(ValueError):
            ProcessRecipe(1.0, clustering=-1.0)
        with pytest.raises(ValueError):
            ProcessRecipe.for_target_yield(0.5, hit_probability=0.0)


class TestWafer:
    def test_fabricate_count(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0)
        wafer = Wafer(recipe, ChipLayout(net), dies_per_wafer=25)
        chips = wafer.fabricate(seed=1)
        assert len(chips) == 25
        assert [c.chip_id for c in chips] == list(range(25))

    def test_chip_id_offset(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0)
        wafer = Wafer(recipe, ChipLayout(net), dies_per_wafer=5)
        chips = wafer.fabricate(seed=1, first_chip_id=100)
        assert chips[0].chip_id == 100

    def test_reproducible(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=2.0, clustering=1.0)
        wafer = Wafer(recipe, ChipLayout(net), dies_per_wafer=10)
        a = wafer.fabricate(seed=7)
        b = wafer.fabricate(seed=7)
        assert [c.faults for c in a] == [c.faults for c in b]

    def test_area_mismatch_raises(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0, chip_area=2.0)
        with pytest.raises(ValueError, match="area"):
            Wafer(recipe, ChipLayout(net, area=1.0))

    def test_invalid_dies(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0)
        with pytest.raises(ValueError):
            Wafer(recipe, ChipLayout(net), dies_per_wafer=0)

    def test_good_chip_detection(self):
        chip = FabricatedChip(0, defects=(), faults=())
        assert chip.is_good
        assert chip.fault_count == 0


class TestFabricateLot:
    def test_lot_size_exact(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0)
        lot = fabricate_lot(net, recipe, num_chips=137, dies_per_wafer=50, seed=3)
        assert len(lot) == 137

    def test_reproducible(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0, clustering=2.0)
        a = fabricate_lot(net, recipe, 60, seed=5)
        b = fabricate_lot(net, recipe, 60, seed=5)
        assert [c.faults for c in a.chips] == [c.faults for c in b.chips]

    def test_empirical_yield_at_least_predicted(self):
        """Good-chip fraction >= zero-defect probability (benign defects)."""
        net = synthetic_chip(1, seed=0)
        recipe = ProcessRecipe(
            defect_density=1.2, clustering=1.0, mean_defect_radius=0.03
        )
        lot = fabricate_lot(net, recipe, 3000, seed=9)
        assert lot.empirical_yield() >= recipe.predicted_yield() - 0.02

    def test_unclustered_yield_close_to_eq3(self):
        """With a large footprint almost every defect kills, so the
        empirical yield approaches the Eq. 3 prediction."""
        net = synthetic_chip(1, seed=0)
        recipe = ProcessRecipe(
            defect_density=1.0,
            mean_defect_radius=0.3,
            defect_radius_sigma=0.0,
            activation_probability=1.0,
        )
        lot = fabricate_lot(net, recipe, 4000, seed=10)
        assert lot.empirical_yield() == pytest.approx(
            recipe.predicted_yield(), abs=0.03
        )

    def test_defective_chips_have_faults(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=3.0, mean_defect_radius=0.2)
        lot = fabricate_lot(net, recipe, 200, seed=11)
        for chip in lot.defective_chips():
            assert chip.fault_count >= 1

    def test_histogram_sums_to_lot(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=1.0, mean_defect_radius=0.2)
        lot = fabricate_lot(net, recipe, 150, seed=12)
        assert sum(lot.fault_count_histogram().values()) == 150

    def test_n0_and_nav_relation(self):
        """Empirical nav = (1 - yield) * n0 — the Eq. 2 identity holds by
        construction on the empirical quantities."""
        net = synthetic_chip(1, seed=0)
        recipe = ProcessRecipe(
            defect_density=1.5, clustering=1.0, mean_defect_radius=0.05
        )
        lot = fabricate_lot(net, recipe, 1000, seed=13)
        nav = lot.empirical_nav()
        assert nav == pytest.approx(
            (1 - lot.empirical_yield()) * lot.empirical_n0(), rel=1e-9
        )

    def test_bigger_footprint_bigger_n0(self):
        """Larger defect footprints produce more faults per defective chip
        — the physical mechanism behind the paper's Section 8 prediction."""
        net = synthetic_chip(1, seed=0)
        small = ProcessRecipe(
            defect_density=1.0, mean_defect_radius=0.02, defect_radius_sigma=0.0
        )
        large = ProcessRecipe(
            defect_density=1.0, mean_defect_radius=0.15, defect_radius_sigma=0.0
        )
        lot_small = fabricate_lot(net, small, 800, seed=14)
        lot_large = fabricate_lot(net, large, 800, seed=14)
        assert lot_large.empirical_n0() > lot_small.empirical_n0()

    def test_clustering_raises_yield_at_fixed_density(self):
        net = synthetic_chip(1, seed=0)
        flat = ProcessRecipe(defect_density=1.5, mean_defect_radius=0.1)
        clustered = ProcessRecipe(
            defect_density=1.5, clustering=3.0, mean_defect_radius=0.1
        )
        lot_flat = fabricate_lot(net, flat, 2500, seed=15)
        lot_clustered = fabricate_lot(net, clustered, 2500, seed=15)
        assert lot_clustered.empirical_yield() > lot_flat.empirical_yield()

    def test_empty_lot_errors(self):
        net = c17()
        recipe = ProcessRecipe(defect_density=0.0)
        with pytest.raises(ValueError):
            fabricate_lot(net, recipe, 0)
        lot = fabricate_lot(net, recipe, 10, seed=1)
        with pytest.raises(ValueError, match="no defective"):
            lot.empirical_n0()


def and_gate():
    """AND(a, b); :func:`grow` gives ``a`` a second sink."""
    net = Netlist("grow")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.set_outputs(["g"])
    return net


def grow(net):
    net.add_gate("h", GateType.OR, ["a", "g"])
    net.set_outputs(["h"])
    return net


class TestEditedNetlist:
    """Fabrication caches follow the netlist's revision, not its identity:
    a lot fabricated after an edit equals a fresh netlist's lot."""

    RECIPE = ProcessRecipe(defect_density=3.0, mean_defect_radius=0.3)

    def test_layout_rebuilt_after_edit(self):
        net = and_gate()
        fabricate_lot(net, self.RECIPE, 10, seed=1)
        stale = _cached_layout(net, self.RECIPE.chip_area)
        assert stale.num_sites == 6
        grow(net)
        layout = _cached_layout(net, self.RECIPE.chip_area)
        assert layout is not stale
        assert layout.num_sites == len(full_fault_universe(net)) == 12
        lot = fabricate_lot(net, self.RECIPE, 10, seed=1)
        assert lot.layout.num_sites == 12

    def test_wafer_rebuilt_after_edit(self):
        net = and_gate()
        stale = _cached_wafer(net, self.RECIPE, 10)
        fabricate_lot(net, self.RECIPE, 30, dies_per_wafer=10, seed=2)
        grow(net)
        wafer = _cached_wafer(net, self.RECIPE, 10)
        assert wafer is not stale and wafer.layout.num_sites == 12
        lot = fabricate_lot(net, self.RECIPE, 30, dies_per_wafer=10, seed=2)
        fresh = fabricate_lot(grow(and_gate()), self.RECIPE, 30, dies_per_wafer=10, seed=2)
        assert any(chip.faults for chip in fresh.chips)
        assert lot == fresh

    def test_pool_contexts_reshipped_after_edit(self):
        net = and_gate()
        with Session(workers=2) as session:
            session.fabricate(net, self.RECIPE, 60, dies_per_wafer=10, seed=3)
            grow(net)
            lot = session.fabricate(net, self.RECIPE, 60, dies_per_wafer=10, seed=3)
            # The stale context left the session and its workers.
            stats = session.stats()
            assert stats["cached_fab_contexts"] == 1
            assert stats["contexts_evicted"] == 1
        fresh = fabricate_lot(grow(and_gate()), self.RECIPE, 60, dies_per_wafer=10, seed=3)
        assert lot == fresh
