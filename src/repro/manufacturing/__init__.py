"""Monte-Carlo wafer fabrication.

Substitutes for the paper's production line: a :class:`ProcessRecipe`
(defect density, clustering, defect footprint, chip area) drives wafer and
lot fabrication, producing :class:`FabricatedChip` objects whose stuck-at
fault sets follow the clustered spot-defect process.  The empirical yield
of a lot matches Eq. 3 for the recipe's parameters, and the empirical mean
fault count of defective chips is the ground-truth ``n0`` that the paper's
calibration procedure is then asked to recover.

Fabrication runs on an array-native hot path (``docs/fabrication.md``):
every die of a lot (or pool shard) is fabricated in one batched pass —
one grid query for the footprints, one vectorized sampler for the
faults — into :class:`LotColumns`, and a lot is backed by those columns;
chip objects (:class:`ChipFabData` views) and ``Defect`` /
``StuckAtFault`` objects are materialized only on demand.  The result is
bit-identical to the historical per-object implementation at every
worker count.
"""

from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import ChipFabData, FabricatedChip, LotColumns, Wafer
from repro.manufacturing.lot import FabricatedLot, fabricate_lot
from repro.manufacturing.wafermap import PlacedChip, WaferMap

__all__ = [
    "ProcessRecipe",
    "ChipFabData",
    "FabricatedChip",
    "LotColumns",
    "Wafer",
    "FabricatedLot",
    "fabricate_lot",
    "PlacedChip",
    "WaferMap",
]
