"""Physical-defect substrate.

The paper distinguishes *physical defects* (spot defects per unit area,
driving yield via Eq. 3) from *logical faults* (stuck-at equivalents whose
count per defective chip is ``n0``), noting that "in a high-density
circuit, a physical defect can produce several logical faults".  This
package models that bridge:

* :mod:`repro.defects.layout` — an abstract floorplan placing the
  netlist's fault sites on a die grid;
* :mod:`repro.defects.generation` — spot-defect placement with gamma
  (negative-binomial) density clustering;
* :mod:`repro.defects.mapping` — defect footprint -> set of stuck-at
  faults, the fault-multiplicity law that makes ``n0 > 1``.

The hot path is array-native: the layout carries a cell-binned spatial
grid index answering whole defect arrays in one CSR-batched query, and
the mapper samples all of a chip's defects into an array of fault
(universe) indices while consuming random draws in the exact
per-defect order of the scalar reference path (see
``docs/fabrication.md``).
"""

from repro.defects.layout import ChipLayout
from repro.defects.generation import Defect, DefectGenerator
from repro.defects.mapping import DefectToFaultMapper
from repro.defects.sizes import (
    DefectSizeDistribution,
    InversePowerSizes,
    LogNormalSizes,
)

__all__ = [
    "ChipLayout",
    "Defect",
    "DefectGenerator",
    "DefectToFaultMapper",
    "DefectSizeDistribution",
    "InversePowerSizes",
    "LogNormalSizes",
]
