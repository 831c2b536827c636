"""Single-stuck-at fault machinery.

Enumerates the fault universe of a netlist (stem faults on every signal,
branch faults on every fanout pin), collapses it by structural equivalence,
and simulates it against pattern sequences with the fault-parallel batch
engine — producing exactly the artifact the paper's calibration procedure
needs: cumulative fault coverage as a function of test-pattern number.
"""

from repro.faults.model import StuckAtFault, full_fault_universe, checkpoint_faults
from repro.faults.collapse import collapse_equivalent, equivalence_classes
from repro.faults.fault_sim import FaultSimulator, FaultSimResult
from repro.faults.sampling import sample_coverage, SampledCoverage

__all__ = [
    "StuckAtFault",
    "full_fault_universe",
    "checkpoint_faults",
    "collapse_equivalent",
    "equivalence_classes",
    "FaultSimulator",
    "FaultSimResult",
    "sample_coverage",
    "SampledCoverage",
]
