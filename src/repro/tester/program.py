"""Test programs: ordered patterns plus their coverage profile.

The paper's procedure needs test patterns "evaluated on a fault simulator
in the same order as they would be applied to the chip", yielding
cumulative fault coverage as a function of pattern number.  A
:class:`TestProgram` bundles the ordered patterns, that curve, and the
good-machine responses the tester compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapsed_indices
from repro.faults.fault_sim import FaultSimulator, cumulative_coverage
from repro.faults.model import full_fault_universe

__all__ = ["TestProgram"]


@dataclass(frozen=True)
class TestProgram:
    """An ordered pattern sequence with its fault-coverage profile.

    ``coverage_curve[k]`` is the cumulative single-stuck-at coverage (over
    the *full* fault universe) of patterns ``0..k``.
    """

    netlist: Netlist
    patterns: tuple[dict[str, int], ...]
    coverage_curve: np.ndarray
    universe_size: int

    @classmethod
    def build(
        cls,
        netlist: Netlist,
        patterns: Sequence[Mapping[str, int]],
        collapse: bool = True,
        engine: str = "batch",
        workers: int | str = 1,
        executor=None,
    ) -> "TestProgram":
        """Fault-simulate ``patterns`` and record the coverage profile.

        ``collapse=True`` simulates one representative per equivalence
        class and expands the result — same numbers, roughly half the work.
        Both modes run on universe indices (the memoised collapse arrays,
        or every index), and the collapsed first-detects reach the full
        universe by one gather, so a build on a netlist seen before
        constructs no fault object.
        ``engine`` selects the fault-simulation engine (see
        :func:`repro.simulator.make_engine`) and may be a ready
        :class:`~repro.simulator.Engine` instance (a session's per-netlist
        compile-once cache); ``workers`` shards the fault list over a
        process pool (coverage is bit-identical at any count), and
        ``executor`` reuses a long-lived pool instead of building one.
        """
        if len(patterns) == 0:
            raise ValueError("a test program needs at least one pattern")
        simulator = FaultSimulator(
            netlist, engine=engine, workers=workers, executor=executor
        )
        universe_size = len(full_fault_universe(netlist))
        if collapse:
            reps, class_of = collapsed_indices(netlist)
            detects = simulator.run(patterns, faults=reps).detects[class_of]
        else:
            detects = simulator.run(patterns).detects
        return cls(
            netlist=netlist,
            patterns=tuple(dict(p) for p in patterns),
            coverage_curve=cumulative_coverage(detects, len(patterns), universe_size),
            universe_size=universe_size,
        )

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def final_coverage(self) -> float:
        """Coverage of the whole program — the paper's ``f`` for these tests."""
        return float(self.coverage_curve[-1])

    def coverage_at(self, pattern_index: int) -> float:
        """Cumulative coverage of the prefix ending at ``pattern_index``."""
        if not 0 <= pattern_index < len(self.patterns):
            raise IndexError(
                f"pattern index {pattern_index} out of range "
                f"[0, {len(self.patterns)})"
            )
        return float(self.coverage_curve[pattern_index])

    def truncated(self, num_patterns: int) -> "TestProgram":
        """The program's prefix of ``num_patterns`` patterns."""
        if not 1 <= num_patterns <= len(self.patterns):
            raise ValueError(
                f"num_patterns must be in [1, {len(self.patterns)}], "
                f"got {num_patterns}"
            )
        return TestProgram(
            netlist=self.netlist,
            patterns=self.patterns[:num_patterns],
            coverage_curve=self.coverage_curve[:num_patterns].copy(),
            universe_size=self.universe_size,
        )
