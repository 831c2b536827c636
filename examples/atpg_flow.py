"""A complete test-development flow on a gate-level circuit.

Exercises the substrate end to end the way a 1981 test engineer would
have: random patterns for the easy faults, PODEM for the resistant tail
(with fault dropping), reverse-order compaction, and a final
fault-simulation sign-off with the coverage curve the quality model
consumes.

Engine selection: everything that fault-simulates takes an ``engine``
argument —

* ``FaultSimulator(circuit)`` / ``engine="batch"`` (the default) uses the
  fault-parallel NumPy engine: one ``(num_faults + 1, num_signals)``
  ``uint64`` array per 64-pattern block, row 0 the good machine, one
  faulty machine per other row, every gate evaluated once for all faults;
* ``engine="batch-jit"`` runs the same kernel compiled by numba, and
  ``engine="batch-gpu"`` on a CUDA device through CuPy (each falls back
  to the NumPy executor, with a warning, when its package is missing);
* ``engine="auto"`` times the available backends once and picks one.

All of them produce bit-identical results — swap ``ENGINE`` below to
see the wall-clock difference on this flow.

Run:  python examples/atpg_flow.py
"""

from repro.atpg import PodemGenerator, compact_reverse, random_patterns
from repro.circuit.generators import array_multiplier
from repro.faults import FaultSimulator, collapse_equivalent, full_fault_universe
from repro.tester import TestProgram

ENGINE = "batch"  # or "batch-jit" / "batch-gpu" / "auto" — identical results


def main() -> None:
    circuit = array_multiplier(4)
    universe = full_fault_universe(circuit)
    collapsed = collapse_equivalent(circuit)
    print(
        f"circuit: {circuit.name}, {circuit.num_gates} gates; fault universe "
        f"{len(universe)} ({len(collapsed)} after equivalence collapsing)"
    )

    # Phase 1: random patterns mop up the easy faults.
    simulator = FaultSimulator(circuit, engine=ENGINE)
    randoms = random_patterns(circuit, 48, seed=42)
    random_result = simulator.run(randoms, faults=collapsed)
    print(
        f"phase 1 (random): {len(randoms)} patterns -> "
        f"{random_result.coverage:.1%} collapsed coverage"
    )

    # Phase 2: PODEM targets what random patterns missed; fault dropping
    # simulates each new pattern against the untargeted tail so faults it
    # catches incidentally skip their own PODEM run.
    generator = PodemGenerator(circuit, seed=1, backtrack_limit=2000)
    deterministic, report = generator.generate_suite(
        random_result.undetected_faults(), fault_drop=True, engine=ENGINE
    )
    print(
        f"phase 2 (PODEM): {len(deterministic)} patterns for "
        f"{len(report['detected'])} resistant faults; "
        f"{len(report['untestable'])} proved redundant, "
        f"{len(report['aborted'])} aborted"
    )

    # Phase 3: compact the combined set without losing coverage.
    combined = randoms + deterministic
    compacted = compact_reverse(circuit, combined, faults=collapsed, engine=ENGINE)
    final = simulator.run(compacted, faults=collapsed)
    print(
        f"phase 3 (compaction): {len(combined)} -> {len(compacted)} patterns, "
        f"coverage {final.coverage:.1%}"
    )

    # Sign-off: the ordered program and its coverage profile.
    program = TestProgram.build(circuit, compacted, engine=ENGINE)
    print(
        f"sign-off: program of {len(program)} patterns reaches "
        f"{program.final_coverage:.1%} of the full universe"
    )
    curve = program.coverage_curve
    milestones = [0] + [k for k in range(1, len(curve)) if curve[k] - curve[k - 1] > 0.02]
    print("coverage profile (pattern -> cumulative coverage):")
    for k in milestones[:12]:
        print(f"  pattern {k + 1:3d}: {curve[k]:.1%}")


if __name__ == "__main__":
    main()
