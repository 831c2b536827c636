"""Table 1 — the first-fail record of a production lot.

Two reproductions side by side:

1. **Analytic fit to the paper's own data**: the published Table 1 rows
   against the Eq. 9 curve at the paper's fitted ``n0 = 8`` — verifying we
   reproduce the *analysis*.
2. **Monte-Carlo regeneration**: fabricate a 277-chip lot of the synthetic
   chip at 7-percent yield, test it first-fail on a random-pattern program,
   and print the same cumulative table — verifying the *experiment* can be
   regenerated end to end from our substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Session, resolve_session
from repro.core.estimation import CoveragePoint
from repro.core.reject_rate import reject_fraction
from repro.experiments import config
from repro.manufacturing.lot import FabricatedLot
from repro.paperdata import PAPER_N0_FIT, TABLE1_LOT_SIZE, TABLE1_POINTS, TABLE1_YIELD
from repro.tester.results import LotTestResult
from repro.utils.tables import TextTable

__all__ = ["Table1Result", "run", "render"]


@dataclass(frozen=True)
class Table1Result:
    """Paper data with model fit, plus the Monte-Carlo lot's own table."""

    paper_points: list[CoveragePoint]
    model_fractions: list[float]
    lot: FabricatedLot
    lot_result: LotTestResult
    mc_points: list[CoveragePoint]


def run(
    lot_size: int = TABLE1_LOT_SIZE,
    num_patterns: int = config.NUM_PATTERNS,
    seed: int = config.LOT_SEED,
    *,
    session: Session | None = None,
) -> Table1Result:
    """Fit the paper's rows and regenerate the experiment by Monte Carlo.

    ``session`` supplies the fault-simulation engine and worker pool for
    the program's coverage curve, fabrication, and the lot tester (a
    serial throwaway session by default).  Results are engine- and
    worker-count-independent.
    """
    model_fractions = [
        reject_fraction(p.coverage, TABLE1_YIELD, PAPER_N0_FIT)
        for p in TABLE1_POINTS
    ]

    with resolve_session(session) as session:
        chip = config.make_chip()
        program = config.make_program(
            chip, num_patterns=num_patterns, session=session
        )
        lot = config.make_lot(
            chip, num_chips=lot_size, seed=seed, session=session
        )
        lot_result = session.test(lot, program)
    # Sample the Monte-Carlo table at paper-like coverage checkpoints.
    curve = program.coverage_curve
    checkpoints = []
    for target in (0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.36, 0.45, 0.50, 0.65):
        k = int(min(range(len(curve)), key=lambda i: abs(curve[i] - target)))
        if k not in checkpoints:
            checkpoints.append(k)
    mc_points = lot_result.coverage_points(checkpoints)
    return Table1Result(
        paper_points=list(TABLE1_POINTS),
        model_fractions=model_fractions,
        lot=lot,
        lot_result=lot_result,
        mc_points=mc_points,
    )


def render(result: Table1Result) -> str:
    """Side-by-side tables: paper rows + fit, then the regenerated lot."""
    fit_table = TextTable(
        ["coverage (pct)", "fraction failed (paper)", "P(f) at n0=8", "delta"],
        title=(
            f"Table 1 (paper data, {TABLE1_LOT_SIZE} chips, y={TABLE1_YIELD}) "
            f"vs Eq. 9 fit at n0={PAPER_N0_FIT:g}"
        ),
    )
    for point, model in zip(result.paper_points, result.model_fractions):
        fit_table.add_row(
            [
                f"{point.coverage * 100:.0f}",
                f"{point.fraction_failed:.2f}",
                f"{model:.2f}",
                f"{model - point.fraction_failed:+.3f}",
            ]
        )

    mc_header = (
        f"Monte-Carlo regeneration: {len(result.lot)} chips, "
        f"empirical yield {result.lot.empirical_yield():.3f}, "
        f"true n0 {result.lot.empirical_n0():.2f}"
    )
    mc_table = result.lot_result.to_table(
        checkpoints=None
    )
    mc_sample = TextTable(
        ["coverage (pct)", "fraction failed (MC lot)"],
        title="Monte-Carlo lot at paper-like checkpoints",
    )
    for point in result.mc_points:
        mc_sample.add_row(
            [f"{point.coverage * 100:.1f}", f"{point.fraction_failed:.2f}"]
        )
    return "\n\n".join(
        [fit_table.render(), mc_header, mc_sample.render()]
    )
