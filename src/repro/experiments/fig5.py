"""Fig. 5 — determination of ``n0`` from experimental data.

The paper overlays the Table 1 points on the ``P(f)`` family for
``n0 = 1..12`` and selects the closest member (``n0 = 8``); the slope
shortcut gives 8.8.  We do the same twice: on the paper's published points
(checking we recover the paper's own estimates) and on the Monte-Carlo
lot's points (checking calibration recovers an effective ``n0`` whose
``P(f)`` curve matches the simulated lot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import Session, resolve_session
from repro.core.estimation import (
    CoveragePoint,
    estimate_n0_bootstrap,
    estimate_n0_least_squares,
    estimate_n0_mle,
    estimate_n0_slope,
)
from repro.core.reject_rate import reject_fraction
from repro.experiments import config
from repro.paperdata import (
    PAPER_N0_FIT,
    PAPER_N0_SLOPE,
    TABLE1_LOT_SIZE,
    TABLE1_POINTS,
    TABLE1_YIELD,
)
from repro.utils.asciiplot import AsciiPlot
from repro.utils.tables import TextTable

__all__ = ["Fig5Result", "run", "render"]


@dataclass(frozen=True)
class Fig5Result:
    """n0 estimates on paper data and on the Monte-Carlo lot."""

    paper_n0_least_squares: float
    paper_n0_slope: float
    paper_n0_mle: float
    paper_n0_ci: tuple[float, float]
    mc_points: list[CoveragePoint]
    mc_yield: float
    mc_true_n0: float
    mc_n0_least_squares: float
    mc_n0_slope: float
    mc_fit_rms: float


def run(
    seed: int = config.LOT_SEED,
    *,
    session: Session | None = None,
) -> Fig5Result:
    """Estimate n0 from the paper's Table 1 and from a fresh MC lot.

    ``session`` supplies the fault-simulation engine and worker pool for
    the program's coverage curve, fabrication, and the lot tester (a
    serial throwaway session by default).  Results are engine- and
    worker-count-independent.
    """
    paper_ls = estimate_n0_least_squares(TABLE1_POINTS, TABLE1_YIELD)
    paper_slope = estimate_n0_slope(TABLE1_POINTS, yield_=TABLE1_YIELD)
    paper_mle = estimate_n0_mle(TABLE1_POINTS, TABLE1_YIELD, TABLE1_LOT_SIZE)
    _, ci_low, ci_high = estimate_n0_bootstrap(
        TABLE1_POINTS, TABLE1_YIELD, TABLE1_LOT_SIZE, seed=0
    )

    with resolve_session(session) as session:
        chip = config.make_chip()
        program = config.make_program(chip, session=session)
        lot = config.make_lot(chip, seed=seed, session=session)
        lot_result = session.test(lot, program)
    points = lot_result.coverage_points()
    mc_yield = lot.empirical_yield()
    mc_ls = estimate_n0_least_squares(points, mc_yield)
    mc_slope = estimate_n0_slope(points, yield_=mc_yield)
    rms = float(
        np.sqrt(
            np.mean(
                [
                    (reject_fraction(p.coverage, mc_yield, mc_ls) - p.fraction_failed)
                    ** 2
                    for p in points
                ]
            )
        )
    )
    return Fig5Result(
        paper_n0_least_squares=paper_ls,
        paper_n0_slope=paper_slope,
        paper_n0_mle=paper_mle,
        paper_n0_ci=(ci_low, ci_high),
        mc_points=points,
        mc_yield=mc_yield,
        mc_true_n0=lot.empirical_n0(),
        mc_n0_least_squares=mc_ls,
        mc_n0_slope=mc_slope,
        mc_fit_rms=rms,
    )


def render(result: Fig5Result) -> str:
    """Render the P(f) family with MC points, plus the estimate table."""
    plot = AsciiPlot(
        width=72,
        height=22,
        title="Fig. 5 — P(f) family (n0 = 1..12) with Monte-Carlo lot points (#)",
        xlabel="fault coverage f",
    )
    coverages = np.linspace(0.0, 1.0, 60)
    for n0 in (1, 2, 4, 8, 12):
        plot.add_series(
            f"n0={n0}",
            list(coverages),
            [reject_fraction(float(f), result.mc_yield, n0) for f in coverages],
        )
    plot.add_series(
        "MC lot",
        [p.coverage for p in result.mc_points],
        [p.fraction_failed for p in result.mc_points],
    )

    table = TextTable(
        ["estimator", "paper data", "paper's value", "MC lot", "MC truth"],
        title="n0 estimates",
    )
    table.add_row(
        [
            "least squares",
            f"{result.paper_n0_least_squares:.1f}",
            f"{PAPER_N0_FIT:.1f}",
            f"{result.mc_n0_least_squares:.1f}",
            f"{result.mc_true_n0:.1f}",
        ]
    )
    table.add_row(
        [
            "slope (Eq. 10)",
            f"{result.paper_n0_slope:.1f}",
            f"{PAPER_N0_SLOPE:.1f}",
            f"{result.mc_n0_slope:.1f}",
            "",
        ]
    )
    table.add_row(
        ["MLE", f"{result.paper_n0_mle:.1f}", "(not in paper)", "", ""]
    )
    footer = (
        f"Bootstrap 90% CI for the paper-data n0: "
        f"[{result.paper_n0_ci[0]:.1f}, {result.paper_n0_ci[1]:.1f}] "
        f"(excludes the n0 = 3..4 the paper rules out)\n"
        f"MC fit quality: RMS(P_fit - observed) = {result.mc_fit_rms:.3f} "
        f"over {len(result.mc_points)} checkpoints"
    )
    return "\n\n".join([plot.render(), table.render(), footer])
