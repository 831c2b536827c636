"""Section 7 — the worked LSI-chip example.

For the 25 000-transistor chip (yield 0.07, calibrated ``n0 = 8``) the
paper concludes: 80-percent coverage suffices for a 1-percent field reject
rate and 95 percent for 1-in-1000 — against 99 and 99.9 percent under
Wadsack's model, "almost unachievable goals for LSI circuits".

We reproduce the numbers and additionally validate them against the
Monte-Carlo fab: test the canonical lot with programs truncated to various
coverages and compare the observed escape rates with Eq. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Session, resolve_session
from repro.core.quality import QualityModel
from repro.core.reject_rate import field_reject_rate
from repro.experiments import config
from repro.paperdata import PAPER_N0_FIT, TABLE1_YIELD
from repro.utils.tables import TextTable

__all__ = ["ExampleResult", "run", "render"]

PAPER_VALUES = {
    0.01: {"ours_expected": 0.80, "wadsack": 0.99},
    0.001: {"ours_expected": 0.95, "wadsack": 0.999},
}


@dataclass(frozen=True)
class ExampleResult:
    """Required-coverage comparison plus Monte-Carlo escape validation."""

    model: QualityModel
    required: dict[float, float]
    wadsack: dict[float, float]
    mc_rows: list[dict]


def run(
    seed: int = config.LOT_SEED,
    mc_lot_size: int = 4000,
    *,
    session: Session | None = None,
) -> ExampleResult:
    """Compute the Section 7 numbers and validate r(f) by Monte Carlo.

    The validation follows the paper's methodology: calibrate the effective
    ``n0`` once from the lot's first-fail curve (a *calibration* lot), then
    predict the escape rate of truncated programs on a fresh *production*
    lot and compare with the observed escapes.  ``session`` supplies the
    fault-simulation engine and worker pool (a serial throwaway session
    by default); results are engine- and worker-count-independent.
    """
    from repro.core.estimation import estimate_n0_least_squares

    model = QualityModel(yield_=TABLE1_YIELD, n0=PAPER_N0_FIT)
    required = {r: model.required_coverage(r) for r in PAPER_VALUES}
    wadsack = {r: model.wadsack_required_coverage(r) for r in PAPER_VALUES}

    with resolve_session(session) as session:
        chip = config.make_chip()
        program = config.make_program(chip, session=session)

        # Calibration lot: fit effective n0 from the full fail curve
        # (Fig. 5).
        calibration_lot = config.make_lot(
            chip, num_chips=mc_lot_size, seed=seed, session=session
        )
        calibration = session.test(calibration_lot, program)
        mc_yield = calibration_lot.empirical_yield()
        n0_effective = estimate_n0_least_squares(
            calibration.coverage_points(), mc_yield
        )

        # Production lot: different seed, truncated programs, observed
        # escapes.
        production_lot = config.make_lot(
            chip, num_chips=mc_lot_size, seed=seed + 1, session=session
        )
        points = []
        for frac in (0.02, 0.1, 0.3, 1.0):
            truncated = program.truncated(max(1, int(len(program) * frac)))
            result = session.test(production_lot, truncated)
            coverage = truncated.final_coverage
            points.append(
                {
                    "program_coverage": coverage,
                    "observed_reject_rate": result.empirical_reject_rate(),
                    "observed_escapes": len(result.escapes()),
                    "shipped": sum(r.passed for r in result.records),
                    "predicted_reject_rate": field_reject_rate(
                        coverage, mc_yield, n0_effective
                    ),
                }
            )
    return ExampleResult(
        model=model, required=required, wadsack=wadsack, mc_rows=points
    )


def render(result: ExampleResult) -> str:
    """Tables: required coverage vs Wadsack, then MC escape validation."""
    table = TextTable(
        ["target r", "required f (ours)", "paper", "Wadsack f", "paper (Wadsack)"],
        title=(
            f"Section 7 example: y = {result.model.yield_}, "
            f"n0 = {result.model.n0:g}"
        ),
    )
    for rate, info in PAPER_VALUES.items():
        table.add_row(
            [
                f"{rate:g}",
                f"{result.required[rate]:.3f}",
                f"~{info['ours_expected']:.2f}",
                f"{result.wadsack[rate]:.4f}",
                f"~{info['wadsack']:.3f}",
            ]
        )

    mc_table = TextTable(
        [
            "program coverage",
            "shipped",
            "escapes",
            "observed r",
            "Eq. 8 r (calibrated n0)",
        ],
        title=(
            "Monte-Carlo validation: n0 calibrated on one lot, escapes "
            "predicted on a fresh lot"
        ),
    )
    for row in result.mc_rows:
        mc_table.add_row(
            [
                f"{row['program_coverage']:.3f}",
                row["shipped"],
                row["observed_escapes"],
                f"{row['observed_reject_rate']:.4f}",
                f"{row['predicted_reject_rate']:.4f}",
            ]
        )
    return table.render() + "\n\n" + mc_table.render()
