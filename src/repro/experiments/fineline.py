"""Section 8 — the fine-line (feature shrink) study.

The paper's closing prediction: shrinking a circuit raises yield (smaller
area) and raises ``n0`` (more logic per defect footprint), and *both*
effects lower the required fault coverage.  We quantify the prediction
with :class:`~repro.core.scaling.ShrinkStudy` and ablate the two effects
(yield-only versus combined), then cross-check the ``n0`` mechanism
against the Monte-Carlo fab by shrinking the defect footprint relative to
the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Session, resolve_session
from repro.core.scaling import ShrinkScenario, ShrinkStudy
from repro.experiments import config
from repro.manufacturing.process import ProcessRecipe
from repro.utils.tables import TextTable
from repro.yieldmodels.models import NegativeBinomialYield

__all__ = ["FinelineResult", "run", "render"]

_SHRINKS = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
_REJECT_RATE = 0.005


@dataclass(frozen=True)
class FinelineResult:
    """Shrink sweeps (combined and yield-only) plus fab cross-check."""

    combined: list[ShrinkScenario]
    yield_only: list[ShrinkScenario]
    fab_rows: list[dict]


def run(
    seed: int = config.LOT_SEED,
    *,
    session: Session | None = None,
) -> FinelineResult:
    """Run the analytic shrink study and the fab cross-check.

    ``session`` supplies the fault-simulation engine and worker pool for
    the test program build, each shrink's fabrication, and the first-fail
    testing (a serial throwaway session by default).  Results are engine-
    and worker-count-independent.
    """
    base = ShrinkStudy(
        yield_model=NegativeBinomialYield(clustering=2.0),
        defect_density=2.0,
        base_area=1.0,
        base_n0=8.0,
        multiplicity_exponent=2.0,
    )
    frozen = ShrinkStudy(
        yield_model=NegativeBinomialYield(clustering=2.0),
        defect_density=2.0,
        base_area=1.0,
        base_n0=8.0,
        multiplicity_exponent=0.0,
    )
    combined = base.sweep(_SHRINKS, _REJECT_RATE)
    yield_only = frozen.sweep(_SHRINKS, _REJECT_RATE)

    # Fab cross-check: same chip, same absolute defect footprint, denser
    # layout (modeled by a *larger* footprint relative to the cell pitch).
    # Each shrink's lot is also first-fail-tested against the canonical
    # program, tying the n0 mechanism to an observed tester quantity.
    with resolve_session(session) as session:
        chip = config.make_chip()
        program = config.make_program(chip, session=session)
        fab_rows = []
        for shrink in (1.0, 0.7, 0.5):
            recipe = ProcessRecipe(
                defect_density=1.2,
                clustering=0.5,
                mean_defect_radius=0.02 / shrink,  # relative footprint grows
                activation_probability=0.7,
            )
            lot = session.fabricate(chip, recipe, 600, seed=seed)
            records = session.test(lot, program).records
            fab_rows.append(
                {
                    "shrink": shrink,
                    "empirical_n0": lot.empirical_n0(),
                    "empirical_yield": lot.empirical_yield(),
                    "fraction_failed": sum(
                        r.first_fail is not None for r in records
                    ) / len(records),
                }
            )
    return FinelineResult(
        combined=combined, yield_only=yield_only, fab_rows=fab_rows
    )


def render(result: FinelineResult) -> str:
    """Tables for the analytic sweeps and the fab n0 mechanism check."""
    table = TextTable(
        [
            "shrink",
            "area",
            "yield",
            "n0",
            "required f",
            "required f (n0 frozen)",
        ],
        title=(
            f"Section 8 shrink study (target r = {_REJECT_RATE}): combined "
            "vs yield-only effect"
        ),
    )
    for combined, frozen in zip(result.combined, result.yield_only):
        table.add_row(
            [
                f"{combined.shrink:.1f}",
                f"{combined.area:.2f}",
                f"{combined.yield_:.3f}",
                f"{combined.n0:.1f}",
                f"{combined.required_coverage:.3f}",
                f"{frozen.required_coverage:.3f}",
            ]
        )

    fab_table = TextTable(
        ["shrink", "empirical n0", "empirical yield", "fraction failed"],
        title="Fab cross-check: finer features -> more faults per defect",
    )
    for row in result.fab_rows:
        fab_table.add_row(
            [
                f"{row['shrink']:.1f}",
                f"{row['empirical_n0']:.2f}",
                f"{row['empirical_yield']:.3f}",
                f"{row['fraction_failed']:.3f}",
            ]
        )
    return table.render() + "\n\n" + fab_table.render()
