"""The paper's full workflow: calibrate n0 from a production lot.

Section 5 of the paper prescribes: fault-simulate a preliminary test
sequence to get its cumulative-coverage profile, test a lot of one or two
hundred chips recording each chip's first failing pattern, overlay the
cumulative fail fraction on the P(f) family, and pick the closest n0.

Here the "production line" is the Monte-Carlo fab: a synthetic ~215-gate
chip fabricated at 7-percent yield with clustered spot defects.  We then
use the calibrated model exactly as a product engineer would — to set the
coverage requirement for the outgoing quality target.

Run:  python examples/calibrate_from_production.py
"""

from repro import QualityModel
from repro.experiments import config
from repro.tester import LotTestResult, WaferTester


def main() -> None:
    chip = config.make_chip()
    print(f"chip: {chip.name}, {chip.num_gates} gates, "
          f"{len(chip.inputs)} inputs, {len(chip.outputs)} outputs")

    # 1. Preliminary test sequence, fault-simulated for its coverage curve.
    program = config.make_program(chip)
    print(f"test program: {len(program)} patterns, "
          f"final stuck-at coverage {program.final_coverage:.1%} "
          f"of {program.universe_size} faults")

    # 2. Fabricate and test a lot, first-fail mode.
    lot = config.make_lot(chip)
    tester = WaferTester(program)
    result = LotTestResult(program=program, records=tuple(tester.test_lot(lot)))
    print(f"lot: {len(lot)} chips, empirical yield "
          f"{lot.empirical_yield():.1%}, "
          f"{result.fraction_rejected():.1%} rejected by the program")
    print()
    print(result.to_table(checkpoints=None).render())
    print()

    # 3. Calibrate the quality model from the fail curve.
    model = QualityModel.calibrate(
        result.coverage_points(),
        yield_=lot.empirical_yield(),
        lot_size=len(lot),
        method="least_squares",
    )
    report = model.calibration_report
    print(f"calibrated n0 = {model.n0:.1f} "
          f"(slope estimate {report.n0_slope:.1f}, "
          f"MLE {report.n0_mle:.1f}; "
          f"fab ground truth {lot.empirical_n0():.1f})")
    print()

    # 4. Use the model: coverage requirement for 1-in-1000 quality.
    for target in (0.01, 0.001):
        print(f"for field reject rate {target}: need "
              f"{model.required_coverage(target):.1%} fault coverage")


if __name__ == "__main__":
    main()
