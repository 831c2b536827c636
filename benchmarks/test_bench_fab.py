"""Fabrication-path benchmark: serial-object vs array vs array+workers.

Times lot fabrication on the canonical recipe at a defect multiplicity
where the pre-refactor per-defect scan dominated (the canonical chip
scaled up, so each die carries ~15k fault sites and every spot defect
covers a dozen of them), asserts the array path's single-process speedup
over the retained scalar reference implementation, checks bit-identity
between all modes, and writes ``BENCH_fab.json``.

Worker legs are measured only on multi-CPU machines (a worker curve on
one core is noise); the single-process speedup — the acceptance number —
is recorded everywhere.  ``REPRO_BENCH_QUICK=1`` selects a small
workload with a relaxed assertion for per-PR CI smoke runs, recorded to
``BENCH_fab_quick.json`` so a smoke run never overwrites the committed
full-workload snapshot.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from bench_utils import BENCH_DIR, available_cpus, time_best_of, write_bench_record

from repro.experiments import config
from repro.manufacturing.lot import _cached_wafer, fabricate_lot
from repro.utils.rng import make_rng, spawn_rngs

# The scalar mapper lives with the tests it serves as an oracle for.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from fab_oracle import faults_for_chip_scalar  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
# Scaled canonical chip: same recipe, denser die -> higher fault
# multiplicity, which is exactly where the O(sites)-per-defect scan of
# the old mapper dominated the fab wall clock.
FAB_SCALE = 4 if QUICK else 12
LOT_CHIPS = 50 if QUICK else 150
DIES_PER_WAFER = 25
SEED = 5
# Regression gate, deliberately below the measured ~5.5-9x so scheduler
# noise on shared CI runners cannot flake the suite; the committed
# BENCH_fab.json snapshot records the real measured speedup.
MIN_SPEEDUP = 1.3 if QUICK else 3.0
# Bar the *committed* full snapshot must clear — mirrors
# tools/check_fab_bench.py MIN_FULL_ARRAY_SPEEDUP, which CI enforces on
# BENCH_fab.json.  A run between MIN_SPEEDUP and this passes the suite
# (slow machine, not a regression) but must not clobber a committed
# snapshot that clears the bar, or CI would reject the record.
MIN_SNAPSHOT_SPEEDUP = 5.0


def fabricate_lot_scalar(netlist, recipe, num_chips, dies_per_wafer, seed):
    """The pre-refactor per-object lot loop (ground truth + baseline)."""
    wafer = _cached_wafer(netlist, recipe, dies_per_wafer)
    rng = make_rng(seed)
    num_wafers = -(-num_chips // dies_per_wafer)
    chips = []
    for index, wafer_rng in enumerate(spawn_rngs(rng, num_wafers)):
        density = float(
            recipe.density_distribution().sample(wafer_rng, 1)[0]
        )
        for die, die_rng in enumerate(spawn_rngs(wafer_rng, dies_per_wafer)):
            defects = wafer._generator.chip_defects(
                recipe.chip_area, rng=die_rng, density_value=density
            )
            faults = faults_for_chip_scalar(wafer._mapper, defects, rng=die_rng)
            chips.append((index * dies_per_wafer + die, tuple(defects), tuple(faults)))
    return chips[:num_chips]


def test_bench_fab_array_path(request):
    """Single-process array-path speedup over the serial-object baseline."""
    if request.config.getoption("benchmark_skip", False) or (
        request.config.getoption("benchmark_disable", False)
    ):
        pytest.skip("pytest-benchmark timing disabled for this run")

    cpus = available_cpus()
    chip = config.make_chip(FAB_SCALE)
    recipe = config.make_recipe()
    wafer = _cached_wafer(chip, recipe, DIES_PER_WAFER)  # levelize once

    repeats = 2 if QUICK else 3
    scalar_seconds, scalar_chips = time_best_of(
        lambda: fabricate_lot_scalar(
            chip, recipe, LOT_CHIPS, DIES_PER_WAFER, SEED
        ),
        repeats=repeats,
    )
    array_seconds, lot = time_best_of(
        lambda: fabricate_lot(
            chip, recipe, LOT_CHIPS, dies_per_wafer=DIES_PER_WAFER, seed=SEED
        ),
        repeats=repeats,
    )

    # Bit-identity: the array path must reproduce the scalar reference
    # chip for chip (ids, defects, faults).
    assert len(lot.chips) == len(scalar_chips) == LOT_CHIPS
    for array_chip, (chip_id, defects, faults) in zip(lot.chips, scalar_chips):
        assert array_chip.chip_id == chip_id
        assert array_chip.defects == defects
        assert array_chip.faults == faults

    modes = [
        {"mode": "serial-object", "seconds": scalar_seconds, "speedup": 1.0},
        {
            "mode": "array",
            "seconds": array_seconds,
            "speedup": scalar_seconds / array_seconds,
        },
    ]
    for workers in (2, 4):
        if cpus < workers:
            continue
        worker_seconds, worker_lot = time_best_of(
            lambda workers=workers: fabricate_lot(
                chip,
                recipe,
                LOT_CHIPS,
                dies_per_wafer=DIES_PER_WAFER,
                seed=SEED,
                workers=workers,
            ),
            repeats=repeats,
        )
        assert worker_lot.chips == lot.chips  # identical at any worker count
        modes.append(
            {
                "mode": f"array+workers={workers}",
                "seconds": worker_seconds,
                "speedup": scalar_seconds / worker_seconds,
            }
        )

    workload = {
        "circuit": f"canonical_x{FAB_SCALE}",
        "recipe": "canonical (yield ~0.07)",
        "num_sites": wafer.layout.num_sites,
        "lot_chips": LOT_CHIPS,
        "dies_per_wafer": DIES_PER_WAFER,
        "quick": QUICK,
    }
    array_speedup = scalar_seconds / array_seconds
    name = "fab_quick" if QUICK else "fab"
    if not QUICK and array_speedup < MIN_SNAPSHOT_SPEEDUP:
        existing = BENCH_DIR / "BENCH_fab.json"
        committed_clears_bar = existing.exists() and any(
            m.get("mode") == "array"
            and m.get("speedup", 0.0) >= MIN_SNAPSHOT_SPEEDUP
            for m in json.loads(existing.read_text()).get("modes", [])
        )
        if committed_clears_bar:
            print(
                f"\nfab path: array speedup {array_speedup:.2f}x below the "
                f"{MIN_SNAPSHOT_SPEEDUP}x snapshot bar; committed "
                f"BENCH_fab.json left untouched"
            )
            assert array_speedup >= MIN_SPEEDUP
            return
    record_path = write_bench_record(
        name,
        {"workload": workload, "cpus": cpus, "modes": modes},
    )
    print(
        "\nfab path: "
        + ", ".join(
            f"{m['mode']} {m['seconds']:.3f}s ({m['speedup']:.2f}x)"
            for m in modes
        )
        + f" -> {record_path.name}"
    )
    assert array_speedup >= MIN_SPEEDUP
