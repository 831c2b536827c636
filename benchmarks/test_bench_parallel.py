"""Worker-scaling and wire-payload benchmarks of the sharded runtime.

``test_bench_parallel_scaling`` times the PR-2 parallel axis on the
canonical lot workload — wafer fabrication, first-fail lot testing, and
a full-universe fault simulation — at ``workers`` = 1, 2, 4, asserts the
results are bit-identical at every worker count, and writes the
wall-clock scaling curve to ``BENCH_parallel.json``.  On single-core
machines the curve is meaningless, so the bench records a skip marker
instead of failing (see ``bench_utils.require_cpus``).

``test_bench_payload_bytes`` measures what the pool pipe actually
*carries*: shard payload bytes per stage under the SoA wire format, via
the executor's ``ipc_bytes_out`` counters, versus the pickled-object
shards of the same shard plans, sized the way the pool counts a task.  Byte counts are deterministic, so this
bench runs on any machine (CPU count only changes pool size, never
payload bytes) and merges a ``payload_bytes`` section into
``BENCH_parallel.json`` without touching the scaling curve.
``REPRO_BENCH_QUICK=1`` shrinks the workload and writes
``BENCH_parallel_quick.json`` instead; ``tools/check_ipc_bench.py``
validates either record and enforces the reduction bar.
"""

import os
import sys
from pathlib import Path

import pytest

from bench_utils import (
    available_cpus,
    merge_bench_record,
    require_cpus,
    time_best_of,
    write_scaling_record,
)

from repro.atpg.random_gen import random_patterns
from repro.experiments import config
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import full_fault_universe
from repro.manufacturing.lot import fabricate_lot
from repro.runtime import ParallelExecutor, ShardPlan
from repro.runtime.wire import payload_nbytes
from repro.simulator.values import WORD_BITS, pack_patterns
from repro.tester.tester import WaferTester

# The word-level oracles live with the tests they serve.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from compiled_oracle import CompiledEngine, lot_records  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

WORKER_COUNTS = (1, 2, 4)
# Sized so one serial pass is a few seconds: the per-stage pool setup
# (fork + one context pickle per worker) must be noise, not signal.
LOT_CHIPS = 20000
DIES_PER_WAFER = 25
SIM_PATTERNS = 512

# Payload bench workload — lot-scale but wall-clock cheap (the point is
# byte counting, not timing).
PAYLOAD_LOT_CHIPS = 100 if QUICK else 4000
PAYLOAD_SIM_PATTERNS = 32 if QUICK else 128
PAYLOAD_WORKERS = 2


def test_bench_parallel_scaling(request):
    """Lot-test + fault-sim wall clock vs worker count.

    The acceptance bar is >= 2.5x at ``workers=4`` over ``workers=1`` on
    machines with at least 4 CPUs; with 2-3 CPUs only the 2-worker point
    is asserted (weakly).  Every worker count must produce bit-identical
    chips, tester records, and first-detects.
    """
    if request.config.getoption("benchmark_skip", False) or (
        request.config.getoption("benchmark_disable", False)
    ):
        pytest.skip("pytest-benchmark timing disabled for this run")

    workload = {
        "lot_chips": LOT_CHIPS,
        "dies_per_wafer": DIES_PER_WAFER,
        "sim_patterns": SIM_PATTERNS,
        "circuit": "canonical_x1",
        "stages": ["fabricate_lot", "test_lot", "fault_sim"],
    }
    cpus = require_cpus("parallel", 2, workload=workload)

    chip = config.make_chip()
    recipe = config.make_recipe()
    program = config.make_program(chip)
    tester = WaferTester(program)
    simulator = FaultSimulator(chip)
    patterns = random_patterns(chip, SIM_PATTERNS, seed=9)

    timings = {}
    reference = None
    for workers in WORKER_COUNTS:

        def workload_run(workers=workers):
            lot = fabricate_lot(
                chip,
                recipe,
                LOT_CHIPS,
                dies_per_wafer=DIES_PER_WAFER,
                seed=5,
                workers=workers,
            )
            records = tester.test_lot(lot.chips, workers=workers)
            sim = simulator.run(patterns, workers=workers)
            return lot.chips, records, sim.first_detect

        seconds, result = time_best_of(workload_run, repeats=2)
        timings[workers] = seconds
        if reference is None:
            reference = result
        else:
            # Bit-identical at every worker count — the runtime contract.
            assert result == reference

    record_path = write_scaling_record("parallel", workload, timings)
    speedup = {w: timings[1] / timings[w] for w in WORKER_COUNTS}
    print(
        "\nparallel runtime: "
        + ", ".join(
            f"workers={w} {timings[w]:.2f}s ({speedup[w]:.2f}x)"
            for w in WORKER_COUNTS
        )
        + f" on {cpus} CPUs -> {record_path.name}"
    )
    if cpus >= 4:
        assert speedup[4] >= 2.5
    else:
        assert speedup[2] >= 1.2


def _payload_workload():
    chip = config.make_chip()
    program = config.make_program(chip)
    patterns = random_patterns(chip, PAYLOAD_SIM_PATTERNS, seed=9)
    lot = fabricate_lot(
        chip,
        config.make_recipe(),
        PAYLOAD_LOT_CHIPS,
        dies_per_wafer=DIES_PER_WAFER,
        seed=5,
    )
    return chip, program, patterns, lot


def _stage_payload_bytes(chip, program, patterns, lot):
    """Shard-payload bytes each pipeline stage ships over the pool pipe.

    Runs ``test_lot`` and ``fault_sim`` on a persistent 2-worker pool:
    the first call per stage warms the pool (ships the shard context),
    the second is measured — its ``ipc_bytes_out`` delta is purely the
    per-lot shard payloads, the bytes that scale with lot size.
    """
    stage_bytes = {}
    with ParallelExecutor(PAYLOAD_WORKERS, persistent=True) as executor:
        tester = WaferTester(program, executor=executor)
        tester.test_lot(lot.chips)  # warm: ships the compiled context
        before = executor.ipc_bytes_out
        records = tester.test_lot(lot.chips)
        stage_bytes["test_lot"] = executor.ipc_bytes_out - before

        simulator = FaultSimulator(chip, executor=executor)
        simulator.run(patterns)  # warm
        before = executor.ipc_bytes_out
        sim = simulator.run(patterns)
        stage_bytes["fault_sim"] = executor.ipc_bytes_out - before
    return stage_bytes, (records, sim)


def _object_payload_bytes(chip, patterns, lot):
    """The pickled-object baseline: the bytes the same shard plans would
    ship as chip-object shards and ``(blocks, fault-object shard)`` tasks.

    Each task is sized with :func:`repro.runtime.wire.payload_nbytes`,
    the count the pool records per task.
    """
    plan = ShardPlan.balanced(len(lot), PAYLOAD_WORKERS)
    test_lot = sum(payload_nbytes(shard) for shard in plan.split(list(lot.chips)))
    blocks = tuple(
        (pack_patterns(chip.inputs, patterns[start : start + WORD_BITS]),
         len(patterns[start : start + WORD_BITS]))
        for start in range(0, len(patterns), WORD_BITS)
    )
    universe = full_fault_universe(chip)
    plan = ShardPlan.balanced(len(universe), PAYLOAD_WORKERS)
    fault_sim = sum(
        payload_nbytes((blocks, shard)) for shard in plan.split(universe)
    )
    return {"test_lot": test_lot, "fault_sim": fault_sim}


def test_bench_payload_bytes():
    """Pool-pipe payload bytes: SoA wire format vs pickled-object shards.

    Asserts the pooled results equal the word-level oracles and that the
    SoA ``test_lot`` payload is at least 10x smaller than the pickled
    chip-object baseline (the PR-6 acceptance bar; quick mode asserts a
    relaxed 5x because tiny lots amortize fixed framing overhead worse).
    """
    chip, program, patterns, lot = _payload_workload()
    soa_bytes, (records, sim) = _stage_payload_bytes(chip, program, patterns, lot)
    # The wire format never changes results.
    assert records == lot_records(program, lot.chips)
    assert sim == FaultSimulator(chip, engine=CompiledEngine(chip)).run(patterns)
    object_bytes = _object_payload_bytes(chip, patterns, lot)

    stages = []
    for stage in ("test_lot", "fault_sim"):
        obj, soa = object_bytes[stage], soa_bytes[stage]
        assert soa > 0 and obj > 0
        stages.append(
            {
                "stage": stage,
                "object_bytes": obj,
                "soa_bytes": soa,
                "ratio": obj / soa,
            }
        )
    section = {
        "payload_bytes": {
            "quick": QUICK,
            "workload": {
                "circuit": "canonical_x1",
                "lot_chips": PAYLOAD_LOT_CHIPS,
                "dies_per_wafer": DIES_PER_WAFER,
                "sim_patterns": PAYLOAD_SIM_PATTERNS,
                "workers": PAYLOAD_WORKERS,
            },
            "stages": stages,
        }
    }
    name = "parallel_quick" if QUICK else "parallel"
    record_path = merge_bench_record(name, section)
    print(
        "\npayload bytes: "
        + ", ".join(
            f"{s['stage']} objects={s['object_bytes']} soa={s['soa_bytes']} "
            f"({s['ratio']:.1f}x smaller)"
            for s in stages
        )
        + f" -> {record_path.name}"
    )
    bar = 5.0 if QUICK else 10.0
    test_lot_ratio = stages[0]["ratio"]
    assert test_lot_ratio >= bar, (
        f"test_lot SoA payload only {test_lot_ratio:.1f}x smaller "
        f"than object shards (bar: {bar:.0f}x)"
    )
