"""Throughput benchmarks of the simulation substrate itself.

Not a paper artifact — these time the engines that every Monte-Carlo
experiment leans on, so regressions in the substrate show up here rather
than as mysteriously slow experiments.

``test_bench_engine_speedup`` times the fault-parallel ``batch`` engine
against the fault-at-a-time ``compiled`` engine (the word-level oracle of
``tests/compiled_oracle.py``) on the same circuit/pattern workload,
asserts bit-identical results and the claimed speedup, and writes
``BENCH_faultsim.json`` so the fault-sim hot path has a tracked perf
record.
"""

import sys
from pathlib import Path

import pytest

from bench_utils import time_best_of, write_bench_record

from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import c17
from repro.experiments import config
from repro.faults.collapse import collapse_equivalent
from repro.faults.fault_sim import FaultSimulator
from repro.simulator import BatchCompiledCircuit
from repro.simulator.values import pack_patterns

# The word-level engine lives with the tests it serves as an oracle for.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from compiled_oracle import CompiledEngine  # noqa: E402


@pytest.fixture(scope="module")
def chip():
    return config.make_chip()


def test_bench_good_simulation(benchmark, chip):
    """64-pattern good-machine pass over the canonical chip."""
    batch = BatchCompiledCircuit(chip)
    patterns = random_patterns(chip, 64, seed=1)
    words = pack_patterns(chip.inputs, patterns)
    values = benchmark(batch.run_batch, words, [])
    assert len(batch.output_words(values)) == len(chip.outputs)


def test_bench_fault_simulation_collapsed(benchmark, chip):
    """Collapsed-universe fault simulation of 64 patterns (batch engine)."""
    simulator = FaultSimulator(chip)
    faults = collapse_equivalent(chip)
    patterns = random_patterns(chip, 64, seed=2)
    result = benchmark.pedantic(
        simulator.run, args=(patterns,), kwargs={"faults": faults},
        rounds=1, iterations=1,
    )
    assert result.coverage > 0.5


def test_bench_c17_exhaustive_fault_sim(benchmark):
    """Full-universe exhaustive fault simulation of c17 (the unit case)."""
    net = c17()
    simulator = FaultSimulator(net)
    patterns = [
        {name: (i >> k) & 1 for k, name in enumerate(net.inputs)}
        for i in range(32)
    ]
    result = benchmark(simulator.run, patterns)
    assert result.coverage == 1.0


def test_bench_engine_speedup(request, chip):
    """Batch vs compiled engine on the canonical collapsed workload.

    Same circuit, same faults, same patterns; the batch engine must be
    bit-identical and at least 5x faster (it is typically 30-110x — the
    5x floor keeps the assertion robust on loaded machines).  Times by
    hand (two engines, one ratio) rather than through the benchmark
    fixture, so it honors the benchmark skip/disable flags explicitly.
    """
    if request.config.getoption("benchmark_skip", False) or (
        request.config.getoption("benchmark_disable", False)
    ):
        pytest.skip("pytest-benchmark timing disabled for this run")
    faults = collapse_equivalent(chip)
    patterns = random_patterns(chip, 64, seed=2)
    batch_sim = FaultSimulator(chip, engine="batch")
    compiled_sim = FaultSimulator(chip, engine=CompiledEngine(chip))

    # Same repeats for both engines, so scheduler noise cannot bias the
    # recorded ratio toward either side.
    batch_seconds, batch_result = time_best_of(
        lambda: batch_sim.run(patterns, faults=faults), repeats=3
    )
    compiled_seconds, compiled_result = time_best_of(
        lambda: compiled_sim.run(patterns, faults=faults), repeats=3
    )

    assert batch_result.first_detect == compiled_result.first_detect
    speedup = compiled_seconds / batch_seconds
    record_path = write_bench_record(
        "faultsim",
        {
            "workload": {
                "circuit": chip.name,
                "gates": chip.num_gates,
                "faults": len(faults),
                "patterns": len(patterns),
            },
            "batch_seconds": batch_seconds,
            "compiled_seconds": compiled_seconds,
            "speedup": speedup,
        },
    )
    print(
        f"\nfault-sim engines: batch {batch_seconds * 1e3:.1f} ms, "
        f"compiled {compiled_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x "
        f"-> {record_path.name}"
    )
    assert speedup >= 5.0
