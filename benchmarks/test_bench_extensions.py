"""Benchmarks for the extension systems beyond the paper's core.

* mixed-Poisson (Griffin, the paper's ref [15]) versus the shifted
  Poisson on the clustered Monte-Carlo fab;
* SCOAP-guided versus level-guided PODEM;
* cost-optimal coverage from the economics model.

The agreement of deductive simulation and critical path tracing with the
fault simulator is a test-suite check (``tests/test_oracle_agreement.py``).
"""

import numpy as np
from bench_utils import run_once

from repro.atpg.podem import PodemGenerator
from repro.atpg.scoap import ScoapAnalysis
from repro.circuit.generators import random_circuit
from repro.core.economics import TestEconomics, TestLengthModel
from repro.core.fault_distribution import FaultDistribution
from repro.core.mixed_poisson import MixedPoissonFaultModel
from repro.core.quality import QualityModel
from repro.experiments import config
from repro.faults.collapse import collapse_equivalent
from repro.utils.tables import TextTable


def _mixed_poisson_fit():
    lot = config.make_lot(num_chips=2000, seed=11)
    counts = lot.fault_counts()
    mixed = MixedPoissonFaultModel.fit(counts)
    shifted = FaultDistribution(mixed.yield_, mixed.n0)

    # Log-likelihood of the defective-chip histogram under both models.
    def log_likelihood(pmf) -> float:
        total = 0.0
        for n in counts:
            p = pmf(int(n))
            total += np.log(max(p, 1e-300))
        return total

    ll_mixed = log_likelihood(mixed.pmf)
    ll_shifted = log_likelihood(shifted.pmf)
    return mixed, ll_mixed, ll_shifted, counts


def test_bench_mixed_poisson_vs_shifted(benchmark):
    """The fab's clustered lots prefer the mixed-Poisson model, and its
    escape predictions are more conservative."""
    mixed, ll_mixed, ll_shifted, counts = run_once(benchmark, _mixed_poisson_fit)

    table = TextTable(
        ["model", "log-likelihood", "Ybg(0.9)", "required f @ r=0.01"],
        title="Ablation: fault-count distribution on the fab lot",
    )
    shifted_quality = QualityModel(mixed.yield_, mixed.n0)
    table.add_row(
        [
            "shifted Poisson (paper Eq. 1)",
            f"{ll_shifted:.0f}",
            f"{FaultDistribution(mixed.yield_, mixed.n0).pmf(0):.3f}",
            f"{shifted_quality.required_coverage(0.01):.3f}",
        ]
    )
    table.add_row(
        [
            f"mixed Poisson (c={mixed.clustering:.2f})",
            f"{ll_mixed:.0f}",
            f"{mixed.bad_chip_pass_yield(0.9):.4f}",
            f"{mixed.required_coverage(0.01):.3f}",
        ]
    )
    print()
    print(table.render())

    # Clustered data: the over-dispersed model fits strictly better.
    assert ll_mixed > ll_shifted
    assert mixed.clustering > 0.1
    # And demands at least as much coverage for the same quality target.
    assert mixed.required_coverage(0.01) >= shifted_quality.required_coverage(
        0.01
    ) - 1e-9


def _podem_guidance():
    net = random_circuit(12, 150, 8, seed=7)
    universe = collapse_equivalent(net)
    rows = []
    for label, guide in (("level", None), ("SCOAP", ScoapAnalysis(net))):
        gen = PodemGenerator(net, seed=1, backtrack_limit=2000, guide=guide)
        backtracks = 0
        detected = 0
        for fault in universe:
            result = gen.generate(fault)
            backtracks += result.backtracks
            detected += result.found
        rows.append((label, detected, backtracks))
    return rows, len(universe)


def test_bench_podem_guidance(benchmark):
    """SCOAP guidance must never change verdicts; backtrack counts are
    reported for comparison."""
    rows, universe_size = run_once(benchmark, _podem_guidance)
    table = TextTable(
        ["backtrace guide", "faults detected", "total backtracks"],
        title=f"Ablation: PODEM backtrace guidance ({universe_size} faults)",
    )
    for row in rows:
        table.add_row(list(row))
    print()
    print(table.render())
    assert rows[0][1] == rows[1][1]  # identical detection verdicts


def _economics_sweep():
    quality = QualityModel(0.07, 8.0)
    program = config.make_program(num_patterns=64)
    length = TestLengthModel.fit(program.coverage_curve)
    rows = []
    for escape_cost in (10.0, 100.0, 1000.0):
        econ = TestEconomics(
            quality, length, pattern_cost=0.001, escape_cost=escape_cost
        )
        best = econ.optimal_coverage()
        rows.append((escape_cost, best.coverage, best.total))
    return rows


def test_bench_economics(benchmark):
    """Cost-optimal coverage rises with the price of an escape but stays
    strictly below 100 percent — the paper's economic argument."""
    rows = run_once(benchmark, _economics_sweep)
    table = TextTable(
        ["escape cost", "optimal coverage", "cost per shipped chip"],
        title="Extension: cost-optimal fault coverage",
    )
    for row in rows:
        table.add_row(list(row))
    print()
    print(table.render())

    optima = [coverage for _, coverage, _ in rows]
    assert all(b > a for a, b in zip(optima, optima[1:]))
    assert all(f < 0.9999 for f in optima)
