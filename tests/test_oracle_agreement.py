"""Three independent fault-coverage algorithms, one answer.

The kernel engines' fault-parallel simulation, deductive fault-list
propagation (``tests/deductive_oracle.py``) and exact critical path
tracing (``tests/critical_path_oracle.py``) must agree on the canonical
chip: the same first detect for every fault of the universe, and the
same coverage.
"""

import warnings

import pytest

from repro.atpg.random_gen import random_patterns
from repro.experiments import config
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import full_fault_universe

from critical_path_oracle import CriticalPathTracer
from deductive_oracle import DeductiveFaultSimulator


@pytest.fixture(scope="module")
def canonical():
    """The chip, its patterns and both oracles' answers, computed once."""
    net = config.make_chip()
    patterns = random_patterns(net, 32, seed=5)
    first_detect = DeductiveFaultSimulator(net).run(patterns)
    coverage = CriticalPathTracer(net, stem_analysis="exact").coverage(
        patterns, full_fault_universe(net)
    )
    return net, patterns, first_detect, coverage


@pytest.mark.parametrize("engine", ["batch", "batch-jit", "auto"])
def test_three_engines_agree(canonical, engine):
    net, patterns, first_detect, cpt_coverage = canonical
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # batch-jit w/o numba
        result = FaultSimulator(net, engine=engine).run(patterns)
    assert dict(zip(result.faults, result.first_detect)) == first_detect
    assert abs(cpt_coverage - result.coverage) < 1e-12
