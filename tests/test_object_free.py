"""The object-free batch path must match the word-level reference exactly.

Lot testing and fault simulation feed the batch circuit injection tables
gathered from per-site tables — from a lot's ``(site index, polarity)``
arrays, from fault objects mapped through the universe lookup, and from
ad-hoc sites outside the universe through the same resolver.  Every one
of those inputs must give first-fail records (and first-detect vectors)
identical to ``engine="compiled"``, at one worker and through the pool,
on the NumPy kernel and on the numba kernel where it is installed.
"""

import pickle
import re
import warnings

import numpy as np
import pytest

from repro.atpg.random_gen import random_patterns
from repro.experiments import config
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.manufacturing.lot import fabricate_lot, pack_lot_chips, unpack_lot_chips
from repro.manufacturing.wafer import FabricatedChip
from repro.runtime import ParallelExecutor
from repro.simulator import BatchCompiledCircuit
from repro.simulator.kernels import InjectionTables
from repro.tester.tester import WaferTester

ENGINES = ("batch", "auto", "batch-jit")


@pytest.fixture(autouse=True)
def _quiet_fallbacks():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # batch-jit w/o numba
        yield


@pytest.fixture(scope="module")
def chip():
    return config.make_chip()


@pytest.fixture(scope="module")
def program(chip):
    return config.make_program(chip, num_patterns=80)


@pytest.fixture(scope="module")
def lot(chip):
    return fabricate_lot(chip, config.make_recipe(), 80, dies_per_wafer=16, seed=3)


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(2) as executor:
        yield executor


def fanout_one_branch(netlist, value):
    """A branch fault on a fanout-1 signal: a legal site the universe
    does not list (there the branch is electrically the stem)."""
    for name in netlist.signals:
        sinks = netlist.fanout(name)
        if len(sinks) == 1:
            gate, pin = sinks[0]
            return StuckAtFault(name, value, gate=gate, pin=pin)
    raise AssertionError("no fanout-1 signal")


def lot_variants(chip, lot):
    """The same lot as array-backed, pickled (eager) and server-decoded chips."""
    pickled = pickle.loads(pickle.dumps(lot.chips))
    payload = pack_lot_chips(chip, lot.chips)
    decoded = unpack_lot_chips(chip, lot.recipe.chip_area, payload)
    assert all(c._data is None for c in pickled)
    assert all(c.fault_site_arrays(chip) is not None for c in decoded)
    return {"arrays": lot.chips, "pickled": pickled, "decoded": decoded}


def adhoc_chips(chip, lot):
    """Eager chips mixing universe faults, ad-hoc sites and double forces."""
    universe = full_fault_universe(chip)
    branch = next(f for f in universe if f.is_branch)
    stem = next(f for f in universe if not f.is_branch and f.signal not in chip.inputs)
    pi = StuckAtFault(chip.inputs[0], 0)
    extra = [
        (fanout_one_branch(chip, 1),),
        (fanout_one_branch(chip, 0), universe[7]),
        # Two forces on one site: the later one wins, per site kind.
        (StuckAtFault(pi.signal, 1), pi),
        (stem, StuckAtFault(stem.signal, 1 - stem.value)),
        (branch, StuckAtFault(branch.signal, 1 - branch.value, gate=branch.gate, pin=branch.pin)),
    ]
    chips = list(lot.chips[:30])
    for k, faults in enumerate(extra):
        base = lot.chips[30 + k]
        chips.append(
            FabricatedChip(base.chip_id, base.defects, tuple(base.faults) + faults)
        )
    chips.extend(lot.chips[30 + len(extra) :])
    return chips


def reference_records(program, chips):
    return WaferTester(program, engine="compiled").test_lot(chips)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", ["arrays", "pickled", "decoded"])
def test_lot_records_match_compiled(chip, program, lot, pool, engine, variant):
    chips = lot_variants(chip, lot)[variant]
    reference = reference_records(program, lot.chips)
    assert any(r.first_fail is not None for r in reference)
    assert WaferTester(program, engine=engine).test_lot(chips) == reference
    pooled = WaferTester(program, engine=engine, executor=pool)
    assert pooled.test_lot(chips) == reference


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workers", [1, 2])
def test_adhoc_and_double_forces_match_compiled(chip, program, lot, pool, engine, workers):
    chips = adhoc_chips(chip, lot)
    reference = reference_records(program, chips)
    executor = pool if workers == 2 else None
    tester = WaferTester(program, engine=engine, executor=executor)
    assert tester.test_lot(chips) == reference


@pytest.mark.parametrize("engine", ENGINES)
def test_objects_payload_matches_soa(chip, program, lot, pool, engine):
    reference = reference_records(program, lot.chips)
    tester = WaferTester(
        program, engine=engine, executor=pool, payload_format="objects"
    )
    assert tester.test_lot(lot.chips) == reference


@pytest.mark.parametrize(
    "bogus",
    [
        StuckAtFault("no-such-signal", 1),
        StuckAtFault("no-such-signal", 0, gate="no-such-gate", pin=0),
        "bad-pin",
    ],
    ids=["stem", "gate", "pin"],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_bogus_sites_raise_like_compiled(chip, program, lot, engine, bogus):
    if bogus == "bad-pin":
        gate = next(n for n in chip.signals if n not in chip.inputs)
        bogus = StuckAtFault(chip.gate(gate).inputs[0], 1, gate=gate, pin=99)
    base = lot.chips[0]
    chips = [
        *lot.chips[1:4],
        FabricatedChip(base.chip_id, base.defects, tuple(base.faults) + (bogus,)),
    ]
    with pytest.raises(ValueError) as expected:
        reference_records(program, chips)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        WaferTester(program, engine=engine).test_lot(chips)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workers", [1, 2])
def test_fault_sim_universe_and_adhoc_faults(chip, engine, workers):
    """Universe members travel as indices; a list with an ad-hoc fault
    keeps objects — both must match the word-level reference."""
    patterns = random_patterns(chip, 80, seed=4)
    universe = full_fault_universe(chip)
    mixed = universe[:200] + [fanout_one_branch(chip, 0), fanout_one_branch(chip, 1)]
    for faults in (universe, mixed):
        reference = FaultSimulator(chip, engine="compiled").run(patterns, faults=faults)
        result = FaultSimulator(chip, engine=engine, workers=workers).run(
            patterns, faults=faults
        )
        assert result.first_detect == reference.first_detect


def test_tables_from_sites_match_fault_objects(chip, lot):
    """Gathered tables equal the tables built from the same faults as
    objects, field by field."""
    batch = BatchCompiledCircuit(chip)
    chips = [c for c in lot.chips if c.fault_count][:20]
    by_objects = batch.machine_tables([c.faults for c in chips])
    sites = np.concatenate([c.fault_site_arrays(chip)[0] for c in chips])
    pols = np.concatenate([c.fault_site_arrays(chip)[1] for c in chips])
    rows = np.repeat(np.arange(1, len(chips) + 1), [c.fault_count for c in chips])
    gathered = InjectionTables.from_sites(
        len(chips) + 1, rows, sites, pols, batch.site_table
    )
    for field in InjectionTables.__slots__[:-2]:
        assert np.array_equal(getattr(by_objects, field), getattr(gathered, field)), field
