"""The object-free batch path must match the word-level reference exactly.

Lot testing and fault simulation feed the batch circuit injection tables
gathered from per-site tables — from a lot's fault-index arrays and
from fault objects encoded as universe indices.  Every one
of those inputs must give first-fail records (and first-detect vectors)
identical to the word-level oracles of ``tests/compiled_oracle.py``, at
one worker and through the pool, on the NumPy kernel and on the numba
kernel where it is installed.  An ad-hoc site outside the universe is
rejected with a ``ValueError`` naming the fault.
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
from repro.manufacturing.lot import (
    FabricatedLot,
    fabricate_lot,
    pack_lot_chips,
    unpack_lot_chips,
)
from repro.manufacturing.wafer import FabricatedChip
from repro.runtime import ParallelExecutor
from repro.simulator import BatchCompiledCircuit
from repro.simulator.kernels import InjectionTables
from repro.tester.tester import WaferTester, _LotSites

from compiled_oracle import CompiledEngine, lot_records

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
    assert all(c._data.layout.netlist is chip for c in decoded)
    return {"arrays": lot.chips, "pickled": pickled, "decoded": decoded}


def with_extra_faults(lot, extra):
    """The lot's chips as eager chips, chip ``30 + k`` carrying ``extra[k]``
    on top of its own faults."""
    chips = list(lot.chips[:30])
    for k, faults in enumerate(extra):
        base = lot.chips[30 + k]
        chips.append(
            FabricatedChip(base.chip_id, base.defects, tuple(base.faults) + faults)
        )
    chips.extend(lot.chips[30 + len(extra) :])
    return chips


def double_force_chips(chip, lot):
    """Eager chips with two forces on one site, per site kind: the later
    one wins."""
    universe = full_fault_universe(chip)
    branch = next(f for f in universe if f.is_branch)
    stem = next(f for f in universe if not f.is_branch and f.signal not in chip.inputs)
    pi = StuckAtFault(chip.inputs[0], 0)
    return with_extra_faults(
        lot,
        [
            (StuckAtFault(pi.signal, 1), pi),
            (stem, StuckAtFault(stem.signal, 1 - stem.value)),
            (branch, StuckAtFault(branch.signal, 1 - branch.value, gate=branch.gate, pin=branch.pin)),
        ],
    )


def adhoc_lots(chip, lot):
    """``(ad-hoc fault, eager chips carrying it)`` pairs: alone on a chip
    and next to a universe fault."""
    universe = full_fault_universe(chip)
    alone, paired = fanout_one_branch(chip, 1), fanout_one_branch(chip, 0)
    return [
        (alone, with_extra_faults(lot, [(alone,)])),
        (paired, with_extra_faults(lot, [(paired, universe[7])])),
    ]


def reference_records(program, chips):
    return lot_records(program, chips)


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
    """Double forces match the oracle; an ad-hoc site is rejected."""
    executor = pool if workers == 2 else None
    tester = WaferTester(program, engine=engine, executor=executor)
    chips = double_force_chips(chip, lot)
    assert tester.test_lot(chips) == reference_records(program, chips)
    for fault, chips in adhoc_lots(chip, lot):
        with pytest.raises(ValueError, match=re.escape(str(fault))):
            tester.test_lot(chips)


@pytest.mark.parametrize("engine", ENGINES)
def test_objects_payload_matches_soa(chip, program, lot, pool, engine):
    """One ad-hoc chip makes the shard encoder reject the whole lot
    before anything crosses the pipe; the pool keeps serving SoA runs,
    which match the oracle."""
    tester = WaferTester(program, engine=engine, executor=pool)
    reference = reference_records(program, lot.chips)
    assert tester.test_lot(lot.chips) == reference
    base = lot.chips[0]
    fault = fanout_one_branch(chip, 1)
    mixed = [*lot.chips, FabricatedChip(base.chip_id, base.defects, (fault,))]
    with pytest.raises(ValueError, match=re.escape(str(fault))):
        _LotSites.of_lot(chip, FabricatedLot.of_chips(mixed))
    with pytest.raises(ValueError, match=re.escape(str(fault))):
        tester.test_lot(mixed)
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
    """Universe members travel as indices and match the word-level
    reference; a list with an ad-hoc fault is rejected."""
    patterns = random_patterns(chip, 80, seed=4)
    universe = full_fault_universe(chip)
    simulator = FaultSimulator(chip, engine=engine, workers=workers)
    reference = FaultSimulator(chip, engine=CompiledEngine(chip)).run(
        patterns, faults=universe
    )
    result = simulator.run(patterns, faults=universe)
    assert result.first_detect == reference.first_detect
    for fault in (fanout_one_branch(chip, 0), fanout_one_branch(chip, 1)):
        with pytest.raises(ValueError, match=re.escape(str(fault))):
            simulator.run(patterns, faults=universe[:200] + [fault])


def test_tables_from_sites_match_fault_objects(chip, lot):
    """Gathered tables equal the tables built from the same faults as
    objects, field by field."""
    batch = BatchCompiledCircuit(chip)
    chips = [c for c in lot.chips if c.fault_count][:20]
    by_objects = batch.machine_tables([c.faults for c in chips])
    faults = np.concatenate([c._data.fault_indices for c in chips])
    rows = np.repeat(np.arange(1, len(chips) + 1), [c.fault_count for c in chips])
    gathered = InjectionTables.from_sites(len(chips) + 1, rows, faults, batch.site_table)
    for field in InjectionTables.__slots__:
        if field.startswith("_"):  # lazily built layouts
            continue
        assert np.array_equal(getattr(by_objects, field), getattr(gathered, field)), field
