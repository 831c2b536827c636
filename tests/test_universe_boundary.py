"""Faults outside the fault universe are rejected the same way everywhere.

Below the API every fault travels as a universe index, so a legal site
the universe does not list — a branch of a fanout-1 signal, electrically
the stem — cannot be encoded.  Every entry point that takes fault
objects must reject it with the one ``ValueError`` of
:func:`~repro.faults.model.universe_indices`, naming the fault, whatever
the transport: in-process and pooled lot testing and fault simulation,
the binary server protocol's lot encoder and the gateway's JSON one.
"""

import re

import pytest

from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe, universe_indices
from repro.gateway.codec import lot_to_json
from repro.manufacturing.lot import FabricatedLot, fabricate_lot
from repro.manufacturing.wafer import FabricatedChip
from repro.server.protocol import pack_lot
from repro.tester.program import TestProgram
from repro.tester.tester import WaferTester

# Signal "1" of c17 has one sink, so its branch is not a universe site.
ADHOC = StuckAtFault("1", 1, gate="10", pin=0)

ENTRY_POINTS = {
    "test_lot-1": lambda env: env["tester"].test_lot(env["lot"], workers=1),
    "test_lot-2": lambda env: env["tester"].test_lot(env["lot"], workers=2),
    "fault_sim-1": lambda env: env["simulator"].run(
        env["patterns"], faults=env["faults"], workers=1
    ),
    "fault_sim-2": lambda env: env["simulator"].run(
        env["patterns"], faults=env["faults"], workers=2
    ),
    "pack_lot": lambda env: pack_lot(env["chip"], env["lot"]),
    "lot_to_json": lambda env: lot_to_json(env["chip"], env["lot"]),
}


@pytest.fixture(scope="module")
def env(chip, recipe, patterns):
    """c17, its program, and a fabricated lot plus one eager chip carrying
    the ad-hoc fault."""
    lot = fabricate_lot(chip, recipe, 24, dies_per_wafer=8, seed=2)
    base = lot.chips[0]
    adhoc = FabricatedChip(base.chip_id, base.defects, (ADHOC,))
    return {
        "chip": chip,
        "patterns": patterns,
        "lot": FabricatedLot(recipe, [*lot.chips, adhoc]),
        "tester": WaferTester(TestProgram.build(chip, patterns)),
        "simulator": FaultSimulator(chip),
        "faults": [*full_fault_universe(chip), ADHOC],
    }


def test_adhoc_fault_is_a_legal_site_outside_the_universe(chip):
    assert ADHOC not in full_fault_universe(chip)
    assert chip.fanout(ADHOC.signal) == [(ADHOC.gate, ADHOC.pin)]
    with pytest.raises(ValueError) as rejected:
        universe_indices(chip, [ADHOC])
    assert str(rejected.value) == f"fault {ADHOC} is not in the fault universe of 'c17'"


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_transport_raises_the_same_error(env, entry):
    message = f"fault {ADHOC} is not in the fault universe of 'c17'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](env)


def test_bogus_sites_keep_their_validation_message(chip):
    with pytest.raises(ValueError, match="no signal named 'nope'"):
        universe_indices(chip, [StuckAtFault("nope", 0)])
    with pytest.raises(ValueError, match="has 2 input pins, no pin 5"):
        universe_indices(chip, [StuckAtFault("1", 0, gate="10", pin=5)])
