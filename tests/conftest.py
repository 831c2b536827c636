"""Suite-wide fixtures.

Two things live here:

* The shared serving-tier fixtures (``chip`` / ``twin`` / ``alu`` /
  ``recipe`` / ``patterns`` / ``reference``) used by the server, gateway, and
  router suites — one definition instead of three copies, and the
  expensive ``reference`` pipeline (the direct-:class:`Session` run
  every front end must match bit-for-bit) is built once per session.
* The /dev/shm hygiene invariant.

Every shared-memory segment this codebase creates is named ``repro_*``
(see ``repro.runtime.wire._create_segment``), precisely so that leaks
are auditable: any ``repro_*`` name present after the suite that was
not present before it is a segment somebody created and nobody
released — a real bug (the ownership discipline in
:mod:`repro.runtime.wire` exists to make that impossible).  This
session fixture turns that audit into a standing invariant instead of
a per-PR manual check.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import c17, simple_alu
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.manufacturing.process import ProcessRecipe


@pytest.fixture(scope="session")
def chip():
    return c17()


@pytest.fixture(scope="session")
def twin(chip):
    """c17 with ``22 = NAND(10, 16)`` made a NOR: same signal names, another circuit."""
    netlist = Netlist(chip.name)
    for name in chip.inputs:
        netlist.add_input(name)
    for gate in chip:
        if gate.gate_type is not GateType.INPUT:
            kind = GateType.NOR if gate.name == "22" else gate.gate_type
            netlist.add_gate(gate.name, kind, gate.inputs)
    netlist.set_outputs(chip.outputs)
    return netlist


@pytest.fixture(scope="session")
def alu():
    return simple_alu(2)


@pytest.fixture(scope="session")
def recipe():
    return ProcessRecipe(
        defect_density=3.0, clustering=0.5, mean_defect_radius=0.15
    )


@pytest.fixture(scope="session")
def patterns(chip):
    return random_patterns(chip, 32, seed=3)


@pytest.fixture(scope="session")
def reference(chip, recipe, patterns):
    """The direct in-process pipeline every front end must match bit-for-bit."""
    with Session(workers=1) as session:
        lot = session.fabricate(chip, recipe, 12, dies_per_wafer=4, seed=7)
        program = session.build_program(chip, patterns)
        result = session.test(lot, program)
        report = session.run_experiment("fig1")
    return lot, program, result, report


_SHM_DIR = "/dev/shm"


def _repro_segments() -> set[str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith("repro_")}


@pytest.fixture(scope="session", autouse=True)
def shm_hygiene():
    """Fail the session if the suite leaks ``repro_*`` shm segments."""
    if not os.path.isdir(_SHM_DIR):
        yield  # platform without POSIX shm — nothing to audit
        return
    before = _repro_segments()
    yield
    # Segment lifetime is tied to decoded arrays (abandoned mappings
    # unlink on last reference), so collect before judging; give the
    # multiprocessing resource_tracker a beat to reap crash leftovers.
    gc.collect()
    leaked = _repro_segments() - before
    if leaked:
        time.sleep(1.0)
        gc.collect()
        leaked = _repro_segments() - before
    assert not leaked, (
        f"test suite leaked {len(leaked)} /dev/shm segment(s): "
        f"{sorted(leaked)}"
    )
