"""Structural equivalence collapsing of stuck-at faults.

Two faults are equivalent when every test detecting one detects the other;
equivalent faults are indistinguishable and only one representative needs
simulation.  The classical local rules per gate:

=========  ==========================================
gate       equivalence
=========  ==========================================
AND        any input s-a-0  ==  output s-a-0
NAND       any input s-a-0  ==  output s-a-1
OR         any input s-a-1  ==  output s-a-1
NOR        any input s-a-1  ==  output s-a-0
NOT        input s-a-v      ==  output s-a-(1-v)
BUF        input s-a-v      ==  output s-a-v
XOR/XNOR   (no structural equivalences)
=========  ==========================================

Applying the rules transitively via union-find partitions the fault
universe into equivalence classes; collapsing keeps one representative per
class.  Collapsed coverage percentages differ slightly from full-universe
percentages (classes have unequal sizes); the fault simulator can expand a
collapsed result back to the full universe for exact accounting.

The partition is memoised per netlist revision as two index arrays over
the :func:`~repro.faults.model.full_fault_universe` enumeration (see
:func:`collapsed_indices`): the union-find runs once per netlist, and a
collapsed fault simulation is a run on the representatives' indices
followed by one gather.  :func:`equivalence_classes` and
:func:`collapse_equivalent` rebuild their object views from the arrays.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.faults.model import StuckAtFault, full_fault_universe, netlist_memo

__all__ = ["equivalence_classes", "collapse_equivalent", "collapsed_indices"]

_COLLAPSE_CACHE: "weakref.WeakKeyDictionary[Netlist, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _partition(netlist: Netlist) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over universe indices; see :func:`collapsed_indices`.

    A site's stuck-at-``v`` fault is the index of its stuck-at-0 entry
    plus ``v`` (the universe lists both levels of a site consecutively),
    so no fault object is built or hashed.
    """
    universe = full_fault_universe(netlist)
    fanout_counts = netlist.fanout_counts()
    # Stuck-at-0 index of every stem (by signal) and branch (by sink pin).
    stem_at: dict[str, int] = {}
    branch_at: dict[tuple[str, int], int] = {}
    for i in range(0, len(universe), 2):
        fault = universe[i]
        if fault.gate is None:
            stem_at[fault.signal] = i
        else:
            branch_at[fault.gate, fault.pin] = i
    parent = list(range(len(universe)))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # Deterministic representative: the lexicographically smaller.
            if universe[rb].sort_key < universe[ra].sort_key:
                ra, rb = rb, ra
            parent[rb] = ra

    def input_site(gate_name: str, pin: int, source: str) -> int:
        """Stuck-at-0 index of the site feeding pin ``pin`` of a gate."""
        if fanout_counts[source] > 1:
            return branch_at[gate_name, pin]
        return stem_at[source]

    for gate in netlist:
        gtype = gate.gate_type
        if gtype is GateType.INPUT:
            continue
        out_site = stem_at[gate.name]
        if gtype in (GateType.BUF, GateType.NOT):
            site = input_site(gate.name, 0, gate.inputs[0])
            invert = gtype is GateType.NOT
            for v in (0, 1):
                union(site + v, out_site + ((1 - v) if invert else v))
            continue
        ctrl = gtype.controlling_value
        if ctrl is None:  # XOR / XNOR: no structural equivalence
            continue
        out_fault = out_site + gtype.controlled_response
        for pin, source in enumerate(gate.inputs):
            union(input_site(gate.name, pin, source) + ctrl, out_fault)

    # Classes are numbered in universe order of their first member; the
    # dict's keys (the roots) are then the representatives in class order.
    position: dict[int, int] = {}
    class_of = np.fromiter(
        (position.setdefault(find(i), len(position)) for i in range(len(universe))),
        dtype=np.intp,
        count=len(universe),
    )
    reps = np.fromiter(position, dtype=np.int32, count=len(position))
    reps.flags.writeable = False
    class_of.flags.writeable = False
    return reps, class_of


def collapsed_indices(netlist: Netlist) -> tuple[np.ndarray, np.ndarray]:
    """The equivalence partition as ``(representatives, class_of)`` arrays.

    ``representatives[c]`` is the universe index of class ``c``'s
    representative (its member with the smallest
    :attr:`~repro.faults.model.StuckAtFault.sort_key`), classes in
    universe order of their first member; ``class_of[i]`` is the class
    of universe index ``i``.  So a first-detect vector over the
    representatives expands to the full universe as
    ``first[class_of]``.  Memoised per netlist revision; the arrays are
    read-only and shared.
    """
    return netlist_memo(_COLLAPSE_CACHE, netlist, _partition)


def equivalence_classes(
    netlist: Netlist,
) -> dict[StuckAtFault, list[StuckAtFault]]:
    """Partition the full fault universe into structural equivalence classes.

    Returns ``{representative: [members...]}``; singletons included.
    Each class's representative is its member with the smallest
    :attr:`~repro.faults.model.StuckAtFault.sort_key`; classes appear in
    universe order of their first member, members in universe order.
    Built from :func:`collapsed_indices`.
    """
    universe = full_fault_universe(netlist)
    reps, class_of = collapsed_indices(netlist)
    members: list[list[StuckAtFault]] = [[] for _ in range(len(reps))]
    for fault, c in zip(universe, class_of.tolist()):
        members[c].append(fault)
    return {universe[r]: group for r, group in zip(reps.tolist(), members)}


def collapse_equivalent(netlist: Netlist) -> list[StuckAtFault]:
    """Return one representative fault per equivalence class, sorted.

    The ratio ``len(collapsed) / len(full)`` is typically 0.5-0.7 for
    NAND-heavy logic — the same reduction production fault simulators of
    the paper's era applied before simulation.
    """
    universe = full_fault_universe(netlist)
    reps, _ = collapsed_indices(netlist)
    return sorted((universe[r] for r in reps.tolist()), key=lambda f: f.sort_key)
