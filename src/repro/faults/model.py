"""Stuck-at fault sites and fault-universe enumeration.

A fault site is either a *stem* (the signal as driven by its gate or
primary input) or a *branch* (one fanout connection into a specific gate
input pin).  Branches are distinct sites only where fanout exceeds one —
with a single sink, the branch is electrically the stem.

The full single-stuck-at universe of a circuit is two faults (s-a-0,
s-a-1) per distinct site.  This count is the paper's ``N``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro.circuit.netlist import Netlist
from repro.simulator.sites import validate_fault_site

__all__ = [
    "StuckAtFault",
    "full_fault_universe",
    "fault_site_lookup",
    "universe_indices",
    "netlist_memo",
    "checkpoint_faults",
]

T = TypeVar("T")


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault.

    ``signal`` is the driving signal.  For a stem fault, ``gate`` and
    ``pin`` are ``None``; for a branch fault they identify the sink gate
    and its input-pin index.  ``value`` is the stuck level (0 or 1).
    """

    signal: str
    value: int
    gate: str | None = None
    pin: int | None = None

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.value!r}")
        if (self.gate is None) != (self.pin is None):
            raise ValueError("branch faults need both gate and pin; stems neither")

    @property
    def is_branch(self) -> bool:
        return self.gate is not None

    @property
    def sort_key(self) -> tuple:
        """Total order usable with ``sorted`` (None fields normalized)."""
        return (
            self.signal,
            self.value,
            self.gate if self.gate is not None else "",
            self.pin if self.pin is not None else -1,
        )

    def __str__(self) -> str:
        site = (
            f"{self.signal}->{self.gate}.{self.pin}" if self.is_branch else self.signal
        )
        return f"{site}/sa{self.value}"


# Per-netlist memos.  Keyed weakly so a dropped netlist releases its
# entries, and stamped with the netlist's revision so an edited netlist
# rebuilds them.  The enumerated order is deterministic for a given
# netlist, which is what lets a universe index stand in for a fault
# object across process and socket boundaries.
_UNIVERSE_CACHE: "weakref.WeakKeyDictionary[Netlist, tuple]" = (
    weakref.WeakKeyDictionary()
)
_SITE_LOOKUP_CACHE: "weakref.WeakKeyDictionary[Netlist, tuple]" = (
    weakref.WeakKeyDictionary()
)


def netlist_memo(
    cache: "weakref.WeakKeyDictionary[Netlist, tuple]",
    netlist: Netlist,
    build: Callable[[Netlist], T],
) -> T:
    """``build(netlist)``, memoised in ``cache`` per netlist revision.

    The one memo rule of the per-netlist fault caches: an entry is
    reused while :attr:`~repro.circuit.netlist.Netlist.revision` is the
    one it was built at, and rebuilt once the netlist has been edited.
    """
    entry = cache.get(netlist)
    if entry is None or entry[0] != netlist.revision:
        entry = (netlist.revision, build(netlist))
        cache[netlist] = entry
    return entry[1]


def _enumerate_universe(netlist: Netlist) -> list[StuckAtFault]:
    netlist.validate()
    faults: list[StuckAtFault] = []
    fanout_counts = netlist.fanout_counts()
    for signal in netlist.signals:
        for value in (0, 1):
            faults.append(StuckAtFault(signal, value))
        if fanout_counts[signal] > 1:
            for sink, pin in netlist.fanout(signal):
                for value in (0, 1):
                    faults.append(StuckAtFault(signal, value, gate=sink, pin=pin))
    return faults


def full_fault_universe(netlist: Netlist) -> list[StuckAtFault]:
    """Enumerate every single stuck-at fault of the circuit.

    Stems: two faults per signal.  Branches: two faults per fanout
    connection of signals whose fanout exceeds one.  The length of the
    returned list is the paper's ``N`` for this circuit; both levels of
    a site are consecutive (stuck-at-0 first).

    The enumeration runs once per netlist revision; each call returns a
    fresh list of the memoised fault objects, so callers may mutate it.
    """
    return list(netlist_memo(_UNIVERSE_CACHE, netlist, _enumerate_universe))


def fault_site_lookup(netlist: Netlist) -> dict[StuckAtFault, int]:
    """``{fault: universe index}`` for ``netlist``, memoised per revision.

    The inverse of :func:`full_fault_universe`'s enumeration — the
    encoder side of the site-index wire representation.  Both stuck
    levels of a site are distinct entries.  The returned dict is
    shared and must be treated as immutable.
    """
    return netlist_memo(
        _SITE_LOOKUP_CACHE,
        netlist,
        lambda n: {fault: index for index, fault in enumerate(full_fault_universe(n))},
    )


def universe_indices(
    netlist: Netlist, faults: Iterable[StuckAtFault]
) -> np.ndarray:
    """``faults`` as an ``int32`` array of :func:`full_fault_universe` indices.

    The one fault encoding below the API: the fault simulator, the
    tester, the batch circuit and the lot encoders all turn fault
    objects into universe indices here.  A fault that misses the lookup
    is validated first, so a bogus site raises the same ``ValueError``
    as every engine; a legal site outside the universe (a branch of a
    fanout-1 signal, electrically its stem) raises ``ValueError`` too.
    """
    lookup = fault_site_lookup(netlist)
    try:
        return np.fromiter((lookup[fault] for fault in faults), dtype=np.int32)
    except KeyError as exc:
        (fault,) = exc.args
        validate_fault_site(netlist, fault)
        raise ValueError(
            f"fault {fault} is not in the fault universe of {netlist.name!r}"
        ) from None


def checkpoint_faults(netlist: Netlist) -> list[StuckAtFault]:
    """The checkpoint-theorem reduction: faults on primary inputs and
    fanout branches only.

    For fanout-free regions, a test set detecting all checkpoint faults
    detects all stuck-at faults; checkpoints are the classical cheap
    dominance-based reduction.  Exposed for ablation against the full and
    equivalence-collapsed universes.
    """
    netlist.validate()
    faults: list[StuckAtFault] = []
    fanout_counts = netlist.fanout_counts()
    for signal in netlist.inputs:
        for value in (0, 1):
            faults.append(StuckAtFault(signal, value))
    for signal in netlist.signals:
        if fanout_counts[signal] > 1:
            for sink, pin in netlist.fanout(signal):
                for value in (0, 1):
                    faults.append(StuckAtFault(signal, value, gate=sink, pin=pin))
    return faults
