"""``Netlist.fanout`` / ``fanout_counts`` read a cached one-pass sink map.

The map must answer exactly what a full scan of every gate's input pins
does, sink order included (declaration order, pins in order), and must
be dropped whenever the netlist grows.  The callers that lean on it —
the fault universe, critical-path tracing, SCOAP — must give the same
results as on a netlist that scans.
"""

import pytest

from repro.atpg.random_gen import random_patterns
from repro.atpg.scoap import ScoapAnalysis
from repro.circuit.gates import GateType
from repro.circuit.generators import array_multiplier, c17, synthetic_chip
from repro.circuit.netlist import Netlist
from repro.faults.model import full_fault_universe

from critical_path_oracle import CriticalPathTracer


def scan_fanout(netlist, name):
    """The brute-force answer: scan every gate's input pins."""
    return [
        (gate.name, pin)
        for gate in (netlist.gate(n) for n in netlist.signals)
        for pin, src in enumerate(gate.inputs)
        if src == name
    ]


class ScanNetlist(Netlist):
    """A netlist whose fanout queries scan every gate, uncached."""

    def fanout(self, name):
        return scan_fanout(self, name)

    def fanout_counts(self):
        return {name: len(scan_fanout(self, name)) for name in self.signals}


def as_scan_netlist(netlist):
    copy = ScanNetlist(netlist.name)
    for name in netlist.signals:
        gate = netlist.gate(name)
        if gate.gate_type is GateType.INPUT:
            copy.add_input(name)
        else:
            copy.add_gate(name, gate.gate_type, gate.inputs)
    copy.set_outputs(netlist.outputs)
    return copy


NETLISTS = {
    "c17": c17,
    "mult4": lambda: array_multiplier(4),
    "syn1": lambda: synthetic_chip(scale=1, seed=3),
}


@pytest.mark.parametrize("make", NETLISTS.values(), ids=NETLISTS.keys())
def test_fanout_matches_scan_in_sink_order(make):
    net = make()
    for name in net.signals:
        assert net.fanout(name) == scan_fanout(net, name), name
    assert net.fanout_counts() == {
        name: len(scan_fanout(net, name)) for name in net.signals
    }
    assert net.fanout("no-such-signal") == []


def test_fanout_result_is_a_copy():
    net = c17()
    sinks = net.fanout("3")
    sinks.clear()
    assert net.fanout("3") == scan_fanout(net, "3")


def test_growing_the_netlist_resets_the_map():
    net = Netlist("grow")
    net.add_input("a")
    net.add_gate("x", GateType.NOT, ["a"])
    assert net.fanout("a") == [("x", 0)]
    assert net.fanout_counts() == {"a": 1, "x": 0}
    net.add_gate("y", GateType.AND, ["a", "x"])
    assert net.fanout("a") == [("x", 0), ("y", 0)]
    assert net.fanout("x") == [("y", 1)]
    net.add_input("b")
    assert net.fanout_counts() == {"a": 2, "x": 1, "y": 0, "b": 0}
    net.add_gate("z", GateType.OR, ["b", "y"])
    assert net.fanout("b") == [("z", 0)]
    assert net.fanout("y") == [("z", 1)]


@pytest.mark.parametrize("make", NETLISTS.values(), ids=NETLISTS.keys())
def test_fault_universe_unchanged(make):
    net = make()
    assert full_fault_universe(net) == full_fault_universe(as_scan_netlist(net))


@pytest.mark.parametrize("make", NETLISTS.values(), ids=NETLISTS.keys())
def test_scoap_unchanged(make):
    net = make()
    mapped = ScoapAnalysis(net)
    scanned = ScoapAnalysis(as_scan_netlist(net))
    assert mapped.cc0 == scanned.cc0
    assert mapped.cc1 == scanned.cc1
    assert mapped.co == scanned.co
    assert mapped.input_weights() == scanned.input_weights()


@pytest.mark.parametrize("stem_analysis", ["exact", "approximate"])
@pytest.mark.parametrize("make", NETLISTS.values(), ids=NETLISTS.keys())
def test_critical_path_unchanged(make, stem_analysis):
    net = make()
    patterns = random_patterns(net, 8, seed=5)
    mapped = CriticalPathTracer(net, stem_analysis=stem_analysis)
    scanned = CriticalPathTracer(
        as_scan_netlist(net), stem_analysis=stem_analysis
    )
    for pattern in patterns:
        assert mapped.detected_faults(pattern) == scanned.detected_faults(
            pattern
        )
