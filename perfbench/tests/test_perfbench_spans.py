"""Span self-time arithmetic and runtime patching."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, op_breakdown, self_times  # noqa: E402


def test_nested_children_are_subtracted_from_the_parent():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 8]
    spans = [(0.0, 10.0, 0), (1.0, 5.0, 1), (2.0, 3.0, 2), (6.0, 8.0, 1)]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 1.0, 2.0])


def test_overlapping_siblings_split_the_overlap_once():
    # Two children of the root overlap on [3, 4]: the later-started one
    # owns it, so the self times still sum to the root's duration.
    spans = [(0.0, 10.0, 0), (1.0, 4.0, 1), (3.0, 6.0, 1)]
    own = self_times(spans)
    assert own == pytest.approx([5.0, 2.0, 3.0])
    assert sum(own) == pytest.approx(10.0)


def test_empty_and_zero_length_spans_take_no_time():
    assert self_times([]) == []
    assert self_times([(0.0, 2.0, 0), (1.0, 1.0, 1)]) == pytest.approx([2.0, 0.0])


def test_op_breakdown_partitions_wall_time_into_layers():
    spans = [
        ("op", 0.0, 10.0, 0),
        ("api.test", 1.0, 9.0, 1),
        ("tester.test_lot", 2.0, 8.0, 2),
        ("simulator.run_batch", 3.0, 4.0, 3),
        ("simulator.run_batch", 3.5, 5.0, 3),  # overlaps its sibling
        ("gateway.fabricate", 9.5, 12.0, 1),  # outlives the op: clipped
    ]
    parts = op_breakdown(spans)
    assert parts["wall_s"] == 10.0
    assert parts["self_s"] == pytest.approx(
        {"api": 2.0, "tester": 4.0, "simulator": 2.0, "gateway": 0.5}
    )
    assert parts["unattributed_s"] == pytest.approx(1.5)
    assert parts["unattributed_s"] + sum(parts["self_s"].values()) == pytest.approx(10.0)
    assert parts["calls"]["simulator.run_batch"] == 2
    assert parts["inclusive_s"]["simulator.run_batch"] == pytest.approx(2.5)


def test_op_breakdown_needs_one_root():
    with pytest.raises(ValueError):
        op_breakdown([("api.test", 0.0, 1.0, 1)])


class Widget:
    def work(self, n):
        return helper(n) + 1


def helper(n):
    return 2 * n


def test_tracer_records_nested_spans_and_restores_originals():
    original_work, original_helper = Widget.__dict__["work"], helper
    tracer = Tracer()
    tracer.patch_method(Widget, "work", "api.work")
    tracer.patch_function(helper, "core.helper", lambda t, a, k, r: t.count("core.calls"))
    widget = Widget()
    root = tracer.begin_op(7)
    assert widget.work(3) == 7
    tracer.end(root)
    tracer.patch_instance(widget, "work", "server.work")
    assert widget.work(1) == 3
    tracer.uninstall()
    assert Widget.__dict__["work"] is original_work
    assert sys.modules[__name__].helper is original_helper
    assert "work" not in vars(widget)
    spans = tracer.op_spans()[7]
    assert [(name, depth) for name, _, _, depth in spans[:3]] == [
        ("op", 0), ("api.work", 1), ("core.helper", 2),
    ]
    assert tracer.counters[(7, "core.calls")] == 2
    parts = op_breakdown(spans[:3])
    assert set(parts["self_s"]) == {"api", "core"}
