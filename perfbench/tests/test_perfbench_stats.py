"""The percentile rule, failure counting and reference-speed scaling."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import REFERENCE_S, OpRecord, count_failures, tail_percentile  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 100), 0.9) is None  # 99 samples: 9 beyond rank 90
    assert tail_percentile(range(1, 101), 0.9) == 90.0  # 100 samples: 10 beyond
    assert tail_percentile(range(1, 20), 0.5) is None
    assert tail_percentile(range(1, 21), 0.5) == 10.0


def test_tail_percentile_ignores_sample_order():
    samples = list(range(200, 0, -1))
    assert tail_percentile(samples, 0.95) == 190.0


def test_tail_percentile_rejects_out_of_range_quantiles():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 100, 1.0)


def _records(outcomes):
    return [OpRecord(i, 0.1, 1 if ok else 0, ok) for i, ok in enumerate(outcomes)]


def test_failures_count_failed_ops_and_leaks():
    records = _records([True, False, True, True])
    assert count_failures(records) == (4, 1)
    assert count_failures(records, leaks=2) == (4, 3)
    assert count_failures(_records([True] * 4)) == (4, 0)


def test_failures_never_exceed_attempts():
    assert count_failures(_records([False, True]), leaks=5) == (2, 2)


def test_reference_seconds_scale_by_the_speed_reading():
    assert OpRecord(0, 0.3, 1, True).ref_seconds == pytest.approx(0.3)
    slow = OpRecord(0, 0.3, 1, True, speed_s=2 * REFERENCE_S)
    assert slow.ref_seconds == pytest.approx(0.15)
