import pytest

from perfbench import stats


def test_percentile_interpolates_between_order_statistics():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 25) == 2.0
    assert stats.percentile([1.0, 2.0], 50) == 1.5


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    tail = stats.tail(values)
    assert tail == {"value": 90.0, "percentile": 90.0, "samples": 100}
    beyond = [v for v in values if v > tail["value"]]
    assert len(beyond) == 10


def test_tail_uses_the_eleventh_largest_for_odd_sizes():
    values = [float(v) for v in range(37)]
    tail = stats.tail(values)
    assert tail["value"] == 26.0
    assert tail["samples"] == 37
    assert tail["percentile"] == pytest.approx(100.0 * 27 / 37)


def test_tail_falls_back_to_the_maximum_with_few_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "samples": 3}
    assert stats.tail([float(v) for v in range(10)])["value"] == 9.0
    assert stats.tail([float(v) for v in range(11)])["value"] == 0.0

