import statistics

import pytest

import stats


def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.median(x for x in (5.0,)) == 5.0


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.5], 99) == 7.5
    # rank ceil(0.99 * 3) = 3: the maximum of a small sample
    assert stats.percentile([3, 1, 2], 99) == 3


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        stats.percentile([1, 2, 3], q)


def test_quartiles_match_statistics_quantiles():
    values = [10.0, 12.0, 9.0, 11.0, 30.0, 10.5, 9.5, 11.5, 10.2, 9.9]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_interquartile_range_over_median():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([2.0] * 10) == 0.0


def test_quartiles_need_two_values():
    with pytest.raises(ValueError):
        stats.quartiles([1.0])
