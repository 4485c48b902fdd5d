import pytest

from perfbench import stats


def test_nearest_rank_picks_the_ceiling_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.nearest_rank(values, 0.5) == 50
    assert stats.nearest_rank(values, 0.99) == 99
    assert stats.nearest_rank(values, 1.0) == 100
    assert stats.nearest_rank([7.0], 0.5) == 7.0


def test_nearest_rank_refuses_an_empty_sample():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_p99_needs_ten_samples_beyond_it():
    assert not stats.supported(999, 0.99)
    assert stats.supported(1000, 0.99)
    assert stats.percentile(list(range(999)), 0.99) is None
    # 1000 samples: rank 990 (value 989), with 10 samples beyond it.
    assert stats.percentile(list(range(1000)), 0.99) == 989


def test_p50_needs_twenty_samples():
    assert stats.percentile(list(range(19)), 0.5) is None
    assert stats.percentile(list(range(20)), 0.5) == 9


def test_percentile_sorts_its_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert stats.percentile(values, 0.5) == 3.0


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
