import pytest

from pb.stats import percentile, spread, tail, tail_percentile, valid_name, valid_unit


def test_tail_leaves_ten_samples_beyond():
    # 27 reproduce invocations: p62 is the highest whole percentile with
    # ten samples past it (p63 would leave nine).
    assert tail_percentile(27) == 62
    values = list(range(1, 28))
    value, q, count = tail(values)
    assert (q, count) == (62, 27)
    assert sum(1 for v in values if v > value) == 10


def test_tail_is_capped():
    # 200 campaign cells: p95 leaves exactly ten beyond it.
    assert tail_percentile(200) == 95
    assert tail_percentile(199) == 94
    assert tail_percentile(4000) == 95


def test_tail_falls_back_to_median_on_few_samples():
    assert tail_percentile(12) == 50
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50, 3)


def test_percentile_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([5, 1, 4, 2, 3], 100) == 5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0


@pytest.mark.parametrize("name", ["wall_s", "cache.hit_rate", "profile.sim-other", "9lives"])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    assert all(valid_unit(u) for u in ("s", "ms", "1/s", "count", "%", "MB"))
    assert not valid_unit("per second")
    assert not valid_unit("x" * 17)
