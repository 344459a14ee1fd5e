"""Hand-made inputs for the benchmark's arithmetic.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_stats.py -q
"""

import statistics

import pytest

import stats


def test_median_and_quartiles_match_the_drivers_definition():
    values = [3.0, 1.0, 2.0, 5.0, 4.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    assert stats.median(values) == 5.5
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3) == (2.75, 8.25)


def test_single_sample_is_its_own_quartiles():
    assert stats.quartiles([4.2]) == (4.2, 4.2)
    assert stats.summarize([4.2]) == {"value": 4.2, "q1": 4.2, "q3": 4.2, "n": 1}


def test_empty_samples_are_refused():
    for fn in (stats.median, stats.quartiles, lambda v: stats.percentile(v, 50)):
        with pytest.raises(ValueError):
            fn([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))          # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7, 1, 3], 50) == 3
    assert stats.percentile([7, 1, 3], 1) == 1
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    # 1000 samples leave exactly 10 beyond the 99th percentile.
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(999) == 95.0
    # 200 samples: 10 beyond p95 (rank 190), so p95 stands.
    assert stats.supported_percentile(200) == 95.0
    assert stats.supported_percentile(199) == 90.0
    assert stats.supported_percentile(100) == 90.0
    assert stats.supported_percentile(40) == 75.0
    assert stats.supported_percentile(39) == 50.0
    assert stats.supported_percentile(5) == 50.0


def test_self_time_is_duration_minus_children():
    spans = [
        # name, start, end, id, parent, request
        ("run_one", 0, 100, 0, None, 7),
        ("query", 200, 270, 1, 0, 7),      # re-measured child of run_one
        ("evaluate", 300, 320, 2, 1, 7),   # child of query
        ("encode", 400, 450, 3, None, 7),
    ]
    own = stats.self_times(spans)
    assert own == {
        "run_one": [30.0],     # 100 - 70
        "query": [50.0],       # 70 - 20
        "evaluate": [20.0],
        "encode": [50.0],
    }


def test_self_time_never_goes_negative():
    spans = [("parent", 0, 10, 0, None, 0), ("child", 20, 50, 1, 0, 0)]
    assert stats.self_times(spans)["parent"] == [0.0]


def _summary(median, q1=None, q3=None):
    return {"value": median, "q1": median if q1 is None else q1,
            "q3": median if q3 is None else q3, "n": 3}


def test_verdict_lower_is_better():
    base = _summary(10.0)
    assert stats.verdict(base, _summary(10.9), "lower", 0.10) == "ok"
    assert stats.verdict(base, _summary(11.1), "lower", 0.10) == "worse"
    assert stats.verdict(base, _summary(5.0), "lower", 0.10) == "ok"


def test_verdict_higher_is_better():
    base = _summary(100.0)
    assert stats.verdict(base, _summary(91.0), "higher", 0.10) == "ok"
    assert stats.verdict(base, _summary(89.0), "higher", 0.10) == "worse"
    assert stats.verdict(base, _summary(150.0), "higher", 0.10) == "ok"


def test_verdict_is_unresolved_when_either_spread_exceeds_the_bound():
    noisy = _summary(10.0, q1=9.0, q3=10.5)     # spread 0.15
    assert stats.verdict(noisy, _summary(20.0), "lower", 0.10) == "unresolved"
    assert stats.verdict(_summary(10.0), noisy, "lower", 0.10) == "unresolved"
    assert stats.verdict(noisy, _summary(20.0), "lower", 0.20) == "worse"
