import numpy as np
import pytest

from sselab import stats


def test_sample_set_validation():
    stats.SampleSet(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        stats.SampleSet(np.array([0.1, np.nan]))
    s = stats.SampleSet(np.array([1.0, 2.0, 3.0]))
    assert len(s) == 3


def test_ecdf():
    s = stats.SampleSet(np.array([0.3, 0.1, 0.2, 0.2]))
    xs, ps = stats.ecdf(s)
    assert np.all(np.diff(xs) >= 0)
    assert np.all(np.diff(ps) > 0)
    assert ps[-1] == 1.0
    # P(X <= 0.2) = 3/4, read off just right of the duplicated point
    assert ps[np.searchsorted(xs, 0.2, side="right") - 1] == pytest.approx(0.75)


def test_ks_distance_properties():
    rng = np.random.default_rng(3)
    a = stats.SampleSet(rng.standard_normal(500))
    b = stats.SampleSet(rng.standard_normal(500))
    assert stats.ks_distance(a, a) == 0.0
    d = stats.ks_distance(a, b)
    assert d == stats.ks_distance(b, a)
    assert 0.0 < d < 0.15
    # disjoint supports give the maximal distance
    lo = stats.SampleSet(np.linspace(0, 1, 50))
    hi = stats.SampleSet(np.linspace(2, 3, 50))
    assert stats.ks_distance(lo, hi) == pytest.approx(1.0)


def test_ks_distance_by_hand():
    a = stats.SampleSet(np.array([0.0, 1.0]))
    b = stats.SampleSet(np.array([0.5]))
    # ECDFs differ by 1/2 just left and right of 0.5
    assert stats.ks_distance(a, b) == pytest.approx(0.5)


def test_ks_detects_location_shift():
    rng = np.random.default_rng(4)
    a = stats.SampleSet(rng.standard_normal(2000))
    shifted = stats.SampleSet(rng.standard_normal(2000) + 1.0)
    assert stats.ks_distance(a, shifted) > 0.3
