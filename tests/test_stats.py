import math

import numpy as np
import pytest

from sselab import stats


def test_sample_set_validation():
    stats.SampleSet(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        stats.SampleSet(np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        stats.SampleSet(np.array([0.1, 0.2]), weights=np.array([0.5]))
    with pytest.raises(ValueError):
        stats.SampleSet(np.array([0.1, 0.2]), weights=np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        stats.SampleSet(np.array([0.1, 0.2]), weights=np.array([0.3, 0.3]))
    s = stats.SampleSet(np.array([1.0, 2.0, 3.0]))
    assert len(s) == 3


def test_summary_by_hand():
    s = stats.SampleSet(np.array([1.0, 2.0, 3.0, 4.0]))
    mean, var, stderr, n = stats.summary(s)
    assert mean == pytest.approx(2.5)
    assert var == pytest.approx(5.0 / 3.0)
    assert stderr == pytest.approx(math.sqrt(5.0 / 12.0))
    assert n == 4
    with pytest.raises(ValueError):
        stats.summary(stats.SampleSet(np.array([1.0])))


def test_weighted_summary():
    s = stats.SampleSet(np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))
    mean, var, stderr, n = stats.summary(s)
    assert mean == pytest.approx(0.5)
    # unbiased weighted variance: sum w (x-m)^2 / (1 - sum w^2)
    assert var == pytest.approx(0.5)
    assert stderr == pytest.approx(0.5)
    with pytest.raises(ValueError):
        stats.summary(stats.SampleSet(np.array([0.0, 1.0]),
                                      weights=np.array([1.0, 0.0])))


def test_summary_permutation_invariance():
    # compensated accumulation must make the reduction order-independent
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 1, size=10001)
    a = stats.summary(stats.SampleSet(x))
    b = stats.summary(stats.SampleSet(x[::-1].copy()))
    c = stats.summary(stats.SampleSet(rng.permutation(x)))
    assert a == b == c


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
