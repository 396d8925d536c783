import math
import warnings

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


def test_silverman_bandwidth_scaling():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    h1 = stats.silverman_bandwidth(stats.SampleSet(x))
    h2 = stats.silverman_bandwidth(stats.SampleSet(3.0 * x))
    assert h2 == pytest.approx(3.0 * h1, rel=1e-12)
    # explicit reference value: 1.06 sigma n^(-1/5)
    sd = math.sqrt(np.var(x, ddof=1))
    assert h1 == pytest.approx(1.06 * sd * 1000 ** (-0.2), rel=1e-12)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(1)
    x = rng.normal(0.5, 0.1, size=5000)
    grid = np.linspace(-0.5, 1.5, 2001)
    dens = stats.kde(stats.SampleSet(x), grid)
    mass = np.trapezoid(dens, grid)
    assert abs(mass - 1.0) < 0.02
    # density peaks near the true mode
    assert abs(grid[np.argmax(dens)] - 0.5) < 0.05


def test_kde_matches_gaussian_reference():
    # KDE of many standard normal samples approximates the normal pdf
    rng = np.random.default_rng(2)
    x = rng.standard_normal(20000)
    grid = np.linspace(-3, 3, 601)
    dens = stats.kde(stats.SampleSet(x), grid)
    ref = np.exp(-grid * grid / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(dens - ref)) < 0.03


def test_kde_guards():
    grid = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        stats.kde(stats.SampleSet(np.arange(5.0)), grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dens = stats.kde(stats.SampleSet(np.full(100, 0.5)), grid)
    assert len(caught) == 1
    assert np.all(np.isfinite(dens))


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
