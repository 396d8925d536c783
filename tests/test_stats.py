import numpy as np
import pytest

from sselab import stats


def test_ks_distance_rejects_bad_samples():
    assert stats.ks_distance([0.1, 0.2], [0.3]) == 1.0
    for a, b in (([0.1, np.nan], [0.3]), ([0.1], [np.inf]), ([], [0.3]), ([0.1], [])):
        with pytest.raises(ValueError):
            stats.ks_distance(np.array(a), np.array(b))


def test_ks_distance_properties():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(500)
    b = rng.standard_normal(500)
    assert stats.ks_distance(a, a) == 0.0
    d = stats.ks_distance(a, b)
    assert d == stats.ks_distance(b, a)
    assert 0.0 < d < 0.15
    # disjoint supports give the maximal distance
    lo = np.linspace(0, 1, 50)
    hi = np.linspace(2, 3, 50)
    assert stats.ks_distance(lo, hi) == pytest.approx(1.0)


def test_ks_distance_by_hand():
    a = np.array([0.0, 1.0])
    b = np.array([0.5])
    # ECDFs differ by 1/2 just left and right of 0.5
    assert stats.ks_distance(a, b) == pytest.approx(0.5)
    # a duplicated point: P(X <= 0.2) = 3/4 against 0 for a sample above it
    assert stats.ks_distance([0.3, 0.1, 0.2, 0.2], [0.25]) == pytest.approx(0.75)


def test_ks_detects_location_shift():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(2000)
    shifted = rng.standard_normal(2000) + 1.0
    assert stats.ks_distance(a, shifted) > 0.3
