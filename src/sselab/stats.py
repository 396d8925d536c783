"""Sample reduction: ECDF and KS distance."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleSet:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("samples must be finite")

    def __len__(self):
        return len(self.values)


def ecdf(s):
    """(sorted values, cumulative probabilities) of the sample set."""
    xs = np.sort(s.values, kind="stable")
    return xs, np.arange(1, len(xs) + 1) / len(xs)


def ks_distance(a, b):
    """sup-norm distance between the two empirical CDFs; in [0,1]."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("need non-empty sample sets")
    xa, pa = ecdf(a)
    xb, pb = ecdf(b)
    pts = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pts, side="right")
    fb = np.searchsorted(xb, pts, side="right")
    ca = np.where(fa > 0, pa[np.minimum(fa, len(xa)) - 1], 0.0)
    cb = np.where(fb > 0, pb[np.minimum(fb, len(xb)) - 1], 0.0)
    return float(np.abs(ca - cb).max())
