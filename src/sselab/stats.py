"""Sample reduction: summary moments, ECDF, KS distance.

Summation uses math.fsum throughout, so every reduction is exactly
permutation invariant: reordering the samples changes no bit of the
output.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class SampleSet:
    values: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("samples must be finite")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != v.shape or np.any(w < 0):
                raise ValueError("weights must be non-negative, one per sample")
            if abs(math.fsum(w) - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")
            object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.values)


def summary(s):
    """(mean, unbiased variance, stderr, n); needs n >= 2.

    With weights w (summing to 1): mean = sum w x, variance uses the
    1/(1 - sum w^2) small-sample correction and stderr^2 = var sum w^2,
    which reduce to the usual /(n-1) and var/n for uniform weights.
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two samples")
    if s.weights is None:
        mean = math.fsum(s.values) / n
        var = math.fsum((x - mean) ** 2 for x in s.values) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        w = s.weights
        mean = math.fsum(wi * xi for wi, xi in zip(w, s.values))
        w2 = math.fsum(wi * wi for wi in w)
        if w2 >= 1.0:
            raise ValueError("weights are concentrated on a single sample")
        var = math.fsum(
            wi * (xi - mean) ** 2 for wi, xi in zip(w, s.values)
        ) / (1.0 - w2)
        stderr = math.sqrt(var * w2)
    return mean, var, stderr, n


def ecdf(s):
    """(sorted values, cumulative probabilities) of the sample set."""
    order = np.argsort(s.values, kind="stable")
    xs = s.values[order]
    if s.weights is None:
        ps = np.arange(1, len(xs) + 1) / len(xs)
    else:
        ps = np.cumsum(s.weights[order])
        ps /= ps[-1]
    return xs, ps


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
