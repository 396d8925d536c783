"""Sample reduction: the two-sample KS distance."""

import numpy as np


def ks_distance(a, b):
    """sup-norm distance between the empirical CDFs of two samples; in [0,1]."""
    xa = np.sort(np.asarray(a, dtype=float), kind="stable")
    xb = np.sort(np.asarray(b, dtype=float), kind="stable")
    if len(xa) == 0 or len(xb) == 0:
        raise ValueError("need non-empty samples")
    pts = np.concatenate([xa, xb])
    if not np.all(np.isfinite(pts)):
        raise ValueError("samples must be finite")
    fa = np.searchsorted(xa, pts, side="right")
    fb = np.searchsorted(xb, pts, side="right")
    return float(np.abs(fa / len(xa) - fb / len(xb)).max())
