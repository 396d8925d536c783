"""Closed-form pathwise fidelity laws as finite cosine series.

When [H, S] = 0 a path's state is exp(-iHt) exp(-iS Delta X) phi0, so
its fidelity is an exact finite cosine polynomial in the noise
increment Delta X = X_t - X_0:

    F(Delta X) = sum_{j,l} p_j p_l cos((s_j - s_l) Delta X)
               = sum_m c_m cos(m Delta X),

with s_j the eigenvalues of S and p_j = |<v_j|phi0>|^2.  The
frequencies m are the eigenvalue gaps of S, and one eigh gives the law
for any S (`spectral_law`).  The paper's closed forms for the Pauli,
projection, two-qubit collective and product-state couplings are its
special cases; the test suite keeps them as oracles.  Because Delta X
is Gaussian, means are exact via the characteristic function
(`noise.expected_cos`) and second moments via series self-convolution;
nothing here involves quadrature, truncation or sampling.
"""

from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod


# Relative size below which a spectral-law weight is round-off, not signal.
WEIGHT_FLOOR = 1e-15


@dataclass(frozen=True)
class CosineSeries:
    """Finite cosine polynomial sum_m c_m cos(m x).

    terms: tuple of (frequency m >= 0, coefficient c_m), sorted by m.
    The frequencies are eigenvalue gaps of the noise operator: integer
    harmonics for the named couplings, any real gap in general.
    """

    terms: tuple

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for m, c in self.terms:
            if m == 0:
                out += c
            else:
                out += c * np.cos(m * x)
        return out if out.ndim else float(out)


def _make_series(coeffs):
    """Canonicalize a {harmonic: coefficient} dict into a CosineSeries."""
    merged = {}
    for m, c in coeffs.items():
        if m < 0:
            raise ValueError("harmonics must be non-negative")
        merged[m] = merged.get(m, 0.0) + c
    terms = tuple(sorted((m, c) for m, c in merged.items() if c != 0.0))
    return CosineSeries(terms=terms)


def spectral_law(S, phi0):
    """The law of any Hermitian S commuting with H, from one eigh.

    F = sum_{j,l} p_j p_l cos((s_j - s_l) Delta X); the pairwise weights
    are merged by their gap rounded to 12 decimals, so eigenvalues equal
    up to round-off share one term, and a merged weight below WEIGHT_FLOOR
    times the largest is round-off from eigenvectors the state does not
    touch, so its term is dropped.
    """
    s, v = np.linalg.eigh(S)
    p = np.abs(v.conj().T @ phi0) ** 2
    p /= p.sum()
    gaps = np.round(np.abs(s[:, None] - s[None, :]), 12)
    coeffs = {}
    for gap, w in zip(gaps.ravel().tolist(), np.outer(p, p).ravel().tolist()):
        coeffs[gap] = coeffs.get(gap, 0.0) + w
    floor = WEIGHT_FLOOR * max(coeffs.values())
    return _make_series({gap: w for gap, w in coeffs.items() if w >= floor})


@dataclass(frozen=True)
class ScenarioLaw:
    """A scenario's fidelity law and s0 = <S>, the closures' parameter."""

    series: CosineSeries
    s0: float


def product_two(a, b):
    """Pointwise product of two cosine series, re-expanded.

    cos(m x) cos(n x) = (cos((m+n) x) + cos(|m-n| x)) / 2.
    """
    coeffs = {}
    for m, cm in a.terms:
        for n, cn in b.terms:
            if m == 0 or n == 0:
                coeffs[m + n] = coeffs.get(m + n, 0.0) + cm * cn
            else:
                half = 0.5 * cm * cn
                coeffs[m + n] = coeffs.get(m + n, 0.0) + half
                coeffs[abs(m - n)] = coeffs.get(abs(m - n), 0.0) + half
    return _make_series(coeffs)


def series_mean_variance(law, model, t):
    """Exact (mean, variance) of the law at time t under the model.

    mean = sum_m c_m E[cos(m Delta X)]; E[F^2] from the self-convolved
    series; both reduce to Gaussian characteristic-function values.  t may
    be an array of times, which gives arrays of means and variances from
    one pass per series term; a scalar t gives scalars.
    """
    mean = sum(c * noise_mod.expected_cos(m, model, t) for m, c in law.terms)
    squared = product_two(law, law)
    second = sum(c * noise_mod.expected_cos(m, model, t) for m, c in squared.terms)
    return mean, second - mean * mean

