"""Closed-form pathwise fidelity laws as finite cosine series.

When [H, S] = 0 a path's state is exp(-iHt) exp(-iS Delta X) phi0, so
its fidelity is an exact finite cosine polynomial in the noise
increment Delta X = X_t - X_0:

    F(Delta X) = sum_{j,l} p_j p_l cos((s_j - s_l) Delta X)
               = sum_m c_m cos(m Delta X),

with s_j the eigenvalues of S and p_j = |<v_j|phi0>|^2.  The
frequencies m are the eigenvalue gaps of S (`spectral_law`); for the
Pauli, projection and two-qubit couplings they are the integer
harmonics of the closed forms below.  Because Delta X is Gaussian,
means are exact via the characteristic function and second moments via
series self-convolution; nothing here involves quadrature or
truncation.
"""

from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod


# Relative size below which a spectral-law weight is round-off, not signal.
WEIGHT_FLOOR = 1e-15


class LawRangeError(ValueError):
    """Raised when a candidate law leaves [0,1] on the validation grid."""


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

    def coefficient(self, m):
        for mm, c in self.terms:
            if mm == m:
                return c
        return 0.0


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
    """A scenario's fidelity law and its coupling parameter s0."""

    series: CosineSeries
    s0: float


def pauli_law(s0):
    """Single-qubit law for S with S^2 = I and [H,S] = 0.

    F = cos^2(Delta X) + s0^2 sin^2(Delta X), s0 = <phi0|S|phi0>.
    """
    if abs(s0) > 1:
        raise ValueError("pauli law needs |s0| <= 1")
    return _make_series({0: (1 + s0**2) / 2, 2: (1 - s0**2) / 2})


def projection_law(s0):
    """Single-qubit law for S with S^2 = S and [H,S] = 0.

    F = 1 - 2 (1 - s0^2) s0^2 (1 - cos Delta X), with s0^2 = <phi0|S|phi0>
    (s0 is the amplitude on the S = 1 eigenspace).
    """
    if abs(s0) > 1:
        raise ValueError("projection law needs |s0| <= 1")
    w = 2 * (1 - s0**2) * s0**2
    return _make_series({0: 1 - w, 1: w})


def _validate_range(series, where):
    grid = np.linspace(0.0, 2 * np.pi, 10_001)
    vals = series.evaluate(grid)
    if vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
        raise LawRangeError(
            f"{where}: series leaves [0,1] "
            f"(range [{vals.min():.3e}, {vals.max():.3e}])"
        )


def two_qubit_law(s0, r0, klass):
    """Two-qubit law for S = Q (x) I + I (x) Q, R = Q (x) Q.

    s0 = <S>, r0 = <R>.  klass "pauli" (Q^2 = I) gives harmonics
    {0, 2, 4}; klass "projection" (Q^2 = Q) gives harmonics {0, 1, 2}.
    A (s0, r0) pair whose series leaves [0,1] on a 10^4-point grid is
    rejected as inconsistent.
    """
    if abs(s0) > 2 or abs(r0) > 1:
        raise ValueError("need |s0| <= 2 and |r0| <= 1")
    if klass == "pauli":
        c4 = ((1 + r0) ** 2 - s0**2) / 8
        series = _make_series(
            {
                0: (s0**2 + (r0 - 1) ** 2) / 4 + c4,
                2: (1 - r0**2) / 2,
                4: c4,
            }
        )
    elif klass == "projection":
        alpha = s0**2 - s0 - 2 * r0
        beta = 2 * r0 * (s0 - r0 - 1)
        series = _make_series(
            {
                0: 1 + 2 * alpha - 3 * beta,
                1: 4 * beta - 2 * alpha,
                2: -beta,
            }
        )
    else:
        raise ValueError(f"unknown class {klass!r}")
    _validate_range(series, f"two_qubit_law({s0}, {r0}, {klass})")
    return series


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


def product_law(single_laws):
    """Product of per-qubit laws: the joint law of a product state.

    Qubits driven by the same noise path evolve independently but see
    the same Delta X, so their fidelities multiply pathwise.
    """
    laws = list(single_laws)
    if not laws:
        raise ValueError("need at least one factor")
    out = laws[0]
    for law in laws[1:]:
        out = product_two(out, law)
    return out


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


def sample_distribution(law, model, t, n, stream):
    """Draw n exact fidelity samples: Delta X ~ N(0, v(t)), F = law(Delta X).

    No path integration; cost O(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, v = noise_mod.terminal_increment_law(model, t)
    dx = np.sqrt(v) * stream.standard_normal(n)
    return law.evaluate(dx)
