"""Closed-form laws and OU moment formulas, kept as test oracles.

The package computes every commuting-case law with one eigh
(`laws.spectral_law`) and every moment through the Gaussian
characteristic function (`noise.expected_cos`).  The printed special
cases below are independent of both: the single-qubit Pauli and
projection laws, the two-qubit collective laws, per-qubit products, the
raw even moments of the increment and the OU conditional moments.  Their
own unit tests pin them against `scipy.linalg.expm` or a Gaussian
formula; the acceptance criteria and the law tests then compare the
package against them.
"""

import math

import numpy as np

from sselab import noise
from sselab.laws import _make_series, product_two

MAX_MOMENT = 12


class LawRangeError(ValueError):
    """Raised when a candidate law leaves [0,1] on the validation grid."""


def coefficient(series, m):
    """The coefficient c_m of cos(m x) in a CosineSeries; 0 if absent."""
    for mm, c in series.terms:
        if mm == m:
            return c
    return 0.0


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


def _double_factorial_odd(n):
    """(2n - 1)!! as a float; 1 for n = 0."""
    out = 1.0
    for j in range(1, n + 1):
        out *= 2 * j - 1
    return out


def raw_even_moment(n, model, t):
    """E[(Delta X)^{2n}] = (2n - 1)!! v(t)^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if 2 * n > MAX_MOMENT:
        raise ValueError(f"moment order {2 * n} exceeds guard {MAX_MOMENT}")
    v = noise.increment_variance(model, t)
    return _double_factorial_odd(n) * v**n


def _coeff_a(l, w):
    """2^l prod_{q=l+1}^{w} q (2q - 1) / (q - l); empty product = 1."""
    out = 2.0**l
    for q in range(l + 1, w + 1):
        out *= q * (2 * q - 1) / (q - l)
    return out


def _coeff_b(l, w):
    """2^l prod_{q=l}^{w-1} (1 + q)(3 + 2q) / (q - l + 1); empty product = 1."""
    out = 2.0**l
    for q in range(l, w):
        out *= (1 + q) * (3 + 2 * q) / (q - l + 1)
    return out


def conditional_moment(m, X0, model, t):
    """E[X_t^m | X_0] for the OU process by the closed coefficient sums.

    Even m (w = m/2):
        e^{-2wkt} 2^{-w} sum_l a[l,w] E2^{w-l} gamma^{2(w-l)} X0^{2l}
    odd m (w = (m-1)/2):
        e^{-(2w+1)kt} 2^{-w} sum_l b[l,w] E2^{w-l} gamma^{2(w-l)} X0^{2l+1}
    with E2 = (e^{2kt} - 1)/k, the grouping that keeps every term finite
    as k -> 0 (where E2 -> 2t and the Gaussian transition moments of
    white noise are recovered).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > MAX_MOMENT:
        raise ValueError(f"moment order {m} exceeds guard {MAX_MOMENT}")
    if model.kind != noise.OU:
        raise ValueError("conditional moments are defined for the OU model")
    if m == 0:
        return 1.0
    k, g2 = model.k, model.gamma**2
    if k == 0.0:
        e2 = 2.0 * t
    else:
        e2 = math.expm1(2.0 * k * t) / k
    if m % 2 == 0:
        w = m // 2
        total = 0.0
        for l in range(w + 1):
            total += _coeff_a(l, w) * (e2 * g2) ** (w - l) * X0 ** (2 * l)
        return math.exp(-2 * w * k * t) * 0.5**w * total
    w = (m - 1) // 2
    total = 0.0
    for l in range(w + 1):
        total += _coeff_b(l, w) * (e2 * g2) ** (w - l) * X0 ** (2 * l + 1)
    return math.exp(-(2 * w + 1) * k * t) * 0.5**w * total
