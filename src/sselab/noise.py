"""Noise processes driving the stochastic Schrodinger equation.

Two models: white noise (the k -> 0 limit) and the Ornstein-Uhlenbeck
process dX = -k X dt + gamma dW, started either at X0 = 0 ("calibrated")
or from the stationary law X0 ~ gamma N / sqrt(2k).

The increment Delta X = X_t - X_0 is Gaussian for both models, which is
what makes every fidelity law in `laws` exactly integrable: its even
moments follow the (2n-1)!! v(t)^n pattern and its characteristic
function gives E[cos(alpha Delta X)] = exp(-alpha^2 v(t) / 2).
"""

import math
from dataclasses import dataclass

import numpy as np

WHITE = "white"
OU = "ou"
CALIBRATED = "calibrated"
STATIONARY = "stationary"

MAX_MOMENT = 12


@dataclass(frozen=True)
class NoiseModel:
    """Noise process parameters.

    kind : "white" or "ou"
    gamma : noise intensity (1/sqrt(time))
    k : damping rate (1/time); must be 0 for white noise
    init : "calibrated" (X0 = 0) or "stationary" (X0 ~ gamma N / sqrt(2k))
    """

    kind: str
    gamma: float
    k: float = 0.0
    init: str = CALIBRATED

    def __post_init__(self):
        if self.kind not in (WHITE, OU):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (0 <= self.gamma < math.inf and 0 <= self.k < math.inf):
            raise ValueError("gamma and k must be non-negative and finite")
        if self.kind == WHITE and (self.k != 0 or self.init != CALIBRATED):
            raise ValueError("white noise requires k=0 and calibrated start")
        if self.init not in (CALIBRATED, STATIONARY):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == STATIONARY and self.k == 0:
            raise ValueError("stationary start needs k > 0")


def white_noise(gamma):
    return NoiseModel(WHITE, gamma)


def ou_noise(gamma, k, init=CALIBRATED):
    return NoiseModel(OU, gamma, k, init)


def _phi1(z):
    """(1 - exp(-z)) / z for an array z, stable near z = 0 (value 1)."""
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, -np.expm1(-safe) / safe)


def draw_initial(model, stream):
    """Draw X0 per the model's init convention from the given stream."""
    if model.init == STATIONARY:
        return model.gamma * stream.standard_normal() / math.sqrt(2.0 * model.k)
    return 0.0


def terminal_increment_law(model, t):
    """Gaussian law (mean, variance) of Delta X = X_t - X_0.

    Variance: gamma^2 t for white noise; calibrated OU
    (gamma^2/2k)(1 - e^{-2kt}); stationary OU (gamma^2/k)(1 - e^{-kt}).
    All three are computed through the same stable kernel so the k -> 0
    limit reproduces the white-noise value to machine precision.  t may be
    an array of times (the variance is then an array too) or a scalar.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    g2 = model.gamma**2
    if model.kind == WHITE:
        v = g2 * t
    elif model.init == CALIBRATED:
        v = g2 * t * _phi1(2.0 * model.k * t)
    else:
        v = g2 * t * _phi1(model.k * t)
    return 0.0, _unwrap(v)


def expected_cos(alpha, model, t):
    """E[cos(alpha Delta X)] = exp(-alpha^2 v(t) / 2), t a scalar or an array."""
    _, v = terminal_increment_law(model, t)
    return _unwrap(np.exp(-0.5 * alpha * alpha * np.asarray(v)))


def _unwrap(a):
    """A 0-d array as a float; any other array as it is."""
    return a if a.ndim else float(a)


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
    _, v = terminal_increment_law(model, t)
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
    if model.kind != OU:
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
