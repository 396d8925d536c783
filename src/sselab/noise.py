"""Noise processes driving the stochastic Schrodinger equation.

Two models: white noise (the k -> 0 limit) and the Ornstein-Uhlenbeck
process dX = -k X dt + gamma dW, started either at X0 = 0 ("calibrated")
or from the stationary law X0 ~ gamma N / sqrt(2k).

The increment Delta X = X_t - X_0 is Gaussian with mean 0 for both
models, which is what makes every fidelity law in `laws` exactly
integrable: its variance v(t) fixes it, and its characteristic function
gives E[cos(alpha Delta X)] = exp(-alpha^2 v(t) / 2), the one moment
every law mean and variance is built from.  The paper's closed-form
even and OU conditional moments are kept in the test suite as oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

WHITE = "white"
OU = "ou"
CALIBRATED = "calibrated"
STATIONARY = "stationary"


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


def initial_draws(model):
    """Standard normals X0 takes from a path's stream: 1 stationary, else 0."""
    return int(model.init == STATIONARY)


def initial_x(model, z):
    """X0 per path by the model's init convention: gamma z / sqrt(2k) or 0.

    z holds each path's initial_draws(model) standard normals, one row per
    path.
    """
    if model.init == STATIONARY:
        return model.gamma * z[:, 0] / math.sqrt(2.0 * model.k)
    return np.zeros(len(z))


def increment_variance(model, t):
    """Variance v(t) of the Gaussian increment Delta X = X_t - X_0 (mean 0).

    It is gamma^2 t for white noise; calibrated OU
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
    return _unwrap(v)


def expected_cos(alpha, model, t):
    """E[cos(alpha Delta X)] = exp(-alpha^2 v(t) / 2), t a scalar or an array."""
    v = increment_variance(model, t)
    return _unwrap(np.exp(-0.5 * alpha * alpha * np.asarray(v)))


def _unwrap(a):
    """A 0-d array as a float; any other array as it is."""
    return a if a.ndim else float(a)
