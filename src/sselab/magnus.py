"""Mean fidelity when the drive and the noise operator do not commute.

For H = alpha*s1 and S = s2 with [s1, s2] = 2i*s3 cyclic, the vector

    V = [F, |<s1>|-type, ..., cross terms]  (10 components, V[0] = F)

closes: dV = alpha*Ac V dt + (gamma^2/2) B^2 V dt + B V dX with fixed
integer matrices Ac, B.  Ac and B do not commute, so there is no
pathwise solution in Delta X; instead, after rescaling time by alpha
(tau = alpha*t, eps^2 = gamma^2/alpha), a stochastic Magnus expansion
in the rotating frame gives the mean fidelity to leading order.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from .qstate import SIGMA_X, SIGMA_Y, SIGMA_Z, expect_value, mat_exp

_PAULI = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
_CYCLIC = (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y"))

AC_MATRIX = np.zeros((10, 10))
AC_MATRIX[2, 9] = -2
AC_MATRIX[3, 9] = 2
AC_MATRIX[5, 6] = -2
AC_MATRIX[6, 5] = 2
AC_MATRIX[7, 8] = -2
AC_MATRIX[8, 7] = 2
AC_MATRIX[9, 2] = 4
AC_MATRIX[9, 3] = -4
AC_MATRIX.flags.writeable = False

B_MATRIX = np.zeros((10, 10))
B_MATRIX[0, 5] = -1
B_MATRIX[1, 8] = 1
B_MATRIX[2, 5] = 1
B_MATRIX[3, 8] = -1
B_MATRIX[4, 6] = 1
B_MATRIX[4, 7] = -1
B_MATRIX[5, 0] = 2
B_MATRIX[5, 2] = -2
B_MATRIX[6, 4] = -1
B_MATRIX[6, 9] = -1
B_MATRIX[7, 4] = 1
B_MATRIX[7, 9] = 1
B_MATRIX[8, 1] = -2
B_MATRIX[8, 3] = 2
B_MATRIX[9, 6] = 1
B_MATRIX[9, 7] = -1
B_MATRIX.flags.writeable = False

K_MATRIX = AC_MATRIX @ B_MATRIX - B_MATRIX @ AC_MATRIX
K_MATRIX.flags.writeable = False

# In rescaled time D(s) = exp(-Ac s) B exp(Ac s) = cos(2s) B - (1/2) sin(2s) K,
# so every product of two D's is a scalar mix of these three matrices.
B2_MATRIX = B_MATRIX @ B_MATRIX
BK_MATRIX = B_MATRIX @ K_MATRIX + K_MATRIX @ B_MATRIX
K2_MATRIX = K_MATRIX @ K_MATRIX
for _m in (B2_MATRIX, BK_MATRIX, K2_MATRIX):
    _m.flags.writeable = False

EPS_SQ_WARN = 0.5


@dataclass(frozen=True)
class NonCommutingSystem:
    """Drive strength alpha on axis triple[0], noise on triple[1].

    The triple lists distinct Pauli axes; for an odd permutation the
    third axis picks up a sign internally so the commutation algebra
    stays cyclic.  C is the Bloch vector of the initial state in the
    (signed) triple basis; it must be unit length.
    """

    alpha: float
    gamma: float
    triple: tuple = ("X", "Y", "Z")
    C: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if sorted(self.triple) != ["X", "Y", "Z"]:
            raise ValueError("triple must be a permutation of X, Y, Z")
        norm = sum(c * c for c in self.C)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError("C must have unit norm")
        if self.epsilon_sq >= EPS_SQ_WARN:
            warnings.warn(
                f"eps^2 = gamma^2/alpha = {self.epsilon_sq:.3g} is not small; "
                "the Magnus mean is a weak-noise expansion",
                stacklevel=2,
            )

    @property
    def epsilon_sq(self):
        return self.gamma**2 / self.alpha

    @property
    def triple_sign(self):
        """+1 for a cyclic triple, -1 for an anticyclic one."""
        return 1.0 if tuple(self.triple) in _CYCLIC else -1.0

    def operators(self):
        """(H, S) in the computational basis."""
        return self.alpha * _PAULI[self.triple[0]], _PAULI[self.triple[1]]


def bloch_triple(phi0, triple):
    """Bloch components of phi0 along the (signed) axis triple."""
    sign = 1.0 if tuple(triple) in _CYCLIC else -1.0
    c = [expect_value(_PAULI[ax], phi0).real for ax in triple]
    c[2] *= sign
    return tuple(c)


def system_for_state(alpha, gamma, triple, phi0):
    return NonCommutingSystem(
        alpha=alpha, gamma=gamma, triple=tuple(triple),
        C=bloch_triple(phi0, triple),
    )


@dataclass(frozen=True)
class TenSystem:
    a_c: np.ndarray
    b: np.ndarray
    v0: np.ndarray


def build_system(sys, phi0):
    """Populate the fixed matrices and V0 = observables of phi0.

    V0 = [1, C1^2, C2^2, C3^2, 0, 0, 0, 2C1C2, 2C1C3, 2C2C3]; the three
    zero slots are the cross terms that vanish when the initial state
    equals the target.
    """
    c1, c2, c3 = bloch_triple(phi0, sys.triple)
    expect = (c1, c2, c3)
    if abs(sum(c * c for c in expect) - 1.0) > 1e-10:
        raise ValueError("initial state must be pure and normalized")
    v0 = np.array(
        [1.0, c1 * c1, c2 * c2, c3 * c3, 0.0, 0.0, 0.0,
         2 * c1 * c2, 2 * c1 * c3, 2 * c2 * c3]
    )
    return TenSystem(a_c=AC_MATRIX, b=B_MATRIX, v0=v0)


def _wn_magnus_generator(g2, tau):
    """M(tau) = (g2/2) * integral of D^2 over [0, tau], in closed form.

    D^2 = cos^2(2s) B^2 - sin(2s)cos(2s) (BK + KB)/2 ... expanded with
    the elementary antiderivatives of cos^2, sin^2, sin*cos.
    """
    c1 = tau / 2 + math.sin(4 * tau) / 8
    c2 = tau / 2 - math.sin(4 * tau) / 8
    c3 = (1 - math.cos(4 * tau)) / 8
    return 0.5 * g2 * (c1 * B2_MATRIX - 0.5 * c3 * BK_MATRIX + 0.25 * c2 * K2_MATRIX)


def wn_mean_fidelity(sys, phi0, t):
    """Magnus mean fidelity under white noise; scalar or array t.

    Rescales to tau = alpha*t, g2 = gamma^2/alpha, then
    E[V](tau) ~ exp(Ac tau) exp(M(tau)) V0 and F = first component.
    """
    tsys = build_system(sys, phi0)
    g2 = sys.epsilon_sq
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(ts.shape)
    for i, ti in enumerate(ts):
        tau = sys.alpha * ti
        prop = mat_exp(AC_MATRIX * tau) @ mat_exp(_wn_magnus_generator(g2, tau))
        out[i] = (prop @ tsys.v0)[0].real
    return out if np.asarray(t).ndim else float(out[0])


def wn_exact_mean(sys, phi0, t):
    """Exact mean fidelity under white noise (no Magnus truncation).

    The mean of the closed system solves a constant-coefficient ODE:
    E[V](t) = exp((alpha Ac + (gamma^2/2) B^2) t) V0.
    """
    tsys = build_system(sys, phi0)
    gen = sys.alpha * AC_MATRIX + 0.5 * sys.gamma**2 * B2_MATRIX
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(ts.shape)
    for i, ti in enumerate(ts):
        out[i] = (mat_exp(gen * ti) @ tsys.v0)[0].real
    return out if np.asarray(t).ndim else float(out[0])


@dataclass(frozen=True)
class ApproxMean:
    """A second-order OU mean value; may leave [0,1] (in_range flags it)."""

    value: float
    in_range: bool


def ou_second_order_mean(sys, phi0, model, t, n_nodes=400):
    """Second-order expanded Magnus mean for OU noise; approximate.

    E[U] ~ I + (g2/2) int D^2
         - (g2/2) kh int {e^{-kh s} D(s), int_0^s e^{kh s'} D ds'} ds
         + (g2/4) kh int {e^{-2kh s} D(s), int_0^s e^{2kh s'} D ds'} ds

    in rescaled units (kh = k/alpha), outer integrals by composite
    Simpson with n_nodes intervals.  As D(s) = cos(2s) B - sin(2s) K/2 and
    the inner integral is i_B(s) B - i_K(s) K/2, each anticommutator mixes
    {B,B} = 2B^2, {B,K} = BK + KB and {K,K} = 2K^2 with scalar weights:
    Simpson sums three weights and the matrices are added once.  The
    expansion is not a proper exponential, so the value can leave [0,1];
    in_range records that.
    """
    if model.kind != noise_mod.OU:
        raise ValueError("second-order correction applies to OU noise")
    if abs(model.gamma - sys.gamma) > 1e-12:
        raise ValueError("model gamma disagrees with the system gamma")
    tsys = build_system(sys, phi0)
    tau = sys.alpha * t
    g2 = sys.epsilon_sq
    kh = model.k / sys.alpha
    if tau == 0:
        return ApproxMean(value=1.0, in_range=True)
    if n_nodes % 2:
        n_nodes += 1

    h = tau / n_nodes
    s = np.arange(n_nodes + 1) * h
    cos2, sin2 = np.cos(2 * s), np.sin(2 * s)
    weights = np.zeros((3, n_nodes + 1))  # of B^2, BK + KB and K^2 at each node
    for c, scale in ((kh, -0.5 * g2 * kh), (2 * kh, 0.25 * g2 * kh)):
        # e^{-cs} times the inner integral, so a large k*s cannot overflow
        decay, den = np.exp(-c * s), c * c + 4.0
        j_b = (c * cos2 + 2 * sin2 - c * decay) / den
        j_k = (c * sin2 - 2 * cos2 + 2 * decay) / den
        weights += scale * np.array(
            [2 * cos2 * j_b, -0.5 * (cos2 * j_k + sin2 * j_b), 0.5 * sin2 * j_k])
    simpson = np.where(np.arange(n_nodes + 1) % 2, 4.0, 2.0)
    simpson[0] = simpson[-1] = 1.0
    b2, bk, k2 = (h / 3.0) * (weights @ simpson)

    eu = np.eye(10) + _wn_magnus_generator(g2, tau)
    eu += b2 * B2_MATRIX + bk * BK_MATRIX + k2 * K2_MATRIX
    value = float((mat_exp(AC_MATRIX * tau) @ eu @ tsys.v0)[0].real)
    return ApproxMean(value=value, in_range=0.0 <= value <= 1.0)
