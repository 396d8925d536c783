"""Mean fidelity when the drive and the noise operator do not commute.

Every function takes the (H, S, model, phi0, t) that `sde.simulate_paths`
takes and works in Liouville space, on vectorized density matrices.
There L_H = -i[H, .] and the noise superoperator D = -i[S, .] act as
d^2-square matrices, and the averaged state obeys

    E[rho_t] = e^{L_H t} E[U(t)] rho0,   F = <rho0, E[U(t)] rho0>,

where U(t) is the interaction-picture propagator of the rotating
generator D(s) = e^{-L_H s} D e^{L_H s}, and the second equality holds
because e^{L_H t} is unitary on Liouville space.  In the basis |a><b| of
H's eigenvectors L_H is diagonal with entries l_j = -i(lambda_a -
lambda_b), so D(s) = D o e^{omega s} entry by entry, omega[j, k] =
l_k - l_j.  Every integral of the Magnus expansion is then a sum of
E(z) = integral of e^{zs} over [0, t], in closed form.

Under white noise the exact mean solves the Lindblad equation
(generator L_H + (gamma^2/2) D^2), and the first Magnus term gives
E[U] ~ exp(M(t)) with M(t) = (gamma^2/2) (D D) o E(omega).  Under OU
noise the second-order expanded Magnus mean adds two nested-kernel
terms.  The expansion is in eps^2 = gamma^2/alpha for a drive of
strength alpha; `scenario` warns when eps^2 >= EPS_SQ_WARN.
"""

from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod

EPS_SQ_WARN = 0.5
# Times per batched eigh, so that 1e7 recorded times never stack 2.5 GB
_BLOCK = 4096


def _frame(H, S, phi0):
    """(D, l, r): -i[S, .], L_H's diagonal and vec(rho0), all in the
    basis |a><b| of H's eigenvectors (row-major vec)."""
    lam, v = np.linalg.eigh(H)
    s, psi = v.conj().T @ S @ v, v.conj().T @ phi0
    eye = np.eye(len(lam))
    dis = -1j * (np.kron(s, eye) - np.kron(eye, s.T))
    ell = -1j * np.subtract.outer(lam, lam).ravel()
    return dis, ell, np.outer(psi, psi.conj()).ravel()


def _expint(z, t):
    """E(z) = integral of e^{zs} over [0, t], elementwise; t where z = 0."""
    z = np.asarray(z, dtype=complex)
    return np.where(z == 0, t, np.expm1(z * t) / np.where(z == 0, 1.0, z))


def _require(model, kind):
    if model.kind != kind:
        raise ValueError(f"this mean needs {kind} noise, got {model.kind}")


def _wn_exponent(H, S, model, phi0, ts):
    """(M, r): M(t) = (gamma^2/2) (D D) o E(omega, t) stacked over a 1-d
    time array, and r = vec(rho0)."""
    dis, ell, r = _frame(H, S, phi0)
    gen = 0.5 * model.gamma**2 * (dis @ dis)
    return gen * _expint(ell - ell[:, None], ts[:, None, None]), r


def wn_mean_fidelity(H, S, model, phi0, t):
    """Magnus mean fidelity under white noise, <r, exp(M(t)) r>; scalar or
    array t.  M(t) is Hermitian and negative semidefinite: D D = -K^2 with
    K = [S, .] Hermitian, E(omega, t) is the Gram matrix of the e^{l_k s}
    on [0, t], and the Hadamard product of two positive semidefinite
    matrices is one (Schur).  So one eigh, M = V diag(w) V^dag, gives the
    mean as sum_i e^{w_i} |<v_i, r>|^2."""
    _require(model, noise_mod.WHITE)
    ts = np.asarray(t, dtype=float)
    out = np.empty(ts.size)
    for i in range(0, ts.size, _BLOCK):
        m, r = _wn_exponent(H, S, model, phi0, ts.ravel()[i:i + _BLOCK])
        if not np.isfinite(m).all():  # eigh would return NaN in silence
            raise ValueError("white-noise Magnus mean: non-finite generator")
        w, v = np.linalg.eigh(m)
        out[i:i + _BLOCK] = (np.exp(w) * np.abs(r.conj() @ v) ** 2).sum(axis=1)
    return out.reshape(ts.shape) if ts.ndim else float(out[0])


@dataclass(frozen=True)
class ApproxMean:
    """A second-order OU mean value; may leave [0,1] (in_range flags it)."""

    value: float
    in_range: bool


def ou_second_order_mean(H, S, model, phi0, t):
    """Second-order expanded Magnus mean for OU noise at one time t.

    E[U] ~ I + (g2/2) int D^2
         - (g2/2) k int {e^{-ks} D(s), int_0^s e^{ks'} D ds'} ds
         + (g2/4) k int {e^{-2ks} D(s), int_0^s e^{2ks'} D ds'} ds

    with g2 = gamma^2.  Entry (j, l) of the nested term with rate c is
    sum_k D_jk D_kl [G(w_jk, w_kl) + G(w_kl, w_jk)], G(a, b) =
    (E(a + b) - E(a - c)) / (b + c).  This is the expansion for a
    stationary start, and model.init is not read: against 2000 MC paths
    (H = X, S = Z, gamma = 0.3, k = 0.5, t = 1, seed 7) a stationary start
    sits 0.0009 (z = 0.7) above it, a calibrated one 0.0071 (z = 6.5).
    The expansion is not a proper exponential, so the value can leave
    [0, 1]; in_range records that.
    """
    _require(model, noise_mod.OU)
    if t == 0:
        return ApproxMean(value=1.0, in_range=True)
    dis, ell, r = _frame(H, S, phi0)
    g2, k = model.gamma**2, model.k
    omega = ell - ell[:, None]  # w[j, k] = l_k - l_j
    eu = np.eye(len(r)) + 0.5 * g2 * (dis @ dis) * _expint(omega, t)
    a, b = omega[:, :, None], omega[None, :, :]  # (j, k, l) -> w_jk, w_kl
    e_sum = _expint(a + b, t)
    for c, scale in ((k, -0.5 * g2 * k), (2 * k, 0.25 * g2 * k)):
        if c:
            g = (e_sum - _expint(a - c, t)) / (b + c) + (e_sum - _expint(b - c, t)) / (a + c)
            eu += scale * np.einsum("jk,kl,jkl->jl", dis, dis, g)
    value = float((r.conj() @ eu @ r).real)
    return ApproxMean(value=value, in_range=0.0 <= value <= 1.0)
