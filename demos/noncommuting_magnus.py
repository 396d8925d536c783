"""When drift and noise do not commute there is no pathwise law.

H = alpha X with noise through Z.  The mean fidelity now comes from the
Liouville superoperators -i[H, .] and -i[S, .], Magnus-approximated.
Under white noise the exact mean solves a Lindblad equation, propagated
here with scipy's expm.  A small Monte-Carlo run confirms both, and the
decay rate splits by initial state: C1 = <X> = 1 decays at 2 gamma^2,
C2 = <Z> = 1 at gamma^2 with a ripple on top.
"""

import math

import numpy as np
import scipy.linalg

from sselab import magnus, noise, qstate, sde

ALPHA = 1.0
GAMMA = 0.4
H = ALPHA * qstate.SIGMA_X
S = qstate.SIGMA_Z
MODEL = noise.white_noise(GAMMA)
KET0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)


def lindblad_mean(phi0, times):
    """E[F] = <phi_t| rho_t |phi_t>, rho_t from the Lindblad generator
    -i[H, .] + gamma^2 (S . S - {S^2, .}/2) on row-major vec(rho)."""
    eye = np.eye(2)
    lind = (-1j * (np.kron(H, eye) - np.kron(eye, H.T))
            + GAMMA**2 * (np.kron(S, S.T) - 0.5 * np.kron(S @ S, eye)
                          - 0.5 * np.kron(eye, (S @ S).T)))
    rho0 = np.outer(phi0, phi0.conj()).ravel()
    out = []
    for t in times:
        rho = (scipy.linalg.expm(lind * t) @ rho0).reshape(2, 2)
        phi = scipy.linalg.expm(-1j * H * t) @ phi0
        out.append((phi.conj() @ rho @ phi).real)
    return np.array(out)


def main():
    cfg = sde.SimConfig(dt=1e-3, T=5.0, n_paths=400, master_seed=31,
                        record_every=250)
    res = sde.simulate_paths(H, S, MODEL, KET0, cfg)
    exact = lindblad_mean(KET0, res.times)
    mag = magnus.wn_mean_fidelity(H, S, MODEL, KET0, res.times)
    print(f"{'t':>5} {'MC':>8} {'exact':>8} {'Magnus':>8}")
    for j in range(len(res.times)):
        print(f"{res.times[j]:5.2f} {res.summary.mean_f[j]:8.4f} "
              f"{exact[j]:8.4f} {mag[j]:8.4f}")

    ts = np.arange(0.5, 12.0, 0.01)
    for name, phi0 in (("C1=1 (|+>)", KET_PLUS), ("C2=1 (|0>)", KET0)):
        m = magnus.wn_mean_fidelity(H, S, MODEL, phi0, ts)
        rate = -np.polyfit(ts, np.log(m - 0.5), 1)[0]
        print(f"{name}: fitted decay rate {rate:.4f} "
              f"(gamma^2 = {GAMMA**2:.2f}, 2 gamma^2 = {2 * GAMMA**2:.2f})")


if __name__ == "__main__":
    main()
