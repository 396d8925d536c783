"""Every trajectory lands on the fidelity law, path by path.

For commuting drift the state only ever acquires a phase generated by
the noise operator, so the fidelity of a single path is a deterministic
function of that path's accumulated noise increment.  We simulate a few
paths with the full integrator and check each one against the law.
"""

import math

import numpy as np

from sselab import laws, noise, qstate, sde

GAMMA = 0.2
N_PATHS = 40


def main():
    cases = [
        ("pauli, |0>", qstate.SIGMA_X, np.array([1, 0], dtype=complex)),
        ("projection, |+>", qstate.PROJ_1,
         np.array([1, 1], dtype=complex) / math.sqrt(2)),
    ]
    for name, S, phi0 in cases:
        law = laws.spectral_law(S, phi0)
        cfg = sde.SimConfig(dt=1e-4, T=1.0, n_paths=N_PATHS, master_seed=7,
                            record_every=100)
        model = noise.white_noise(GAMMA)
        res = sde.simulate_paths(np.zeros_like(S), S, model, phi0, cfg)
        worst = 0.0
        for p, fids in enumerate(res.fidelities):
            dx = res.xs[p] - res.initial_x[p]
            worst = max(worst, np.max(np.abs(fids - law.evaluate(dx))))
        print(f"{name}: {N_PATHS} paths, worst |F_sim - F_law(DX)| = {worst:.2e}")
    print("the residual is pure integrator error; it shrinks with dt^2")


if __name__ == "__main__":
    main()
