"""Full fidelity distributions at fixed times, not just moments.

Calibrated OU noise on a Pauli coupling.  At each time slice we compare
Monte-Carlo fidelities against direct samples of the analytic law
(cosine series evaluated at a Gaussian increment) with a two-sample
Kolmogorov-Smirnov distance.
"""

import numpy as np

from sselab import laws, noise, qstate, sde, stats

GAMMA = 0.6
K = 0.4
SLICES = (0.25, 1.0, 4.0)
N = 2000


def main():
    ket0 = np.array([1, 0], dtype=complex)
    law = laws.spectral_law(qstate.SIGMA_X, ket0)
    model = noise.ou_noise(GAMMA, K)
    cfg = sde.SimConfig(dt=5e-4, T=max(SLICES), n_paths=N, master_seed=42,
                        record_every=100)
    res = sde.simulate_paths(np.zeros((2, 2)), qstate.SIGMA_X, model, ket0, cfg)
    rng = np.random.default_rng(99)
    print(f"{'t':>6} {'mc mean':>9} {'law mean':>9} {'KS':>7}")
    for t in SLICES:
        j = int(np.argmin(np.abs(res.times - t)))
        mc = res.fidelities[:, j]
        direct = laws.sample_distribution(law, model, t, N, rng)
        ks = stats.ks_distance(mc, direct)
        m, _ = laws.series_mean_variance(law, model, t)
        print(f"{t:6.2f} {mc.mean():9.5f} {m:9.5f} {ks:7.4f}")
    print(f"KS fluctuates around sqrt(1/n) ~ {1 / np.sqrt(N):.3f} when the "
          "distributions agree")


if __name__ == "__main__":
    main()
