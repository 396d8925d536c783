"""Full fidelity distributions at fixed times, not just moments.

Calibrated OU noise on a Pauli coupling.  At each time slice we compare
Monte-Carlo fidelities against the exact law (the cosine series
evaluated at fixed normal quantiles of the Gaussian increment, as
`sselab run` does for distribution runs) by their Kolmogorov-Smirnov
distance.
"""

import numpy as np

from sselab import laws, noise, qstate, scenario, sde, stats

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
    references = scenario.law_references(law, model, SLICES)
    print(f"{'t':>6} {'mc mean':>9} {'law mean':>9} {'KS':>7}")
    for t, reference in zip(SLICES, references):
        j = int(np.argmin(np.abs(res.times - t)))
        mc = res.fidelities[:, j]
        ks = stats.ks_distance(mc, reference)
        m, _ = laws.series_mean_variance(law, model, t)
        print(f"{t:6.2f} {mc.mean():9.5f} {m:9.5f} {ks:7.4f}")
    eps = scenario.ks_bound(len(res.fidelities), len(SLICES))
    print(f"a slice departs from the law if its KS distance exceeds eps = {eps:.3f}, "
          f"the DKW bound at a {scenario.KS_ALPHA:.0%} false-alarm rate over the slices")


if __name__ == "__main__":
    main()
