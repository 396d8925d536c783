"""Moment-closure approximations against the exact OU mean fidelity.

Pauli coupling, calibrated OU noise.  The first-order closure tracks the
exact curve at short times and stays bounded; the second-order closure
is tighter early on but eventually leaves [0, 1].  Both are integrated
with the same fixed-step RK4 used by the approx-order scenario.
"""

import math

import numpy as np

from sselab import approx, laws, noise, qstate

GAMMA = 0.2
K = 0.1


def main():
    law = laws.spectral_law(qstate.SIGMA_X, np.array([1, 0], dtype=complex))
    model = noise.ou_noise(GAMMA, K)
    first = approx.integrate_closure(approx.first_order_system(GAMMA, K, 0.0), 150.0)
    second = approx.integrate_closure(approx.second_order_system(GAMMA, K, 0.0), 150.0)
    print(f"{'t':>6} {'exact':>9} {'first':>9} {'second':>9}")
    for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        j = int(np.argmin(np.abs(first.times - t)))
        m, _ = laws.series_mean_variance(law, model, t)
        print(f"{t:6.1f} {m:9.5f} {first.fidelity[j]:9.5f} "
              f"{second.fidelity[j]:9.5f}")
    bad = np.nonzero((second.fidelity < 0) | (second.fidelity > 1))[0]
    if bad.size:
        print(f"second order leaves [0,1] at t = {first.times[bad[0]]:.1f}")
    print(f"first-order range over [0,150]: "
          f"[{first.fidelity.min():.5f}, {first.fidelity.max():.5f}]")


if __name__ == "__main__":
    main()
