"""Colored noise can protect a state that white noise destroys.

Projection coupling on |+>.  Under white noise the phase variance grows
without bound and the mean fidelity decays to 1 - 2(1 - S0^2) S0^2.
Under OU noise started in its stationary law the increment variance
saturates at gamma^2 / k, so the mean fidelity levels off much higher.
"""

import math

import numpy as np

from sselab import laws, noise, qstate

GAMMA = 0.1
K = 0.05
S0 = 1 / math.sqrt(2)


def main():
    phi0 = np.array([math.sqrt(1 - S0**2), S0], dtype=complex)  # |+>
    law = laws.spectral_law(qstate.PROJ_1, phi0)
    ou = noise.ou_noise(GAMMA, K, init=noise.STATIONARY)
    wn = noise.white_noise(GAMMA)
    print(f"{'t':>7} {'OU mean':>9} {'WN mean':>9} {'OU var':>9} {'WN var':>9}")
    for t in (1.0, 5.0, 20.0, 60.0, 200.0, 1000.0):
        mo, vo = laws.series_mean_variance(law, ou, t)
        mw, vw = laws.series_mean_variance(law, wn, t)
        print(f"{t:7.0f} {mo:9.5f} {mw:9.5f} {vo:9.5f} {vw:9.5f}")
    w = 2 * (1 - S0**2) * S0**2
    ou_inf = 1 - w * (1 - math.exp(-GAMMA**2 / (2 * K)))
    print(f"asymptotes: OU {ou_inf:.5f}, WN {1 - w:.5f}")


if __name__ == "__main__":
    main()
