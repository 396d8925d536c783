"""Laws compose: the joint fidelity law of a product state factors.

Three qubits, each coupled to the shared noise through its own X.  The
joint law is the product of the single-qubit cosine series, so we never
need the 8-dimensional operator.  We check the factored law against the
spectral law of the 8-dimensional collective X, against the direct
amplitude and against full 8-dimensional paths.
"""

import math

import numpy as np
import scipy.linalg

from sselab import laws, noise, qstate, sde

S_VALUES = (0.0, 0.5, 0.8)
GAMMA = 0.2


def main():
    phis = []
    for s in S_VALUES:
        a = 0.5 * math.asin(s)  # <X> = sin(2a) = s
        phis.append(np.array([math.cos(a), math.sin(a)], dtype=complex))
    singles = [laws.spectral_law(qstate.SIGMA_X, p) for p in phis]
    factored = laws.product_two(laws.product_two(singles[0], singles[1]), singles[2])
    print("factored harmonics:", [(m, round(c, 6)) for m, c in factored.terms])

    phi = np.kron(np.kron(phis[0], phis[1]), phis[2])
    X, I = qstate.SIGMA_X, qstate.IDENTITY_2
    S = np.kron(np.kron(X, I), I) + np.kron(np.kron(I, X), I) + np.kron(np.kron(I, I), X)
    joint = laws.spectral_law(S, phi)

    grid = np.linspace(0, 2 * math.pi, 49)
    direct = np.array([
        abs(np.vdot(phi, scipy.linalg.expm(-1j * d * S) @ phi)) ** 2
        for d in grid
    ])
    print(f"factored vs 8-dim spectral law: max gap "
          f"{np.max(np.abs(factored.evaluate(grid) - joint.evaluate(grid))):.2e}")
    print(f"factored vs direct 8-dim amplitude: max gap "
          f"{np.max(np.abs(factored.evaluate(grid) - direct)):.2e}")

    cfg = sde.SimConfig(dt=1e-4, T=1.0, n_paths=20, master_seed=12,
                        record_every=10000)
    res = sde.simulate_paths(np.zeros((8, 8)), S, noise.white_noise(GAMMA),
                             phi, cfg)
    dx = res.terminal_x - res.initial_x
    gap = np.max(np.abs(res.fidelities[:, -1] - factored.evaluate(dx)))
    print(f"8-dim paths vs factored law at T=1: worst gap {gap:.2e}")


if __name__ == "__main__":
    main()
