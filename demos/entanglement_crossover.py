"""Whether entanglement helps depends on the noise correlation time.

Two qubits coupled to the same noise through X x I + I x X.  The GHZ
state only populates even harmonics (it dephases twice as fast per unit
phase), |00> spreads over harmonics 0, 2, 4.  With a saturating phase
variance v_inf = gamma^2 / k the long-time fidelities cross: fast noise
(large k) favors |00>, slow noise favors GHZ.
"""

import math

import numpy as np

from sselab import laws, qstate

GAMMA = 0.2


def asymptote(law, v):
    return sum(c * math.exp(-0.5 * m * m * v) for m, c in law.terms)


def main():
    X, I = qstate.SIGMA_X, qstate.IDENTITY_2
    S = np.kron(X, I) + np.kron(I, X)
    law00 = laws.spectral_law(S, np.array([1, 0, 0, 0], dtype=complex))
    lawghz = laws.spectral_law(S, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    print(f"{'k':>6} {'v_inf':>7} {'F(|00>)':>9} {'F(GHZ)':>9}  winner")
    for k in (1.0, 0.3, 0.1, 0.04, 0.01):
        v = GAMMA**2 / k
        f00 = asymptote(law00, v)
        fghz = asymptote(lawghz, v)
        tag = "|00>" if f00 > fghz else "GHZ"
        print(f"{k:6.2f} {v:7.3f} {f00:9.5f} {fghz:9.5f}  {tag}")
    # the crossing sits where 3/8 + exp(-2v)/2 + exp(-8v)/8 = 1/2 + exp(-4v)/2
    vs = np.linspace(0.1, 3.0, 2901)
    diff = np.array([asymptote(law00, v) - asymptote(lawghz, v) for v in vs])
    vc = vs[np.argmin(np.abs(diff))]
    print(f"crossing near v_inf = {vc:.3f}, i.e. k = {GAMMA**2 / vc:.4f} "
          f"at gamma = {GAMMA}")


if __name__ == "__main__":
    main()
