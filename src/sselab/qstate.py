"""Dense complex linear algebra for small qubit registers.

Operators are plain complex ndarrays of shape (2**n, 2**n) with n <= 4,
states are 1-d complex ndarrays.  Everything is dense; the systems of
interest are at most two qubits, or the 4x4 Liouville superoperators of
one, so sparsity would buy nothing.
"""

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PROJ_1 = np.array([[0, 0], [0, 1]], dtype=complex)

_NAMED = {
    "I": IDENTITY_2,
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
    "P1": PROJ_1,
}


def as_state(amplitudes):
    """Validate a pure state: 1-d complex, unit norm within 1e-10."""
    phi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(phi)
    if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond 1e-10")
    return phi


def control_hamiltonian(omega, phase, delta):
    """Single-qubit drive: omega * coupling(phase) + delta/2 * detuning.

    The coupling term is exp(i*phase)|0><1| + h.c., the detuning term is
    the |1><1| projector.
    """
    coup = np.array([[0, np.exp(1j * phase)], [np.exp(-1j * phase), 0]])
    return omega * coup + 0.5 * delta * PROJ_1


def named_operator(name):
    """A fresh copy of the named operator: I, X, Y, Z or P1 (|1><1|)."""
    try:
        return _NAMED[name].copy()
    except KeyError:
        raise ValueError(f"unknown operator name {name!r}") from None


def commutator(a, b):
    """AB - BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a


def expect_value(a, phi):
    """Expectation phi^dag A phi as a complex scalar."""
    a = np.asarray(a, dtype=complex)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if a.shape != (phi.size, phi.size):
        raise ValueError(f"dimension mismatch {a.shape} vs state {phi.size}")
    return complex(phi.conj() @ (a @ phi))

