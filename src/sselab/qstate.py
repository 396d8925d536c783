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


class OperatorSpecError(ValueError):
    """Raised for an unknown operator spec or mismatched tensor dims."""


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


def build_operator(spec):
    """Build a Hermitian operator from a small spec grammar.

    Accepted specs:
      - "I", "X", "Y", "Z": single-qubit Pauli / identity
      - "P1": the |1><1| projector
      - ("control", omega, phase, delta): single-qubit drive Hamiltonian
      - ("tensor", s1, s2, ...): Kronecker product of sub-specs
      - ("sum", s1, s2, ...): sum of equal-dimension sub-specs

    Returns a complex ndarray; raises OperatorSpecError for anything else.
    """
    if isinstance(spec, str):
        try:
            return _NAMED[spec].copy()
        except KeyError:
            raise OperatorSpecError(f"unknown operator name {spec!r}") from None
    if isinstance(spec, (tuple, list)) and spec:
        head = spec[0]
        if head == "control":
            if len(spec) != 4:
                raise OperatorSpecError("control spec needs (omega, phase, delta)")
            return control_hamiltonian(*spec[1:])
        if head == "tensor":
            parts = [build_operator(s) for s in spec[1:]]
            if not parts:
                raise OperatorSpecError("empty tensor spec")
            out = parts[0]
            for p in parts[1:]:
                out = np.kron(out, p)
            return out
        if head == "sum":
            parts = [build_operator(s) for s in spec[1:]]
            if not parts:
                raise OperatorSpecError("empty sum spec")
            dims = {p.shape for p in parts}
            if len(dims) != 1:
                raise OperatorSpecError(f"sum of mismatched dims {sorted(dims)}")
            return np.sum(parts, axis=0)
        raise OperatorSpecError(f"unknown spec head {head!r}")
    raise OperatorSpecError(f"cannot interpret operator spec {spec!r}")


def commutator(a, b, anti=False):
    """AB - BA, or the anticommutator AB + BA when anti is set."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    if anti:
        return a @ b + b @ a
    return a @ b - b @ a


def expect_value(a, phi):
    """Expectation phi^dag A phi as a complex scalar."""
    a = np.asarray(a, dtype=complex)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if a.shape != (phi.size, phi.size):
        raise ValueError(f"dimension mismatch {a.shape} vs state {phi.size}")
    return complex(phi.conj() @ (a @ phi))

