import numpy as np
import pytest

from sselab import qstate


def test_pauli_algebra():
    X, Y, Z, I = qstate.SIGMA_X, qstate.SIGMA_Y, qstate.SIGMA_Z, qstate.IDENTITY_2
    assert np.allclose(X @ X, I)
    assert np.allclose(Y @ Y, I)
    assert np.allclose(Z @ Z, I)
    assert np.allclose(X @ Y, 1j * Z)
    assert np.allclose(qstate.commutator(X, Y), 2j * Z)
    assert np.allclose(qstate.commutator(X, Y, anti=True), np.zeros((2, 2)))


def test_proj_is_idempotent():
    P = qstate.PROJ_1
    assert np.allclose(P @ P, P)
    assert np.allclose(P, P.conj().T)


def test_as_state_normalization_guard():
    phi = qstate.as_state([1, 0])
    assert phi.dtype == complex
    assert phi.shape == (2,)
    with pytest.raises(ValueError):
        qstate.as_state([1, 1])  # norm sqrt(2)
    with pytest.raises(ValueError):
        qstate.as_state([0, 0])


def test_control_hamiltonian_matrix():
    # omega=1, phase=0 gives the X coupling; delta adds the |1><1| shift
    h = qstate.control_hamiltonian(1.0, 0.0, 0.0)
    assert np.allclose(h, qstate.SIGMA_X)
    h = qstate.control_hamiltonian(0.0, 0.0, 2.0)
    assert np.allclose(h, qstate.PROJ_1)
    h = qstate.control_hamiltonian(0.5, np.pi / 2, 0.0)
    expected = 0.5 * np.array([[0, 1j], [-1j, 0]])
    assert np.allclose(h, expected)
    h = qstate.control_hamiltonian(0.3, 1.1, -0.7)
    assert np.allclose(h, h.conj().T)


def test_build_operator_names_and_compositions():
    assert np.allclose(qstate.build_operator("X"), qstate.SIGMA_X)
    assert np.allclose(qstate.build_operator("P1"), qstate.PROJ_1)
    two = qstate.build_operator(("tensor", "X", "I"))
    assert np.allclose(two, np.kron(qstate.SIGMA_X, np.eye(2)))
    s = qstate.build_operator(("sum", ("tensor", "X", "I"), ("tensor", "I", "X")))
    assert np.allclose(s, np.kron(qstate.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), qstate.SIGMA_X))
    ctrl = qstate.build_operator(("control", 1.0, 0.0, 0.0))
    assert np.allclose(ctrl, qstate.SIGMA_X)


def test_build_operator_rejects_garbage():
    with pytest.raises(qstate.OperatorSpecError):
        qstate.build_operator("Q")
    with pytest.raises(qstate.OperatorSpecError):
        qstate.build_operator(("sum", "X", ("tensor", "X", "X")))
    with pytest.raises(qstate.OperatorSpecError):
        qstate.build_operator(("control", 1.0))
    with pytest.raises(qstate.OperatorSpecError):
        qstate.build_operator(42)


def test_expect_value():
    plus = qstate.as_state([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert abs(qstate.expect_value(qstate.SIGMA_X, plus) - 1.0) < 1e-12
    assert abs(qstate.expect_value(qstate.SIGMA_Z, plus)) < 1e-12
    with pytest.raises(ValueError):
        qstate.expect_value(np.eye(4), plus)
