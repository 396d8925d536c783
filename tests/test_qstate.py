import numpy as np
import pytest

from sselab import qstate, scenario


def test_pauli_algebra():
    X, Y, Z, I = qstate.SIGMA_X, qstate.SIGMA_Y, qstate.SIGMA_Z, qstate.IDENTITY_2
    assert np.allclose(X @ X, I)
    assert np.allclose(Y @ Y, I)
    assert np.allclose(Z @ Z, I)
    assert np.allclose(X @ Y, 1j * Z)
    assert np.allclose(qstate.commutator(X, Y), 2j * Z)


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
    named = {"I": qstate.IDENTITY_2, "X": qstate.SIGMA_X, "Y": qstate.SIGMA_Y,
             "Z": qstate.SIGMA_Z, "P1": qstate.PROJ_1}
    for name, op in named.items():
        got = qstate.named_operator(name)
        assert np.array_equal(got, op) and got is not op  # a copy the caller may keep
    # The compositions a config can ask for are built in scenario._build_ops.
    X, I = qstate.SIGMA_X, qstate.IDENTITY_2
    H, S = scenario._build_ops("twoqubit", "X", "none", 1.0, 4)
    assert np.array_equal(S, np.kron(X, I) + np.kron(I, X))
    assert np.array_equal(H, np.zeros((4, 4)))
    H, S = scenario._build_ops("qubit", "Z", "control:1,0,0", 2.0, 2)
    assert np.allclose(H, 2.0 * X)
    assert np.array_equal(S, qstate.SIGMA_Z)


def test_build_operator_rejects_garbage():
    for bad in ("Q", "x", "control:1,0,0", "", 42, ("control", 1.0)):
        with pytest.raises(ValueError, match="unknown operator name"):
            qstate.named_operator(bad)
    with pytest.raises(scenario.ConfigError, match="omega,phase,delta"):
        scenario._build_ops("qubit", "Z", "control:1.0", 1.0, 2)
    with pytest.raises(ValueError, match="unknown operator name"):
        scenario._build_ops("qubit", "Q", "none", 1.0, 2)


def test_expect_value():
    plus = qstate.as_state([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert abs(qstate.expect_value(qstate.SIGMA_X, plus) - 1.0) < 1e-12
    assert abs(qstate.expect_value(qstate.SIGMA_Z, plus)) < 1e-12
    with pytest.raises(ValueError):
        qstate.expect_value(np.eye(4), plus)
