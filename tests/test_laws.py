import math

import numpy as np
import pytest
import scipy.linalg

from sselab import laws, noise, qstate

import oracles

GRID = np.linspace(0.0, 2 * np.pi, 257)


def fidelity_by_exponential(S, phi, deltas):
    """Direct oracle: F(d) = |<phi| exp(-i S d) |phi>|^2 via expm."""
    out = np.empty(len(deltas))
    for i, d in enumerate(deltas):
        u = scipy.linalg.expm(-1j * d * S)
        out[i] = abs(np.vdot(phi, u @ phi)) ** 2
    return out


def gauss_mean_var(law, v, nsig=10.0, npts=400001):
    """Quadrature oracle for E[F], Var[F] with DX ~ N(0, v)."""
    sd = math.sqrt(v)
    xs = np.linspace(-nsig * sd, nsig * sd, npts)
    pdf = np.exp(-xs * xs / (2 * v)) / math.sqrt(2 * math.pi * v)
    f = law.evaluate(xs)
    m = np.trapezoid(f * pdf, xs)
    m2 = np.trapezoid(f * f * pdf, xs)
    return m, m2 - m * m


def test_cosine_series_basics():
    s = oracles.pauli_law(0.5)
    assert oracles.coefficient(s, 0) == pytest.approx((1 + 0.25) / 2)
    assert oracles.coefficient(s, 2) == pytest.approx((1 - 0.25) / 2)
    assert oracles.coefficient(s, 1) == 0.0
    # scalar and array evaluation agree
    xs = np.array([0.1, 0.2])
    vals = s.evaluate(xs)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(s.evaluate(0.1))


def test_pauli_law_against_rotation_formula():
    # S^2 = I: amplitude is cos(d) - i s0 sin(d), so F = cos^2 + s0^2 sin^2
    for s0 in (0.0, 0.3, 0.8, 1.0):
        law = oracles.pauli_law(s0)
        want = np.cos(GRID) ** 2 + s0 * s0 * np.sin(GRID) ** 2
        assert np.max(np.abs(law.evaluate(GRID) - want)) < 1e-12


def test_pauli_law_against_matrix_exponential():
    # concrete state with <X> = 0.6: cos(a)|0> + sin(a)|1>, sin(2a) = 0.6
    a = 0.5 * math.asin(0.6)
    phi = np.array([math.cos(a), math.sin(a)], dtype=complex)
    law = oracles.pauli_law(0.6)
    direct = fidelity_by_exponential(qstate.SIGMA_X, phi, GRID[:50])
    assert np.max(np.abs(law.evaluate(GRID[:50]) - direct)) < 1e-12


def test_law_domain_guards():
    with pytest.raises(ValueError):
        oracles.pauli_law(1.2)
    with pytest.raises(ValueError):
        oracles.projection_law(-1.1)


def test_projection_law_against_phase_formula():
    """S^2 = S: exp(-iSd) = I + (e^{-id} - 1) S, q = s0^2."""
    for s0 in (0.2, 1 / math.sqrt(2), 0.95):
        q = s0 * s0
        law = oracles.projection_law(s0)
        amp = 1 - q + q * np.exp(-1j * GRID)
        want = np.abs(amp) ** 2
        assert np.max(np.abs(law.evaluate(GRID) - want)) < 1e-12


def test_projection_law_against_matrix_exponential():
    q = 0.5
    phi = np.array([math.sqrt(1 - q), math.sqrt(q)], dtype=complex)
    law = oracles.projection_law(math.sqrt(q))
    direct = fidelity_by_exponential(qstate.PROJ_1, phi, GRID[:50])
    assert np.max(np.abs(law.evaluate(GRID[:50]) - direct)) < 1e-12


def test_two_qubit_pauli_known_states():
    S = np.kron(qstate.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), qstate.SIGMA_X)
    # |00>: s0 = 0, r0 = 0, F = cos^4
    law = oracles.two_qubit_law(0.0, 0.0, "pauli")
    want = np.cos(GRID) ** 4
    assert np.max(np.abs(law.evaluate(GRID) - want)) < 1e-12
    phi00 = np.array([1, 0, 0, 0], dtype=complex)
    direct = fidelity_by_exponential(S, phi00, GRID[:40])
    assert np.max(np.abs(law.evaluate(GRID[:40]) - direct)) < 1e-12
    # GHZ: s0 = 0, r0 = 1, F = cos^2(2d)
    law = oracles.two_qubit_law(0.0, 1.0, "pauli")
    want = np.cos(2 * GRID) ** 2
    assert np.max(np.abs(law.evaluate(GRID) - want)) < 1e-12
    ghz = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    direct = fidelity_by_exponential(S, ghz, GRID[:40])
    assert np.max(np.abs(law.evaluate(GRID[:40]) - direct)) < 1e-12


def test_two_qubit_pauli_amplitude_formula():
    # amplitude <(c - i s X1)(c - i s X2)> = c^2 - s^2 r0 - i c s s0
    rng = np.random.default_rng(3)
    for _ in range(6):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        X1 = np.kron(qstate.SIGMA_X, np.eye(2))
        X2 = np.kron(np.eye(2), qstate.SIGMA_X)
        s0 = qstate.expect_value(X1 + X2, psi).real
        r0 = qstate.expect_value(X1 @ X2, psi).real
        c, s = np.cos(GRID), np.sin(GRID)
        want = (c * c - s * s * r0) ** 2 + (c * s * s0) ** 2
        # the law only sees (s0, r0); imaginary cross parts must not matter
        ix = qstate.expect_value(X1 + X2, psi).imag
        assert abs(ix) < 1e-12
        law = oracles.two_qubit_law(s0, r0, "pauli")
        assert np.max(np.abs(law.evaluate(GRID) - want)) < 1e-10


def test_two_qubit_projection_amplitude_formula():
    # exp(-iSd) factorizes; amplitude = 1 + z s0 + z^2 r0 with z = e^{-id} - 1
    rng = np.random.default_rng(5)
    P1 = np.kron(qstate.PROJ_1, np.eye(2))
    P2 = np.kron(np.eye(2), qstate.PROJ_1)
    for _ in range(6):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        s0 = qstate.expect_value(P1 + P2, psi).real
        r0 = qstate.expect_value(P1 @ P2, psi).real
        z = np.exp(-1j * GRID) - 1
        want = np.abs(1 + z * s0 + z * z * r0) ** 2
        law = oracles.two_qubit_law(s0, r0, "projection")
        assert np.max(np.abs(law.evaluate(GRID) - want)) < 1e-10


def test_two_qubit_projection_direct_exponential():
    S = np.kron(qstate.PROJ_1, np.eye(2)) + np.kron(np.eye(2), qstate.PROJ_1)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    s0 = qstate.expect_value(S, psi).real
    P1P2 = np.kron(qstate.PROJ_1, qstate.PROJ_1)
    r0 = qstate.expect_value(P1P2, psi).real
    law = oracles.two_qubit_law(s0, r0, "projection")
    direct = fidelity_by_exponential(S, psi, GRID[:40])
    assert np.max(np.abs(law.evaluate(GRID[:40]) - direct)) < 1e-10


def test_two_qubit_law_range_guard():
    # unphysical pair pushes F above 1 on part of the period
    with pytest.raises(oracles.LawRangeError):
        oracles.two_qubit_law(1.5, -1.0, "pauli")
    with pytest.raises(ValueError):
        oracles.two_qubit_law(0.0, 0.0, "banana")


def test_law_coefficients_sum_to_one():
    # F(0) = 1 for every scenario law
    for law in (
        oracles.pauli_law(0.4),
        oracles.projection_law(0.7),
        oracles.two_qubit_law(0.3, 0.2, "pauli"),
        oracles.two_qubit_law(0.8, 0.1, "projection"),
    ):
        assert law.evaluate(0.0) == pytest.approx(1.0, abs=1e-12)


def test_product_two_and_product_law():
    a = oracles.pauli_law(0.2)
    b = oracles.pauli_law(0.6)
    prod = laws.product_two(a, b)
    want = a.evaluate(GRID) * b.evaluate(GRID)
    assert np.max(np.abs(prod.evaluate(GRID) - want)) < 1e-12
    c = oracles.projection_law(0.5)
    triple = oracles.product_law([a, b, c])
    want = a.evaluate(GRID) * b.evaluate(GRID) * c.evaluate(GRID)
    assert np.max(np.abs(triple.evaluate(GRID) - want)) < 1e-12


def test_series_mean_variance_quadrature_oracle():
    model = noise.ou_noise(0.2, 0.1)
    for law, t in [
        (oracles.pauli_law(0.0), 1.0),
        (oracles.pauli_law(0.5), 4.0),
        (oracles.projection_law(1 / math.sqrt(2)), 2.0),
        (oracles.two_qubit_law(0.0, 1.0, "pauli"), 3.0),
    ]:
        v = noise.increment_variance(model, t)
        m_ref, var_ref = gauss_mean_var(law, v)
        m, var = laws.series_mean_variance(law, model, t)
        assert abs(m - m_ref) < 1e-9
        assert abs(var - var_ref) < 1e-9


def test_series_mean_printed_forms():
    # pauli mean: (1 + s0^2)/2 + (1 - s0^2)/2 exp(-2v)
    g, k, t, s0 = 0.2, 0.1, 1.0, 0.3
    model = noise.ou_noise(g, k)
    v = noise.increment_variance(model, t)
    m, var = laws.series_mean_variance(oracles.pauli_law(s0), model, t)
    a0 = (1 + s0 * s0) / 2
    a2 = (1 - s0 * s0) / 2
    assert abs(m - (a0 + a2 * math.exp(-2 * v))) < 1e-14
    # variance from E[F^2] with cos^2 expanded
    m2 = (
        a0 * a0 + a2 * a2 / 2
        + 2 * a0 * a2 * math.exp(-2 * v)
        + a2 * a2 / 2 * math.exp(-8 * v)
    )
    assert abs(var - (m2 - m * m)) < 1e-14


def random_state(rng, d):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def test_spectral_law_against_matrix_exponential():
    """F(d) = |<phi| exp(-iSd) |phi>|^2 for random Hermitian S, 1-4 qubits."""
    rng = np.random.default_rng(17)
    deltas = np.linspace(-3.0, 6.0, 37)
    for n_qubits in (1, 2, 3, 4):
        d = 2**n_qubits
        for degenerate in (False, True):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            S = a + a.conj().T
            if degenerate:  # repeated eigenvalues exercise the merge
                u = np.linalg.qr(a)[0]
                S = u @ np.diag(rng.integers(-2, 3, d).astype(float)) @ u.conj().T
            phi = random_state(rng, d)
            law = laws.spectral_law(S, phi)
            want = fidelity_by_exponential(S, phi, deltas)
            assert np.max(np.abs(law.evaluate(deltas) - want)) < 1e-11
            assert law.evaluate(0.0) == pytest.approx(1.0, abs=1e-13)
            assert all(m >= 0 for m, _ in law.terms)


def test_spectral_law_matches_closed_forms():
    rng = np.random.default_rng(23)
    X, P, I = qstate.SIGMA_X, qstate.PROJ_1, np.eye(2)
    S3 = np.kron(np.kron(P, I), I) + np.kron(np.kron(I, X), I) + np.kron(np.kron(I, I), X)

    def gap(a, b):
        return np.max(np.abs(a.evaluate(GRID) - b.evaluate(GRID)))

    for _ in range(40):
        phi = random_state(rng, 2)
        s0 = qstate.expect_value(X, phi).real
        assert gap(laws.spectral_law(X, phi), oracles.pauli_law(s0)) < 1e-13
        q = qstate.expect_value(P, phi).real
        assert gap(laws.spectral_law(P, phi), oracles.projection_law(math.sqrt(q))) < 1e-13
        phi = random_state(rng, 4)
        for Q, klass in ((X, "pauli"), (P, "projection")):
            S = np.kron(Q, I) + np.kron(I, Q)
            s0 = qstate.expect_value(S, phi).real
            r0 = qstate.expect_value(np.kron(Q, Q), phi).real
            assert gap(laws.spectral_law(S, phi), oracles.two_qubit_law(s0, r0, klass)) < 1e-13
        # three-qubit product state: per-qubit laws multiply pathwise
        qubits = [random_state(rng, 2) for _ in range(3)]
        phi = np.kron(np.kron(qubits[0], qubits[1]), qubits[2])
        singles = [oracles.projection_law(math.sqrt(qstate.expect_value(P, qubits[0]).real))]
        singles += [oracles.pauli_law(qstate.expect_value(X, b).real) for b in qubits[1:]]
        assert gap(laws.spectral_law(S3, phi), oracles.product_law(singles)) < 1e-13


def test_spectral_law_drops_round_off_weights():
    # GHZ under X (x) I + I (x) X: the pairs at gap 2 carry only round-off
    S = np.kron(qstate.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), qstate.SIGMA_X)
    ghz = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    law = laws.spectral_law(S, ghz)
    want = oracles.two_qubit_law(0.0, 1.0, "pauli")
    assert [m for m, _ in law.terms] == [m for m, _ in want.terms] == [0, 4]
    assert np.allclose([c for _, c in law.terms], [c for _, c in want.terms],
                       rtol=0, atol=1e-15)
    assert abs(law.evaluate(0.0) - 1.0) <= 1e-15


def test_spectral_law_merges_integer_gaps():
    # fig7a: |00> under X (x) I + I (x) X has eigenvalues -2, 0, 0, 2
    S = np.kron(qstate.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), qstate.SIGMA_X)
    law = laws.spectral_law(S, np.array([1, 0, 0, 0], dtype=complex))
    assert [m for m, _ in law.terms] == [0, 2, 4]
    want = oracles.two_qubit_law(0.0, 0.0, "pauli")
    assert np.allclose([c for _, c in law.terms], [c for _, c in want.terms],
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", [
    noise.white_noise(0.3),
    noise.ou_noise(0.2, 0.1),
    noise.ou_noise(0.25, 0.4, init=noise.STATIONARY),
])
def test_series_mean_variance_over_a_time_array(model):
    # a time array gives, entry for entry, the per-time scalar results and
    # a per-time transcription in Python floats
    law = oracles.two_qubit_law(0.3, 0.2, "pauli")
    squared = laws.product_two(law, law)
    g2, k = model.gamma**2, model.k
    times = np.linspace(0.0, 20.0, 251)
    mean, var = laws.series_mean_variance(law, model, times)
    assert mean.shape == var.shape == times.shape
    for t, m, v in zip(times.tolist(), mean, var):
        m1, v1 = laws.series_mean_variance(law, model, t)
        assert isinstance(m1, float) and isinstance(v1, float)
        assert abs(m - m1) < 1e-14 and abs(v - v1) < 1e-14
        if k == 0:
            vt = g2 * t
        elif model.init == noise.CALIBRATED:
            vt = g2 / (2 * k) * -math.expm1(-2 * k * t)
        else:
            vt = g2 / k * -math.expm1(-k * t)
        m2 = sum(c * math.exp(-0.5 * f * f * vt) for f, c in law.terms)
        s2 = sum(c * math.exp(-0.5 * f * f * vt) for f, c in squared.terms)
        assert abs(m - m2) < 1e-14 and abs(v - (s2 - m2 * m2)) < 1e-14
