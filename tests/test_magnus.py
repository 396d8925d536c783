import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec

from sselab import laws, magnus, noise, qstate, sde


def lindblad_mean_fidelity(H, S, gamma, phi0, t):
    """Independent oracle: mean fidelity from the ensemble density matrix.

    For white noise the averaged state solves
    drho/dt = -i[H, rho] + gamma^2 (S rho S - (S^2 rho + rho S^2)/2),
    and E[F] = <phi_t| rho |phi_t> since F is linear in rho.
    """
    d = len(phi0)
    I = np.eye(d)
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    lind = (
        -1j * (np.kron(H, I) - np.kron(I, H.T))
        + gamma**2 * (
            np.kron(S, S.T)
            - 0.5 * np.kron(S @ S, I)
            - 0.5 * np.kron(I, (S @ S).T)
        )
    )
    rho0 = np.outer(phi0, phi0.conj()).reshape(-1)
    rho_t = (scipy.linalg.expm(lind * t) @ rho0).reshape(d, d)
    phi_t = scipy.linalg.expm(-1j * H * t) @ phi0
    return float(np.real(phi_t.conj() @ rho_t @ phi_t))


KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
X, Y, Z = qstate.SIGMA_X, qstate.SIGMA_Y, qstate.SIGMA_Z

# The independent reference for the Liouville-space means: the ten-component
# observable system.  For H = alpha*s1 and S = s2 with [s1, s2] = 2i*s3 cyclic,
# V = [F, ...] (V[0] = F) closes:
#   dV = alpha Ac V dt + (gamma^2/2) B^2 V dt + B V dX
# with fixed integer matrices Ac and B.  Time is rescaled to tau = alpha*t.
PAULI = {"X": X, "Y": Y, "Z": Z}
CYCLIC = (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y"))
TRIPLES = CYCLIC + (("X", "Z", "Y"), ("Z", "Y", "X"), ("Y", "X", "Z"))

AC = np.zeros((10, 10))
AC[2, 9], AC[3, 9], AC[9, 2], AC[9, 3] = -2, 2, 4, -4
AC[5, 6], AC[6, 5], AC[7, 8], AC[8, 7] = -2, 2, -2, 2
B = np.zeros((10, 10))
B[0, 5], B[1, 8], B[2, 5], B[3, 8] = -1, 1, 1, -1
B[4, 6], B[4, 7], B[5, 0], B[5, 2] = 1, -1, 2, -2
B[6, 4], B[6, 9], B[7, 4], B[7, 9] = -1, -1, 1, 1
B[8, 1], B[8, 3], B[9, 6], B[9, 7] = -2, 2, 1, -1
K = AC @ B - B @ AC


def ten_component_v0(triple, phi0):
    """V0 = [1, C1^2, C2^2, C3^2, 0, 0, 0, 2C1C2, 2C1C3, 2C2C3] for the Bloch
    vector C of phi0 along the triple; an anticyclic triple flips C3."""
    c1, c2, c3 = (qstate.expect_value(PAULI[ax], phi0).real for ax in triple)
    c3 *= 1.0 if triple in CYCLIC else -1.0
    return np.array([1.0, c1 * c1, c2 * c2, c3 * c3, 0.0, 0.0, 0.0,
                     2 * c1 * c2, 2 * c1 * c3, 2 * c2 * c3])


def rotating_frame_D(t):
    """D(t) = exp(-Ac t) B exp(Ac t) = cos(2t) B - (1/2) sin(2t) K, rescaled time."""
    return math.cos(2 * t) * B - 0.5 * math.sin(2 * t) * K


def test_rotating_frame_identity():
    """cos(2t) B - sin(2t) K/2 must equal the conjugated generator; the
    ten-component reference rests on it."""
    rng = np.random.default_rng(1)
    for t in rng.uniform(0, 10, size=12):
        want = scipy.linalg.expm(-AC * t) @ B @ scipy.linalg.expm(AC * t)
        assert np.max(np.abs(rotating_frame_D(t) - want)) < 1e-10


def ou_second_order_reference(alpha, gamma, k, triple, phi0, t):
    """The second-order OU Magnus mean from the ten-component system, the
    outer integral by adaptive quadrature, the inner ones in closed form."""
    tau, g2, kh = alpha * t, gamma**2 / alpha, k / alpha
    if tau == 0:
        return 1.0

    def inner_integral(s, c):
        """The integral of e^{cs'} D(s') over [0, s]."""
        den, ecs = c * c + 4.0, math.exp(c * s)
        ib = (ecs * (c * math.cos(2 * s) + 2 * math.sin(2 * s)) - c) / den
        ik = (ecs * (c * math.sin(2 * s) - 2 * math.cos(2 * s)) + 2) / den
        return ib * B - 0.5 * ik * K

    def integrand(s):
        d = rotating_frame_D(s)
        out = 0.5 * g2 * d @ d
        for c, scale in ((kh, -0.5 * g2 * kh), (2 * kh, 0.25 * g2 * kh)):
            inner = inner_integral(s, c)
            out += scale * math.exp(-c * s) * (d @ inner + inner @ d)
        return out

    eu = np.eye(10) + quad_vec(integrand, 0.0, tau, epsabs=1e-13, epsrel=1e-13)[0]
    return float((scipy.linalg.expm(AC * tau) @ eu @ ten_component_v0(triple, phi0))[0])


def test_ou_second_order_matches_matrix_quadrature():
    """The Liouville closed form against the ten-component expansion, one
    time per call and all the times in one call."""
    rng = np.random.default_rng(23)
    gamma, seen_out_of_range = 0.3, False
    ts = np.array([0.0, 0.4, 2.5, 8.0])
    for triple in TRIPLES:
        phi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi0 /= np.linalg.norm(phi0)
        for alpha in (0.7, 1.0, 2.0):
            H, S = alpha * PAULI[triple[0]], PAULI[triple[1]]
            for k in (1e-8, 0.05, 1.0, 3.0):
                model = noise.ou_noise(gamma, k)
                batch = magnus.ou_second_order_mean(H, S, model, phi0, ts)
                scalars = []
                for i, t in enumerate(ts):
                    got = magnus.ou_second_order_mean(H, S, model, phi0, t)
                    want = ou_second_order_reference(alpha, gamma, k, triple, phi0, t)
                    assert isinstance(got.value, float)
                    assert abs(got.value - want) <= 1e-13
                    assert abs(batch.value[i] - want) <= 1e-13
                    assert got.in_range == (0.0 <= want <= 1.0)
                    scalars.append(got)
                    seen_out_of_range |= not got.in_range
                assert batch.value[0] == 1.0
                per_time = (0.0 <= batch.value) & (batch.value <= 1.0)
                assert per_time.tolist() == [a.in_range for a in scalars]
                assert batch.in_range is all(a.in_range for a in scalars)
    assert seen_out_of_range  # the in_range comparison is not vacuous
    # e^{k t} alone overflows a double here; the decaying form stays finite
    fast = noise.ou_noise(gamma, 400.0)
    assert math.isfinite(magnus.ou_second_order_mean(X, Z, fast, KET0, 2.0).value)
    in_array = magnus.ou_second_order_mean(X, Z, fast, KET0, np.array([0.0, 0.5, 2.0]))
    assert np.isfinite(in_array.value).all()


def test_wn_means_match_the_ten_component_system():
    """White noise: exp(Ac tau) exp(M(tau)) V0 with M = (g2/2) int D^2 for
    the Magnus mean."""
    rng = np.random.default_rng(5)
    gamma = 0.3
    for triple in TRIPLES:
        phi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi0 /= np.linalg.norm(phi0)
        v0 = ten_component_v0(triple, phi0)
        for alpha in (0.7, 2.0):
            H, S, model = alpha * PAULI[triple[0]], PAULI[triple[1]], noise.white_noise(gamma)
            for t in (0.4, 2.5, 8.0):
                tau, g2 = alpha * t, gamma**2 / alpha
                m = quad_vec(lambda s: rotating_frame_D(s) @ rotating_frame_D(s), 0.0, tau,
                             epsabs=1e-13, epsrel=1e-13)[0]
                magnus_v = scipy.linalg.expm(AC * tau) @ scipy.linalg.expm(0.5 * g2 * m) @ v0
                assert magnus.wn_mean_fidelity(H, S, model, phi0, t) == pytest.approx(
                    magnus_v[0], abs=1e-13)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def test_wn_mean_fidelity_is_the_exponential_of_its_hermitian_generator():
    """One eigh of M(t) against scipy's expm of the same generator, at
    dimensions beyond a qubit's; the mean stays a probability, and a
    scalar t gives the float the array gives."""
    rng = np.random.default_rng(17)
    ts = np.array([0.0, 0.05, 0.7, 2.0, 6.5, 10.0])
    for d in (2, 3, 4):
        for gamma in (0.05, 0.3, 1.0):
            model = noise.white_noise(gamma)
            for _ in range(4):
                H, S = random_hermitian(rng, d), random_hermitian(rng, d)
                phi0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                phi0 /= np.linalg.norm(phi0)
                dis, omega, r = magnus._frame(H, S, phi0)
                m = magnus._wn_exponent(dis, omega, gamma, ts)
                assert np.max(np.abs(m - m.conj().transpose(0, 2, 1))) <= 1e-15 * np.max(
                    np.abs(m))
                want = [(r.conj() @ scipy.linalg.expm(mi) @ r).real for mi in m]
                got = magnus.wn_mean_fidelity(H, S, model, phi0, ts)
                assert np.max(np.abs(got - want)) <= 1e-12
                assert -1e-14 <= got.min() and got.max() <= 1 + 1e-14
                scalar = magnus.wn_mean_fidelity(H, S, model, phi0, ts[3])
                assert isinstance(scalar, float) and scalar == got[3]


@pytest.mark.parametrize("mean_fn, model", [
    (magnus.wn_mean_fidelity, noise.white_noise(0.3)),
    (lambda *args: magnus.ou_second_order_mean(*args).value, noise.ou_noise(0.3, 0.5)),
], ids=["white", "ou"])
def test_magnus_mean_over_several_blocks(mean_fn, model):
    """A time array longer than one block agrees bit for bit with its pieces."""
    H = qstate.control_hamiltonian(1.0, 0.3, 0.5)
    ts = np.linspace(0.0, 20.0, magnus._BLOCK + 7)
    whole = mean_fn(H, Z, model, KET_PLUS, ts)
    cut = magnus._BLOCK // 2 + 3
    pieces = [mean_fn(H, Z, model, KET_PLUS, p) for p in (ts[:cut], ts[cut:])]
    assert whole.shape == ts.shape and np.array_equal(whole, np.concatenate(pieces))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wn_mean_fidelity_rejects_a_non_finite_drive(bad):
    H = X.copy()
    H[0, 1] = H[1, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        magnus.wn_mean_fidelity(H, Z, noise.white_noise(0.3), KET0, np.array([0.5, 1.0]))


def test_wn_magnus_without_drive_is_the_spectral_law():
    """H = 0: every rotating exponent is 0 (E(0) = t), and the Magnus mean
    is the exact dephasing law 1/2 + e^{-2 gamma^2 t}/2."""
    gamma = 0.4
    ts = np.linspace(0.0, 10.0, 41)
    model = noise.white_noise(gamma)
    got = magnus.wn_mean_fidelity(np.zeros((2, 2)), Z, model, KET_PLUS, ts)
    law_mean, _ = laws.series_mean_variance(laws.spectral_law(Z, KET_PLUS), model, ts)
    assert np.max(np.abs(got - law_mean)) < 1e-12
    assert np.max(np.abs(got - (0.5 + 0.5 * np.exp(-2 * gamma**2 * ts)))) < 1e-12


def test_wn_magnus_close_to_exact_at_weak_coupling():
    model = noise.white_noise(0.1)
    ts = np.linspace(0.1, 10.0, 40)
    approx = magnus.wn_mean_fidelity(X, Z, model, KET0, ts)
    exact = [lindblad_mean_fidelity(X, Z, 0.1, KET0, t) for t in ts]
    assert np.max(np.abs(approx - exact)) < 2e-3
    # scalar input returns a scalar
    assert isinstance(magnus.wn_mean_fidelity(X, Z, model, KET0, 1.0), float)


def test_wn_mean_fidelity_against_monte_carlo():
    model = noise.white_noise(0.4)
    cfg = sde.SimConfig(dt=1e-3, T=4.0, n_paths=400, master_seed=31, record_every=500)
    res = sde.simulate_paths(X, Z, model, KET0, cfg)
    magnus_vals = magnus.wn_mean_fidelity(X, Z, model, KET0, res.times)
    gap = np.abs(res.summary.mean_f - magnus_vals)
    assert gap.max() < 0.02


def test_time_rescaling_identity():
    # fidelity depends on (alpha, gamma^2, t) only through (gamma^2/alpha, alpha t)
    gamma, alpha = 0.3, 2.5
    fast = noise.white_noise(gamma)
    unit = noise.white_noise(gamma / math.sqrt(alpha))
    for t in (0.4, 1.0, 3.0):
        am = magnus.wn_mean_fidelity(alpha * X, Z, fast, KET0, t)
        bm = magnus.wn_mean_fidelity(X, Z, unit, KET0, alpha * t)
        assert abs(am - bm) < 1e-12


def test_flat_start_for_transverse_bloch_vector():
    # |0> under H = X, S = Z: Bloch vector on the noise axis, transverse
    # to the drive, gives F'(0) = 0: plateau at short times.  D r = 0 for
    # that state, so the Magnus mean starts flat too
    bloch = [qstate.expect_value(p, KET0).real for p in (X, Z, Y)]
    assert bloch == pytest.approx([0, 1, 0])
    model = noise.white_noise(0.3)
    for t in (1e-3, 2e-3):
        drop = 1.0 - magnus.wn_mean_fidelity(X, Z, model, KET0, t)
        assert drop < 5 * t * t  # quadratic, not linear


def test_ou_second_order_k_to_zero():
    gamma = 0.1
    for t in (1.0, 3.0):
        wn = magnus.wn_mean_fidelity(X, Z, noise.white_noise(gamma), KET0, t)
        ou = magnus.ou_second_order_mean(X, Z, noise.ou_noise(gamma, 1e-8), KET0, t)
        # expm(M) vs I + M differ at O(M^2); both are tiny here
        assert abs(ou.value - wn) < 1e-3


def test_ou_second_order_guards_and_quadrature():
    """The wrong noise kind is rejected, and the closed-form integrals match
    a quadrature of the Liouville integrand in the computational basis, for
    a control drive that no axis triple describes."""
    gamma, k, t = 0.2, 0.5, 4.0
    H, S = qstate.control_hamiltonian(1.0, 0.3, 0.5), Z
    model = noise.ou_noise(gamma, k)
    with pytest.raises(ValueError):
        magnus.ou_second_order_mean(H, S, noise.white_noise(gamma), KET0, 1.0)
    with pytest.raises(ValueError):
        magnus.wn_mean_fidelity(H, S, model, KET0, 1.0)
    assert magnus.ou_second_order_mean(H, S, model, KET0, 0.0).value == 1.0

    eye = np.eye(2)
    l_h = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    dis = -1j * (np.kron(S, eye) - np.kron(eye, S.T))

    def rotating(s):
        return scipy.linalg.expm(-l_h * s) @ dis @ scipy.linalg.expm(l_h * s)

    def weighted_integral(s, c):
        """The integral of e^{cu} D(u) over [0, s], from the block exponential
        exp([[A, dis], [0, l_h]] s) with A = l_h - c (Van Loan)."""
        a = l_h - c * np.eye(4)
        block = scipy.linalg.expm(np.block([[a, dis], [np.zeros((4, 4)), l_h]]) * s)
        return scipy.linalg.expm(-a * s) @ block[:4, 4:]

    def integrand(s):
        d = rotating(s)
        out = 0.5 * gamma**2 * d @ d
        for c, scale in ((k, -0.5 * gamma**2 * k), (2 * k, 0.25 * gamma**2 * k)):
            inner = weighted_integral(s, c)
            out += scale * math.exp(-c * s) * (d @ inner + inner @ d)
        return out

    eu = np.eye(4) + quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)[0]
    for phi0 in (KET0, KET_PLUS):
        rho0 = np.outer(phi0, phi0.conj()).ravel()
        want = (rho0.conj() @ eu @ rho0).real
        assert magnus.ou_second_order_mean(H, S, model, phi0, t).value == pytest.approx(
            want, abs=1e-12)
        batch = magnus.ou_second_order_mean(H, S, model, phi0, np.array([0.0, t]))
        assert batch.value[0] == 1.0 and batch.value[1] == pytest.approx(want, abs=1e-12)
        assert batch.in_range == (0.0 <= want <= 1.0)


def test_ou_second_order_against_monte_carlo():
    gamma, k = 0.2, 0.5
    model = noise.ou_noise(gamma, k)
    cfg = sde.SimConfig(dt=1e-3, T=3.0, n_paths=400, master_seed=13, record_every=1000)
    res = sde.simulate_paths(X, Z, model, KET0, cfg)
    for j in (1, 2, 3):
        approx = magnus.ou_second_order_mean(X, Z, model, KET0, res.times[j])
        assert approx.in_range
        assert abs(approx.value - res.summary.mean_f[j]) < 0.02
