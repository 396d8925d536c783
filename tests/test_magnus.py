import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from sselab import magnus, noise, qstate, sde


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


def test_matrix_entries():
    Ac, B, K = magnus.AC_MATRIX, magnus.B_MATRIX, magnus.K_MATRIX
    assert Ac.shape == B.shape == K.shape == (10, 10)
    assert Ac[2, 9] == -2 and Ac[3, 9] == 2 and Ac[9, 2] == 4 and Ac[9, 3] == -4
    assert Ac[5, 6] == -2 and Ac[6, 5] == 2 and Ac[7, 8] == -2 and Ac[8, 7] == 2
    assert B[0, 5] == -1 and B[5, 0] == 2 and B[8, 1] == -2 and B[9, 6] == 1
    assert np.count_nonzero(Ac) == 8
    assert np.count_nonzero(B) == 16
    assert np.allclose(K, Ac @ B - B @ Ac)
    for m in (Ac, B, K):
        assert not m.flags.writeable


def rotating_frame_D(t):
    """D(t) = cos(2t) B - (1/2) sin(2t) K, in rescaled time."""
    return math.cos(2 * t) * magnus.B_MATRIX - 0.5 * math.sin(2 * t) * magnus.K_MATRIX


def test_rotating_frame_identity():
    """cos(2t) B - sin(2t) K/2 must equal the conjugated generator; the
    OU quadrature and the white-noise generator both rest on it."""
    rng = np.random.default_rng(1)
    for t in rng.uniform(0, 10, size=12):
        want = (
            scipy.linalg.expm(-magnus.AC_MATRIX * t)
            @ magnus.B_MATRIX
            @ scipy.linalg.expm(magnus.AC_MATRIX * t)
        )
        assert np.max(np.abs(rotating_frame_D(t) - want)) < 1e-10
    B, K = magnus.B_MATRIX, magnus.K_MATRIX
    assert np.array_equal(magnus.B2_MATRIX, B @ B)
    assert np.array_equal(magnus.BK_MATRIX, B @ K + K @ B)
    assert np.array_equal(magnus.K2_MATRIX, K @ K)
    for m in (magnus.B2_MATRIX, magnus.BK_MATRIX, magnus.K2_MATRIX):
        assert not m.flags.writeable


def test_system_validation():
    magnus.NonCommutingSystem(alpha=1.0, gamma=0.4, triple=("X", "Z", "Y"), C=(0, 0, 1))
    with pytest.raises(ValueError):
        magnus.NonCommutingSystem(alpha=0.0, gamma=0.4, C=(0, 0, 1))
    with pytest.raises(ValueError):
        magnus.NonCommutingSystem(alpha=1.0, gamma=0.4, triple=("X", "X", "Z"),
                                  C=(0, 0, 1))
    with pytest.raises(ValueError):
        magnus.NonCommutingSystem(alpha=1.0, gamma=0.4, C=(0.5, 0, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        magnus.NonCommutingSystem(alpha=0.1, gamma=0.4, C=(0, 0, 1))
    assert any("not small" in str(w.message) for w in caught)


def test_bloch_triple_signs():
    # |0> has Bloch vector (0, 0, 1)
    assert magnus.bloch_triple(KET0, ("X", "Y", "Z")) == pytest.approx((0, 0, 1))
    # anticyclic ordering flips the third axis
    assert magnus.bloch_triple(KET0, ("Y", "X", "Z")) == pytest.approx((0, 0, -1))
    assert magnus.bloch_triple(KET_PLUS, ("X", "Y", "Z")) == pytest.approx((1, 0, 0))
    got = magnus.bloch_triple(KET0, ("X", "Z", "Y"))
    assert got == pytest.approx((0, 1, 0))


def test_build_system_v0():
    sys = magnus.system_for_state(1.0, 0.4, ("X", "Y", "Z"), KET0)
    v0 = magnus.build_system(sys, KET0)
    assert np.allclose(v0, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0])
    sysb = magnus.system_for_state(1.0, 0.4, ("X", "Z", "Y"), KET0)
    v0b = magnus.build_system(sysb, KET0)
    assert np.allclose(v0b, [1, 0, 1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        magnus.build_system(sys, np.array([1.0, 1.0]))  # not normalized


def test_wn_exact_mean_against_lindblad():
    """10-dim observable propagation vs 2-dim density-matrix propagation."""
    for triple, phi0 in [
        (("X", "Z", "Y"), KET0),
        (("X", "Y", "Z"), KET0),
        (("Z", "X", "Y"), KET_PLUS),
    ]:
        for alpha, gamma in [(1.0, 0.4), (2.0, 0.3)]:
            sys = magnus.system_for_state(alpha, gamma, triple, phi0)
            H, S = sys.operators()
            for t in (0.3, 1.7, 6.0):
                want = lindblad_mean_fidelity(H, S, gamma, phi0, t)
                got = magnus.wn_exact_mean(sys, phi0, t)
                assert abs(got - want) < 1e-10


def test_wn_magnus_close_to_exact_at_weak_coupling():
    sys = magnus.system_for_state(1.0, 0.1, ("X", "Z", "Y"), KET0)
    ts = np.linspace(0.1, 10.0, 40)
    approx = magnus.wn_mean_fidelity(sys, KET0, ts)
    exact = magnus.wn_exact_mean(sys, KET0, ts)
    assert np.max(np.abs(approx - exact)) < 2e-3
    # scalar input returns a scalar
    assert isinstance(magnus.wn_mean_fidelity(sys, KET0, 1.0), float)


def test_wn_mean_fidelity_against_monte_carlo():
    sys = magnus.system_for_state(1.0, 0.4, ("X", "Z", "Y"), KET0)
    H, S = sys.operators()
    model = noise.white_noise(0.4)
    cfg = sde.SimConfig(dt=1e-3, T=4.0, n_paths=400, master_seed=31, record_every=500)
    res = sde.simulate_paths(H, S, model, KET0, cfg)
    magnus_vals = magnus.wn_mean_fidelity(sys, KET0, res.times)
    gap = np.abs(res.summary.mean_f - magnus_vals)
    assert gap.max() < 0.02


def test_time_rescaling_identity():
    # fidelity depends on (alpha, gamma^2, t) only through (gamma^2/alpha, alpha t)
    gamma, alpha = 0.3, 2.5
    sys_fast = magnus.system_for_state(alpha, gamma, ("X", "Z", "Y"), KET0)
    sys_unit = magnus.system_for_state(
        1.0, gamma / math.sqrt(alpha), ("X", "Z", "Y"), KET0)
    for t in (0.4, 1.0, 3.0):
        a = magnus.wn_exact_mean(sys_fast, KET0, t)
        b = magnus.wn_exact_mean(sys_unit, KET0, alpha * t)
        assert abs(a - b) < 1e-12
        am = magnus.wn_mean_fidelity(sys_fast, KET0, t)
        bm = magnus.wn_mean_fidelity(sys_unit, KET0, alpha * t)
        assert abs(am - bm) < 1e-12


def test_flat_start_for_transverse_bloch_vector():
    # C = (0, 1, 0) gives F'(0) = 0: plateau at short times
    sys = magnus.system_for_state(1.0, 0.3, ("X", "Z", "Y"), KET0)
    assert sys.C == pytest.approx((0, 1, 0))
    for t in (1e-3, 2e-3):
        drop = 1.0 - magnus.wn_exact_mean(sys, KET0, t)
        assert drop < 5 * t * t  # quadratic, not linear


def test_ou_second_order_k_to_zero():
    gamma = 0.1
    sys = magnus.system_for_state(1.0, gamma, ("X", "Z", "Y"), KET0)
    for t in (1.0, 3.0):
        wn = magnus.wn_mean_fidelity(sys, KET0, t)
        ou = magnus.ou_second_order_mean(sys, KET0, noise.ou_noise(gamma, 1e-8), t)
        # expm(M) vs I + M differ at O(M^2); both are tiny here
        assert abs(ou.value - wn) < 1e-3


def test_ou_second_order_guards_and_quadrature():
    gamma = 0.2
    sys = magnus.system_for_state(1.0, gamma, ("X", "Z", "Y"), KET0)
    with pytest.raises(ValueError):
        magnus.ou_second_order_mean(sys, KET0, noise.white_noise(gamma), 1.0)
    with pytest.raises(ValueError):
        magnus.ou_second_order_mean(sys, KET0, noise.ou_noise(0.3, 0.5), 1.0)
    model = noise.ou_noise(gamma, 0.5)
    a = magnus.ou_second_order_mean(sys, KET0, model, 4.0, n_nodes=400)
    b = magnus.ou_second_order_mean(sys, KET0, model, 4.0, n_nodes=1600)
    assert abs(a.value - b.value) < 1e-9
    assert magnus.ou_second_order_mean(sys, KET0, model, 0.0).value == 1.0


def test_ou_second_order_against_monte_carlo():
    gamma, k = 0.2, 0.5
    sys = magnus.system_for_state(1.0, gamma, ("X", "Z", "Y"), KET0)
    H, S = sys.operators()
    model = noise.ou_noise(gamma, k)
    cfg = sde.SimConfig(dt=1e-3, T=3.0, n_paths=400, master_seed=13, record_every=1000)
    res = sde.simulate_paths(H, S, model, KET0, cfg)
    for j in (1, 2, 3):
        approx = magnus.ou_second_order_mean(sys, KET0, model, res.times[j])
        assert approx.in_range
        assert abs(approx.value - res.summary.mean_f[j]) < 0.02


def ou_second_order_reference(sys, phi0, model, t, n_nodes=400):
    """The matrix-valued Simpson loop: two 10x10 anticommutators per node."""
    v0 = magnus.build_system(sys, phi0)
    tau, g2, kh = sys.alpha * t, sys.epsilon_sq, model.k / sys.alpha
    if tau == 0:
        return magnus.ApproxMean(value=1.0, in_range=True)
    n_nodes += n_nodes % 2

    def inner_integral(s, c):
        den, ecs = c * c + 4.0, math.exp(c * s)
        ib = (ecs * (c * math.cos(2 * s) + 2 * math.sin(2 * s)) - c) / den
        ik = (ecs * (c * math.sin(2 * s) - 2 * math.cos(2 * s)) + 2) / den
        return ib * magnus.B_MATRIX - 0.5 * ik * magnus.K_MATRIX

    def outer_integrand(s):
        d = rotating_frame_D(s)
        t1 = qstate.commutator(math.exp(-kh * s) * d, inner_integral(s, kh), anti=True)
        t2 = qstate.commutator(math.exp(-2 * kh * s) * d, inner_integral(s, 2 * kh),
                               anti=True)
        return -0.5 * g2 * kh * t1 + 0.25 * g2 * kh * t2

    h = tau / n_nodes
    acc = outer_integrand(0.0) + outer_integrand(tau)
    for j in range(1, n_nodes):
        acc = acc + (4.0 if j % 2 else 2.0) * outer_integrand(j * h)
    eu = np.eye(10) + magnus._wn_magnus_generator(g2, tau) + (h / 3.0) * acc
    value = float((qstate.mat_exp(magnus.AC_MATRIX * tau) @ eu @ v0)[0].real)
    return magnus.ApproxMean(value=value, in_range=0.0 <= value <= 1.0)


def test_ou_second_order_matches_matrix_quadrature():
    """The three-weight quadrature against the matrix-valued loop it replaces."""
    rng = np.random.default_rng(23)
    triples = [("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y"),
               ("X", "Z", "Y"), ("Z", "Y", "X"), ("Y", "X", "Z")]
    gamma, seen_out_of_range = 0.3, False
    for triple in triples:
        phi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi0 /= np.linalg.norm(phi0)
        for alpha in (0.7, 1.0, 2.0):
            sys = magnus.system_for_state(alpha, gamma, triple, phi0)
            for k in (1e-8, 0.05, 1.0, 3.0):
                model = noise.ou_noise(gamma, k)
                for t, n_nodes in ((0.0, 400), (0.4, 400), (2.5, 51), (8.0, 400)):
                    got = magnus.ou_second_order_mean(sys, phi0, model, t, n_nodes)
                    want = ou_second_order_reference(sys, phi0, model, t, n_nodes)
                    assert abs(got.value - want.value) <= 1e-13
                    assert got.in_range == want.in_range
                    seen_out_of_range |= not want.in_range
    assert seen_out_of_range  # the in_range comparison is not vacuous
    # e^{k t} alone overflows a double here; the decaying form stays finite
    sys = magnus.system_for_state(1.0, gamma, ("X", "Z", "Y"), KET0)
    assert math.isfinite(
        magnus.ou_second_order_mean(sys, KET0, noise.ou_noise(gamma, 400.0), 2.0).value)
