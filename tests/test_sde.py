import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from sselab import laws, noise, qstate, sde

import oracles

ZERO_H = np.zeros((2, 2), dtype=complex)
_I2 = np.eye(2)
KET0 = np.array([1.0, 0.0], dtype=complex)
_U = Fraction(1, 2**53)  # unit round-off of a double


@dataclass
class JointState:
    psi: np.ndarray
    x: float


def _weights(x, N, terms):
    """Monomial weights (1, x, N, x^2, xN, N^2)[:terms] of the step map."""
    return [1.0, x, N, x * x, x * N, N * N][:terms]


def _initial_x(model, stream):
    """X0 of one path, drawn from the head of its own stream."""
    return float(noise.initial_x(model, stream.standard_normal((1, noise.initial_draws(model))))[0])


def step(Y, H, S, model, config, stream, normal=None):
    """One scheme step of the joint SDE; a single shared normal draw.

    The dense reference for `sde.simulate_paths`: psi' = sum_m w_m (M_m psi)
    in the computational basis, over `sde._step_map`.  `normal` overrides
    the draw.  Raises PathAbortError on NaN or norm blow-up past 1.5.
    """
    psi = np.asarray(Y.psi, dtype=complex)
    H, S = sde._check_ops(H, S, psi.shape[0])
    N = float(stream.standard_normal()) if normal is None else float(normal)
    M, (ax, an) = sde._step_map(H, S, model, config.scheme, config.dt)
    w = _weights(float(Y.x), N, len(M))
    psi1 = sum(wm * (Mm @ psi) for wm, Mm in zip(w, M))
    norm = float(np.linalg.norm(psi1))
    if not np.all(np.isfinite(psi1)) or norm > sde.ABORT_NORM:
        raise sde.PathAbortError(f"path aborted: norm {norm:.4g}")
    if config.renormalize and norm > 0:
        psi1 /= norm
    return JointState(psi=psi1, x=ax * float(Y.x) + an * N)


def test_sim_config_validation():
    sde.SimConfig(dt=0.01, T=1.0)
    with pytest.raises(ValueError):
        sde.SimConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        sde.SimConfig(dt=0.01, T=1.0, n_paths=0)
    with pytest.raises(ValueError):
        sde.SimConfig(dt=0.01, T=1.0, scheme="rk4")
    with pytest.raises(ValueError):
        sde.SimConfig(dt=0.3, T=1.0)  # T/dt not an integer
    with pytest.raises(ValueError):
        sde.SimConfig(dt=0.01, T=1.0, record_every=7)  # does not divide 100
    cfg = sde.SimConfig(dt=0.01, T=1.0, record_every=10)
    assert cfg.n_steps == 100


def test_euler_step_by_hand():
    g, dt, N = 0.2, 1e-3, 0.7
    model = noise.white_noise(g)
    cfg = sde.SimConfig(dt=dt, T=dt, scheme=sde.EULER_MARUYAMA, renormalize=False)
    Y = JointState(psi=KET0, x=0.0)
    out = step(Y, ZERO_H, qstate.SIGMA_X, model, cfg, None, normal=N)
    want0 = 1.0 - 0.5 * g * g * dt
    want1 = -1j * g * N * math.sqrt(dt)
    assert abs(out.psi[0] - want0) < 1e-15
    assert abs(out.psi[1] - want1) < 1e-15
    assert out.x == pytest.approx(g * N * math.sqrt(dt))


def test_platen_step_matches_formula():
    """Single Platen step against an independent transcription."""
    g, k, dt, N = 0.3, 0.4, 1e-2, -1.2
    model = noise.ou_noise(g, k)
    H = 0.7 * qstate.SIGMA_X
    S = qstate.SIGMA_X
    psi0 = np.array([0.8, 0.6j])
    x0 = 0.25
    cfg = sde.SimConfig(dt=dt, T=dt, renormalize=False)
    out = step(JointState(psi=psi0, x=x0), H, S, model, cfg, None, normal=N)

    def a_fn(psi, x):
        return (-1j) * (H @ psi) + 1j * k * x * (S @ psi) - 0.5 * g * g * psi

    def b_fn(psi):
        return -1j * g * (S @ psi)

    sq = math.sqrt(dt)
    a0, b0 = a_fn(psi0, x0), b_fn(psi0)
    bar = psi0 + a0 * dt + b0 * N * sq
    bar_x = x0 - k * x0 * dt + g * N * sq
    up = psi0 + a0 * dt + b0 * sq
    dn = psi0 + a0 * dt - b0 * sq
    want = (
        psi0
        + 0.5 * (a_fn(bar, bar_x) + a0) * dt
        + 0.25 * (b_fn(up) + b_fn(dn) + 2 * b0) * N * sq
        + 0.25 * (b_fn(up) - b_fn(dn)) * (N * N - 1) * sq
    )
    want_x = x0 + 0.5 * (-k * bar_x - k * x0) * dt + g * N * sq
    assert np.max(np.abs(out.psi - want)) < 1e-15
    assert out.x == pytest.approx(want_x, abs=1e-15)


def _random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def _scheme_formula(scheme, H, S, g, k, dt, psi, x, N):
    """One step of either scheme, transcribed from its textbook form."""
    def a_fn(psi, x):
        return -1j * (H @ psi) + 1j * k * x * (S @ psi) - 0.5 * g * g * (S @ (S @ psi))

    def b_fn(psi):
        return -1j * g * (S @ psi)

    sq = math.sqrt(dt)
    a0, b0 = a_fn(psi, x), b_fn(psi)
    bar = psi + a0 * dt + b0 * N * sq
    bar_x = x - k * x * dt + g * N * sq
    if scheme == sde.EULER_MARUYAMA:
        return bar, bar_x
    up = psi + a0 * dt + b0 * sq
    dn = psi + a0 * dt - b0 * sq
    want = (
        psi
        + 0.5 * (a_fn(bar, bar_x) + a0) * dt
        + 0.25 * (b_fn(up) + b_fn(dn) + 2 * b0) * N * sq
        + 0.25 * (b_fn(up) - b_fn(dn)) * (N * N - 1) * sq
    )
    return want, x + 0.5 * (-k * bar_x - k * x) * dt + g * N * sq


@pytest.mark.parametrize("scheme", sde.SCHEMES)
def test_step_map_matches_scheme_formula(scheme):
    """The precomputed step map against the scheme, at d=4 with S'S != I."""
    rng = np.random.default_rng(17)
    H, S = _random_hermitian(rng, 4), _random_hermitian(rng, 4)
    g, k, dt, x0 = 0.35, 0.8, 0.02, -0.6
    psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi0 /= np.linalg.norm(psi0)
    cfg = sde.SimConfig(dt=dt, T=dt, scheme=scheme, renormalize=False)
    for N in (-2.3, -0.4, 0.0, 1.1, 3.0):
        out = step(JointState(psi=psi0, x=x0), H, S, noise.ou_noise(g, k), cfg,
                   None, normal=N)
        want, want_x = _scheme_formula(scheme, H, S, g, k, dt, psi0, x0, N)
        assert np.max(np.abs(out.psi - want)) < 1e-13
        assert abs(out.x - want_x) < 1e-13


@pytest.mark.parametrize("scheme", sde.SCHEMES)
def test_simulate_paths_matches_step_loop(scheme):
    """The batched kernel against step() on each path's own Philox stream.

    Random H and S make every wrapped diagonal of the step matrices
    nonzero.  S = Z (x) I with H = X (x) I leaves only the shifts 0 and 2.
    The 150-step run passes two of the points where a renormalizing run
    rescales its unnormalized states (steps 64 and 128).
    """
    rng = np.random.default_rng(5)
    H, S = _random_hermitian(rng, 4), _random_hermitian(rng, 4)
    model = noise.ou_noise(0.3, 0.7, init=noise.STATIONARY)
    phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi0 /= np.linalg.norm(phi0)
    cases = (((H, S), [0, 1, 2, 3]),
             ((np.kron(qstate.SIGMA_X, _I2), np.kron(qstate.SIGMA_Z, _I2)), [0, 2]))
    for (H, S), shifts in cases:
        M = sde._step_map(H, S, model, scheme, 0.01)[0]
        assert sde._eigenbasis(M, H, S)[1] == shifts
        for T in (0.2, 1.5):
            cfg = sde.SimConfig(dt=0.01, T=T, n_paths=3, master_seed=12, scheme=scheme,
                                keep_states=True)
            res = sde.simulate_paths(H, S, model, phi0, cfg)
            assert res.kernel == "dense"
            assert res.states.shape == (3, cfg.n_steps + 1, 4)
            targets = sde.target_evolution(H, phi0, res.times)
            for i in range(3):
                stream = np.random.Generator(
                    np.random.Philox(key=np.array([12, i], dtype=np.uint64)))
                Y = JointState(psi=phi0, x=_initial_x(model, stream))
                for j in range(cfg.n_steps + 1):
                    assert np.max(np.abs(res.states[i, j] - Y.psi)) < 1e-13
                    assert abs(res.xs[i, j] - Y.x) < 1e-13
                    assert abs(res.fidelities[i, j] - abs(np.vdot(targets[j], Y.psi)) ** 2) < 1e-13
                    if j < cfg.n_steps:
                        Y = step(Y, H, S, model, cfg, stream)


_XX = np.kron(qstate.SIGMA_X, qstate.SIGMA_X)
_KET00 = np.array([1.0, 0, 0, 0])


def _collective(Q):
    return np.kron(Q, _I2) + np.kron(_I2, Q)


# Each pair commutes, with the amplitudes the run steps per path and its
# occupied classes, an inert one included.  Z (x) I has two double
# eigenvalues, and eigh returns the standard basis, in which I (x) X is not
# diagonal: only the basis that also diagonalizes H inside S's eigenspaces
# makes the step matrices diagonal there.  A collective S has the double
# eigenvalue 0: under X, eigh puts all of |00>'s weight there on one
# eigenvector and the other is dropped; under Y both carry some, and the
# two merge.  Where H vanishes too, that class is inert: the run carries
# it as a constant and steps the other two, as it does |1> of |+> under
# P1.  The singlet lies wholly in that class, which is then stepped.  GHZ
# has no weight there, only the round-off eigh leaves, so its run steps
# the eigenvalues +-2 alone.  Eigenvalues of S split by 1e-8, or of H by
# 1e-9 inside a block of S, give distinct step factors and must not merge.
COMMUTING = {
    "pauli": (0.8 * qstate.SIGMA_X, qstate.SIGMA_X, KET0, 2, 2),
    "projection": (ZERO_H, qstate.PROJ_1, np.array([0.6, 0.8j]), 1, 2),
    "collective": (_XX, _collective(qstate.SIGMA_X), _KET00, 3, 3),
    "degenerate": (np.kron(_I2, qstate.SIGMA_X) + 0.5 * np.kron(qstate.SIGMA_Z, qstate.SIGMA_X),
                   np.kron(qstate.SIGMA_Z, _I2), np.array([0.5, 0.1j, -0.7, 0.5j]), 4, 4),
    "collective_x": (np.zeros((4, 4)), _collective(qstate.SIGMA_X), _KET00, 2, 3),
    "collective_y": (np.zeros((4, 4)), _collective(qstate.SIGMA_Y), _KET00, 2, 3),
    "collective_ghz": (np.zeros((4, 4)), _collective(qstate.SIGMA_X),
                       np.array([1.0, 0, 0, 1.0]) / math.sqrt(2.0), 2, 2),
    "singlet": (np.zeros((4, 4)), _collective(qstate.SIGMA_X),
                np.array([0, 1.0, -1.0, 0]) / math.sqrt(2.0), 1, 1),
    "z_on_0": (ZERO_H, qstate.SIGMA_Z, KET0, 1, 1),
    "s_split": (np.zeros((4, 4)), np.kron(qstate.SIGMA_X, _I2) + 0.5e-8 * np.kron(
        _I2, qstate.SIGMA_X), _KET00, 4, 4),
    "h_split": (0.5e-9 * np.kron(_I2, qstate.SIGMA_X), np.kron(qstate.SIGMA_Z, _I2),
                np.array([1.0, 0, 1.0, 0]) / math.sqrt(2.0), 4, 4),
}


# A one-class case runs renormalized only: unnormalized, its F is the
# squared norm, which drifts out of [0, 1] (by 1.7e-5 for S = Z on |0>).
@pytest.mark.parametrize("case, scheme, renormalize", [
    (case, scheme, renormalize) for case in sorted(COMMUTING)
    for scheme, renormalize in ((sde.PLATEN_WEAK2, True), (sde.EULER_MARUYAMA, True),
                                (sde.PLATEN_WEAK2, False))
    if renormalize or COMMUTING[case][4] > 1])
def test_diagonal_kernel_matches_step_loop(case, scheme, renormalize):
    """A commuting run steps one amplitude per occupied class of the joint
    eigenbasis, less an inert class it carries as a constant; step() is the
    oracle.

    The 150 steps pass the rescale points 64 and 128 of a renormalizing run
    (an anchored run, which carries an inert class, skips them).  Without
    renormalization the norm drifts, and an early fidelity would leave
    [0, 1], so that run records only its last step.  Unnormalized Euler
    drifts by up to 10% here, past 1 even there.
    """
    H, S, phi0, amplitudes, classes = COMMUTING[case]
    phi0 = qstate.as_state(phi0)
    model = noise.ou_noise(0.3, 0.7, init=noise.STATIONARY)
    cfg = sde.SimConfig(dt=0.01, T=1.5, n_paths=3, master_seed=12, scheme=scheme,
                        renormalize=renormalize, record_every=1 if renormalize else 150,
                        keep_states=True)
    V, _, lam = sde._eigenbasis(sde._step_map(H, S, model, scheme, cfg.dt)[0], H, S)
    Q, _, u = sde._occupied_classes(V, lam, phi0)
    assert Q.shape[1] + (u is not None) == classes
    res = sde.simulate_paths(H, S, model, phi0, cfg)
    assert res.kernel == "diagonal"
    assert res.amplitudes == amplitudes
    assert res.aborted == ()
    if case == "singlet":
        assert np.max(np.abs(res.fidelities - 1.0)) < 1e-14
    targets = sde.target_evolution(H, phi0, res.times)
    for i in range(3):
        stream = np.random.Generator(
            np.random.Philox(key=np.array([12, i], dtype=np.uint64)))
        Y = JointState(psi=phi0, x=_initial_x(model, stream))
        for n in range(cfg.n_steps + 1):
            if n % cfg.record_every == 0:
                j = n // cfg.record_every
                assert np.max(np.abs(res.states[i, j] - Y.psi)) < 1e-13
                assert abs(res.xs[i, j] - Y.x) < 1e-13
                f = abs(np.vdot(targets[j], Y.psi)) ** 2
                if renormalize:
                    f /= np.vdot(Y.psi, Y.psi).real
                assert abs(res.fidelities[i, j] - f) < 1e-13
            if n < cfg.n_steps:
                Y = step(Y, H, S, model, cfg, stream)


def test_all_inert_run_keeps_its_state_exactly():
    """The singlet under the collective X, with H = 0, lies wholly in the
    inert class, the only one occupied: its step factor is exactly 1, so
    2e4 unnormalized steps leave F and the norm at 1 to round-off of the
    initial overlap, not compounded step by step."""
    H, S, phi0, _, _ = COMMUTING["singlet"]
    cfg = sde.SimConfig(dt=0.002, T=40.0, n_paths=2, master_seed=1,
                        renormalize=False, record_every=20000)
    res = sde.simulate_paths(H, S, noise.ou_noise(0.2, 0.3, init=noise.STATIONARY),
                             qstate.as_state(phi0), cfg)
    assert res.kernel == "diagonal" and res.amplitudes == 1
    assert np.max(np.abs(1.0 - res.fidelities)) <= 1e-15
    assert res.max_norm_drift <= 1e-15


def test_noncommuting_run_takes_the_dense_kernel():
    # H = X, S = Z: no basis makes the step diagonal.  A commutator of 1e-9
    # is not round-off either.
    model = noise.ou_noise(0.2, 1.0, init=noise.STATIONARY)
    cfg = sde.SimConfig(dt=1e-2, T=0.1, n_paths=2, master_seed=1)
    for H, S in ((qstate.SIGMA_X, qstate.SIGMA_Z),
                 (qstate.SIGMA_X + 1e-9 * qstate.SIGMA_Z, qstate.SIGMA_X)):
        res = sde.simulate_paths(H, S, model, KET0, cfg)
        assert res.kernel == "dense" and res.amplitudes == 2
    assert sde.simulate_paths(qstate.SIGMA_X, qstate.SIGMA_X, model, KET0,
                              cfg).kernel == "diagonal"


def test_platen_reduces_to_heun_without_noise():
    # gamma = 0 kills every diffusion term; what is left is Heun on the ODE
    model = noise.white_noise(0.0)
    H = 1.3 * qstate.SIGMA_Y
    dt = 0.05
    cfg = sde.SimConfig(dt=dt, T=dt, renormalize=False)
    psi0 = np.array([0.6, 0.8], dtype=complex)
    out = step(JointState(psi=psi0, x=0.0), H, np.zeros((2, 2)), model, cfg,
               None, normal=1.7)
    a0 = -1j * (H @ psi0)
    pred = psi0 + a0 * dt
    want = psi0 + 0.5 * dt * (a0 + (-1j) * (H @ pred))
    assert np.max(np.abs(out.psi - want)) < 1e-15


def test_step_abort_on_blowup():
    model = noise.white_noise(4.0)
    cfg = sde.SimConfig(dt=0.5, T=0.5, scheme=sde.EULER_MARUYAMA, renormalize=False)
    with pytest.raises(sde.PathAbortError):
        step(JointState(psi=KET0, x=0.0), ZERO_H, qstate.SIGMA_X, model,
             cfg, None, normal=3.0)


def test_deterministic_heun_order_two():
    """With gamma = 0 the scheme must show second-order convergence."""
    H = 0.9 * qstate.SIGMA_X
    model = noise.white_noise(0.0)
    T = 1.0
    exact = scipy.linalg.expm(-1j * T * H) @ KET0

    def run(dt):
        cfg = sde.SimConfig(dt=dt, T=T, renormalize=False)
        Y = JointState(psi=KET0, x=0.0)
        stream = np.random.default_rng(0)
        for _ in range(cfg.n_steps):
            Y = step(Y, H, np.zeros((2, 2)), model, cfg, stream)
        return np.max(np.abs(Y.psi - exact))

    e1, e2 = run(0.01), run(0.005)
    assert e1 / e2 > 3.5  # ratio 4 for a clean second-order method


def test_target_evolution():
    H = 0.5 * qstate.SIGMA_Z
    times = np.array([0.0, 1.1, 7.3])
    got = sde.target_evolution(H, KET0, times)
    assert got.shape == (3, 2)
    assert np.max(np.abs(got[:, 0] - np.exp(-0.5j * times))) < 1e-14
    assert np.all(got[:, 1] == 0.0)
    # one eigh against one matrix exponential per time, at d=4
    rng = np.random.default_rng(3)
    H = _random_hermitian(rng, 4)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi /= np.linalg.norm(phi)
    times = np.linspace(0.0, 5.0, 11)
    got = sde.target_evolution(H, phi, times)
    for t, g in zip(times, got):
        assert np.max(np.abs(g - scipy.linalg.expm(-1j * t * H) @ phi)) < 1e-13


def test_simulate_paths_pathwise_law_identity():
    """Every path's fidelity equals the law at that path's increment."""
    model = noise.ou_noise(0.2, 0.1)
    law = oracles.pauli_law(0.0)  # <X> = 0 for |0>
    cfg = sde.SimConfig(dt=1e-3, T=1.0, n_paths=60, master_seed=4, record_every=1000)
    res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
    dx = res.terminal_x - res.initial_x
    gap = np.abs(res.fidelities[:, -1] - law.evaluate(dx))
    assert gap.max() < 5e-4


def test_simulate_paths_mean_against_series():
    model = noise.white_noise(0.3)
    law = oracles.pauli_law(0.0)
    cfg = sde.SimConfig(dt=1e-3, T=2.0, n_paths=500, master_seed=21, record_every=200)
    res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
    for j in range(1, len(res.times)):
        m, _ = laws.series_mean_variance(law, model, res.times[j])
        pull = (res.summary.mean_f[j] - m) / res.summary.stderr_f[j]
        assert abs(pull) < 4.0


def test_norm_drift_without_renormalization():
    model = noise.ou_noise(0.2, 0.1)
    cfg = sde.SimConfig(dt=1e-4, T=1.0, n_paths=20, master_seed=8,
                        renormalize=False, record_every=10000)
    res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
    assert res.max_norm_drift <= 1e-3


def test_simulate_paths_determinism():
    model = noise.ou_noise(0.25, 0.2, init=noise.STATIONARY)
    base = dict(dt=1e-3, T=0.5, n_paths=32, master_seed=77, record_every=50)
    r1 = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0,
                            sde.SimConfig(**base))
    r1b = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0,
                             sde.SimConfig(**base))
    assert np.array_equal(r1.fidelities, r1b.fidelities)
    assert np.array_equal(r1.summary.mean_f, r1b.summary.mean_f)
    assert np.array_equal(r1.terminal_x, r1b.terminal_x)
    other = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0,
                               sde.SimConfig(dt=1e-3, T=0.5, n_paths=32,
                                             master_seed=78, record_every=50))
    assert not np.array_equal(r1.fidelities, other.fidelities)


@pytest.mark.parametrize("cap", [1, 6 * 37, 6 * 700])
def test_normals_block_cap_keeps_output(monkeypatch, cap):
    # blocks of 1, 37 and 250 (all) steps, each run in step chunks of 1 and
    # 37, draw the same normals per path and give the same output; the
    # coarse Euler run has aborts at steps 1, 4, 4, 5 and 11
    ou = (noise.ou_noise(0.3, 0.5, init=noise.STATIONARY),
          sde.SimConfig(dt=2e-3, T=0.5, n_paths=6, master_seed=5, record_every=25))
    coarse = (noise.white_noise(1.45),
              sde.SimConfig(dt=0.05, T=1.0, n_paths=1000, master_seed=3,
                            scheme=sde.EULER_MARUYAMA))
    for model, cfg in (ou, coarse):
        monkeypatch.undo()
        ref = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
        for chunk in (1, 37):
            monkeypatch.setattr(sde, "BLOCK_NORMALS", cap * cfg.n_paths // 6)
            monkeypatch.setattr(sde, "CHUNK_VALUES", chunk * cfg.n_paths)
            got = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
            assert np.array_equal(got.fidelities, ref.fidelities)
            assert np.array_equal(got.initial_x, ref.initial_x)
            assert np.array_equal(got.terminal_x, ref.terminal_x)
            assert got.max_norm_drift == ref.max_norm_drift
            assert got.aborted == ref.aborted
    assert len(ref.aborted) == 5


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme", sde.SCHEMES)
@pytest.mark.parametrize("model", [
    noise.ou_noise(0.3, 0.5, init=noise.STATIONARY),
    noise.ou_noise(0.4, 2.0),
    noise.white_noise(0.6),
], ids=["stationary_ou", "calibrated_ou", "white"])
def test_noise_path_is_its_plain_recurrence(monkeypatch, model, scheme):
    # Each path's X, replayed one step at a time in Python floats from its
    # own Philox(seed, i) stream as x = ax * x + an * N, bit for bit: the
    # recurrence is neither fused nor reordered, in one block of normals
    # and across blocks of 37 steps (111 normals over 3 paths).
    cfg = sde.SimConfig(dt=1e-2, T=1.0, n_paths=3, master_seed=9, scheme=scheme,
                        keep_states=True)
    _, (ax, an) = sde._step_map(ZERO_H, qstate.SIGMA_X, model, scheme, cfg.dt)
    want = np.empty((cfg.n_paths, cfg.n_steps + 1))
    for i in range(cfg.n_paths):
        stream = np.random.Generator(
            np.random.Philox(key=np.array([cfg.master_seed, i], dtype=np.uint64)))
        x = _initial_x(model, stream)
        want[i, 0] = x
        for n in range(1, cfg.n_steps + 1):
            x = ax * x + an * float(stream.standard_normal())
            want[i, n] = x
    for cap in (None, 111):
        if cap:
            monkeypatch.setattr(sde, "BLOCK_NORMALS", cap)
        res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
        assert res.aborted == ()
        assert _same_bits(res.xs, want), cap


@pytest.mark.parametrize("ops", [
    (ZERO_H, qstate.SIGMA_X, [0]),
    (qstate.SIGMA_X, qstate.SIGMA_Z, [0, 1]),
    (np.kron(qstate.SIGMA_X, _I2), np.kron(qstate.SIGMA_Z, _I2), [0, 2]),
], ids=["diagonal", "x_z", "d4_shift2"])
def test_chunk_length_keeps_output_bit_for_bit(monkeypatch, ops):
    # Chunks of 1, 4, 5 and 37 steps reuse the same buffers across chunks,
    # and a run in them gives the output of one chunk per run, bit for bit,
    # kept states included, with 6 paths and with one.  The coarse Euler
    # run aborts at steps 1, 4, 4, 5 and 11, so chunks of 4 and 5 end on an abort; the OU run's 250
    # steps leave a partial final chunk at 4 and 37.
    H, S, shifts = ops
    d = len(H)
    phi0 = np.eye(d, dtype=complex)[0]
    M, _ = sde._step_map(H, S, noise.white_noise(1.0), sde.PLATEN_WEAK2, 1e-3)
    assert sde._eigenbasis(M, H, S)[1] == shifts
    stationary = noise.ou_noise(0.3, 0.5, init=noise.STATIONARY)
    ou = (stationary, sde.SimConfig(dt=2e-3, T=0.5, n_paths=6, master_seed=5,
                                    record_every=25, keep_states=True))
    # one path, whose weights are a single row for the per-step product
    one = [(stationary, sde.SimConfig(dt=2e-3, T=0.5, n_paths=1, master_seed=5,
                                      record_every=25, keep_states=True,
                                      renormalize=renorm))
           for renorm in (True, False)]
    coarse = (noise.white_noise(1.45),
              sde.SimConfig(dt=0.05, T=1.0, n_paths=1000, master_seed=3,
                            scheme=sde.EULER_MARUYAMA, keep_states=True))
    fields = ("fidelities", "states", "xs", "initial_x", "terminal_x", "path_indices")
    for model, cfg in (ou, *one, coarse):
        monkeypatch.setattr(sde, "CHUNK_VALUES", 10**9)
        ref = sde.simulate_paths(H, S, model, phi0, cfg)
        for chunk in (1, 4, 5, 37):
            monkeypatch.setattr(sde, "CHUNK_VALUES", chunk * cfg.n_paths)
            got = sde.simulate_paths(H, S, model, phi0, cfg)
            for name in fields:
                assert _same_bits(getattr(got, name), getattr(ref, name)), (chunk, name)
            assert _same_bits(got.max_norm_drift, ref.max_norm_drift)
            assert got.aborted == ref.aborted
            assert got.kernel == ref.kernel
    assert [s for _, s in ref.aborted] == [5, 4, 4, 11, 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_paths_abort_budget():
    # absurd step size blows up nearly every path; the run must refuse
    model = noise.white_noise(3.0)
    cfg = sde.SimConfig(dt=0.5, T=1.0, n_paths=50, master_seed=1,
                        scheme=sde.EULER_MARUYAMA, renormalize=False)
    with pytest.raises(sde.PathAbortError):
        sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)


def _dead_path_case():
    """The run of test_dead_path_overflows_silently: path 16 of 200 dies."""
    model = noise.ou_noise(10.0, 3.1e-306, init=noise.STATIONARY)
    phi0 = np.array([math.sqrt(1 - 1e-4), 1e-2], dtype=complex)
    cfg = sde.SimConfig(dt=1e-6, T=2e-5, n_paths=200, master_seed=1,
                        renormalize=False, record_every=5)
    return ZERO_H, qstate.PROJ_1, model, phi0, cfg


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dead_path_overflows_silently():
    # Stationary OU with sigma = gamma / sqrt(2k) = 4e153: a path whose noise
    # value passes 1.34e154 overflows X^2 in its first step's weights and
    # dies there, then runs on to the end of its chunk with inf and nan
    # entries.  That must stay silent, and the live paths must be as if it
    # had never been there.
    _, _, model, phi0, cfg = _dead_path_case()
    assert cfg.n_steps * cfg.n_paths <= sde.CHUNK_VALUES  # one chunk
    res = sde.simulate_paths(ZERO_H, qstate.PROJ_1, model, phi0, cfg)
    assert res.aborted == ((16, 1),)
    drift = 0.0
    for i in range(cfg.n_paths):
        stream = np.random.Generator(
            np.random.Philox(key=np.array([1, i], dtype=np.uint64)))
        Y = JointState(psi=phi0, x=_initial_x(model, stream))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for n in range(1, cfg.n_steps + 1):
                    Y = step(Y, ZERO_H, qstate.PROJ_1, model, cfg, stream)
                    drift = max(drift, abs(np.linalg.norm(Y.psi) - 1.0))
            except sde.PathAbortError:
                assert (i, n) in res.aborted
                continue
        assert i in res.path_indices
    assert 0 < res.max_norm_drift == pytest.approx(drift, rel=0, abs=1e-15)
    assert res.summary.n_effective == cfg.n_paths - 1


def test_rescaling_keeps_a_growing_map_in_range(monkeypatch):
    # A map scaled by 1.3 multiplies the norm by 1.3 per step (1.3**4096
    # overflows), but a renormalizing run only sees the direction of psi:
    # rescaled every _RESCALE_EVERY steps it aborts nothing, gives the
    # fidelities of the unscaled map and reports the 1.3 growth as drift.
    # A map scaled by 0.7 shrinks the norm instead, and reports 0.3 too.
    model = noise.ou_noise(0.3, 0.5, init=noise.STATIONARY)
    H = 0.7 * qstate.SIGMA_X
    cfg = sde.SimConfig(dt=1e-3, T=4.5, n_paths=1, master_seed=2, record_every=50)
    assert cfg.n_steps >= 4096
    ref = sde.simulate_paths(H, qstate.SIGMA_X, model, KET0, cfg)
    step_map = sde._step_map
    for scale in (1.3, 0.7):
        def scaled(*args):
            R, lin = step_map(*args)
            return scale * R, lin

        monkeypatch.setattr(sde, "_step_map", scaled)
        got = sde.simulate_paths(H, qstate.SIGMA_X, model, KET0, cfg)
        assert got.aborted == ()
        assert np.max(np.abs(got.fidelities - ref.fidelities)) < 1e-12
        assert got.max_norm_drift == pytest.approx(0.3, abs=1e-3)


def test_summary_matches_column_loop():
    # The summary against a transcription of its rule: per recorded time,
    # the fidelities summed one by one in path order, and the squared
    # deviations from the mean as products, summed likewise.
    model = noise.ou_noise(0.4, 0.5, init=noise.STATIONARY)
    phi0 = np.array([0.1, 0.2j])
    phi0 /= np.linalg.norm(phi0)
    runs = [(ZERO_H, qstate.SIGMA_X, model, KET0,
             sde.SimConfig(dt=dt, T=T, n_paths=n_paths, master_seed=11))
            for n_paths, dt, T in ((50, 1e-3, 0.25), (500, 1e-2, 0.15),
                                   (100, 1e-2, 0.3), (1, 1e-2, 0.2), (2, 1e-2, 0.2))]
    runs += [
        # one recorded time: every path's F(0) is 1 - 3e-16 here, and the
        # 50 copies summed pairwise would round otherwise
        (qstate.SIGMA_Z, qstate.SIGMA_X, model, phi0,
         sde.SimConfig(dt=1e-2, T=0.0, n_paths=50, master_seed=11)),
        # 2500 steps cross a block of normals
        (ZERO_H, qstate.SIGMA_X, model, KET0,
         sde.SimConfig(dt=1e-3, T=2.5, n_paths=3, master_seed=11, record_every=10)),
        _dead_path_case(),
    ]
    assert runs[-2][-1].n_steps > sde.TIME_BLOCK
    for H, S, mod, psi0, cfg in runs:
        res = sde.simulate_paths(H, S, mod, psi0, cfg)
        fids = res.fidelities
        n = len(fids)
        assert n == cfg.n_paths - len(res.aborted)
        mean, var, stderr = (np.full(fids.shape[1], np.nan) for _ in range(3))
        for j in range(fids.shape[1]):
            col = fids[:, j].tolist()
            acc = 0.0
            for f in col:
                acc = acc + f
            # Recursive summation of n non-negative terms is within
            # gamma_(n-1) = (n - 1) u / (1 - (n - 1) u) relative of their
            # exact sum (Higham 2002, sec. 4.2).  The bound is on the sum:
            # dividing by n rounds once more, on either side.
            exact = sum(map(Fraction, col))
            gamma = (n - 1) * _U / (1 - (n - 1) * _U)
            assert abs(Fraction(acc) - exact) <= gamma * exact, (cfg, j)
            m = mean[j] = acc / n
            if n >= 2:
                # (c - m) ** 2 would call libm pow, which can round a square
                # one ulp off; a product is correctly rounded, as numpy's is
                acc = 0.0
                for c in col:
                    acc = acc + (c - m) * (c - m)
                var[j] = acc / (n - 1)
                stderr[j] = math.sqrt(var[j] / n)
        for got, want in ((res.summary.mean_f, mean), (res.summary.var_f, var),
                          (res.summary.stderr_f, stderr)):
            assert _same_bits(got, want), cfg


def test_negative_seeds_get_their_own_streams():
    model = noise.white_noise(0.3)
    fids = {}
    for seed in (0, -1, -5):
        cfg = sde.SimConfig(dt=1e-2, T=0.2, n_paths=4, master_seed=seed)
        res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
        fids[seed] = res.fidelities
    assert not np.array_equal(fids[0], fids[-1])
    assert not np.array_equal(fids[-1], fids[-5])


def test_aborted_paths_within_budget():
    # a coarse renormalized Euler run: 5 of 1000 paths blow up, within the 1% budget
    model = noise.white_noise(1.45)
    cfg = sde.SimConfig(dt=0.05, T=1.0, n_paths=1000, master_seed=3,
                        scheme=sde.EULER_MARUYAMA, keep_states=True)
    res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
    dead = [i for i, _ in res.aborted]
    assert 1 <= len(dead) <= 10
    assert sorted(set(res.path_indices) | set(dead)) == list(range(1000))
    assert not set(res.path_indices) & set(dead)
    # each aborted path, replayed on its own stream, blows up at the step named
    for i, abort_at in res.aborted:
        stream = np.random.Generator(
            np.random.Philox(key=np.array([3, i], dtype=np.uint64)))
        Y = JointState(psi=KET0, x=_initial_x(model, stream))
        with pytest.raises(sde.PathAbortError):
            for n in range(1, cfg.n_steps + 1):
                Y = step(Y, ZERO_H, qstate.SIGMA_X, model, cfg, stream)
        assert n == abort_at
    # states, xs and fidelities share their rows
    n_ok = 1000 - len(dead)
    assert res.fidelities.shape == (n_ok, 21) and res.states.shape == (n_ok, 21, 2)
    assert np.allclose(np.abs(res.states[:, :, 0]) ** 2, res.fidelities, atol=1e-12)
    assert np.array_equal(res.xs[:, 0], res.initial_x)
    assert np.array_equal(res.xs[:, -1], res.terminal_x)
    # a live path's norm stays in [0.9, 1.5] here; a zeroed dead row would count 1
    assert res.max_norm_drift < 0.5
    assert res.summary.n_effective == n_ok


def test_trajectories_recorded_when_asked():
    model = noise.white_noise(0.2)
    cfg = sde.SimConfig(dt=1e-2, T=0.1, n_paths=3, master_seed=5,
                        keep_states=True)
    res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
    assert res.states.shape == (3, cfg.n_steps + 1, 2)
    assert res.xs.shape == (3, cfg.n_steps + 1)
    assert np.array_equal(res.xs[:, 0], res.initial_x)
    assert np.array_equal(res.xs[:, -1], res.terminal_x)
    # recorded fidelities are consistent with the stored states
    phi = KET0
    for j, psi in enumerate(res.states[0]):
        assert abs(abs(np.vdot(phi, psi)) ** 2 - res.fidelities[0, j]) < 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9
    plain = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0,
                               sde.SimConfig(dt=1e-2, T=0.1, n_paths=3, master_seed=5))
    assert plain.states is None and plain.xs is None
    assert np.array_equal(plain.fidelities, res.fidelities)


def test_summary_table_contents():
    model = noise.white_noise(0.2)
    cfg = sde.SimConfig(dt=1e-2, T=0.2, n_paths=40, master_seed=6, record_every=5)
    res = sde.simulate_paths(ZERO_H, qstate.SIGMA_X, model, KET0, cfg)
    assert res.summary.mean_f[0] == 1.0
    assert np.all(res.summary.n_effective == 40)
    j = len(res.times) - 1
    col = res.fidelities[:, j]
    assert res.summary.mean_f[j] == pytest.approx(col.mean(), abs=1e-12)
    assert res.summary.var_f[j] == pytest.approx(col.var(ddof=1), abs=1e-12)
    assert res.summary.stderr_f[j] == pytest.approx(
        math.sqrt(col.var(ddof=1) / 40), abs=1e-12)
