"""Figure-level acceptance gates.

One test per criterion, so the verbose run shows one pass/fail line
each.  Every test prints its measured numbers; thresholds follow the
scenario definitions used by the presets.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from sselab import approx, cli, laws, magnus, noise, qstate, scenario, sde, stats
import oracles
from test_sde import JointState, step

GAMMA = 0.2
KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
KET00 = np.array([1, 0, 0, 0], dtype=complex)
GHZ = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
SX2 = np.kron(qstate.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), qstate.SIGMA_X)


def mean_at_variance(law, v):
    """E[law(DX)] for DX ~ N(0, v), straight from the harmonics."""
    return sum(c * math.exp(-0.5 * m * m * v) for m, c in law.terms)


def pathwise_gaps(H, S, phi0, law, n_paths, seed):
    cfg = sde.SimConfig(dt=1e-4, T=1.0, n_paths=n_paths, master_seed=seed,
                        record_every=20)
    model = noise.white_noise(GAMMA)
    res = sde.simulate_paths(H, S, model, phi0, cfg)
    worst = 0.0
    for p, fids in enumerate(res.fidelities):
        dx = res.xs[p] - res.initial_x[p]
        per_path = np.max(np.abs(fids - law.evaluate(dx)))
        worst = max(worst, per_path)
    return worst


def test_criterion_01_pathwise_law_oracle():
    t0 = time.time()
    cases = [
        ("pauli", np.zeros((2, 2)), qstate.SIGMA_X, KET0, oracles.pauli_law(0.0)),
        ("projection", np.zeros((2, 2)), qstate.PROJ_1, KET_PLUS,
         oracles.projection_law(1 / math.sqrt(2))),
        ("twoqubit-00", np.zeros((4, 4)), SX2, KET00,
         oracles.two_qubit_law(0.0, 0.0, "pauli")),
        ("twoqubit-ghz", np.zeros((4, 4)), SX2, GHZ,
         oracles.two_qubit_law(0.0, 1.0, "pauli")),
    ]
    failures = []
    for name, H, S, phi0, law in cases:
        worst = pathwise_gaps(H, S, phi0, law, n_paths=100, seed=11)
        print(f"criterion 1 [{name}]: worst pathwise gap {worst:.2e}")
        if worst > 5e-3:
            failures.append(f"{name}: {worst:.2e} > 5e-3")
    elapsed = time.time() - t0
    print(f"criterion 1 runtime {elapsed:.1f}s")
    assert not failures, "; ".join(failures)
    assert elapsed < 120


def test_criterion_02_calibrated_pauli_reproduction():
    g, k = 0.2, 0.1
    model = noise.ou_noise(g, k)
    law = oracles.pauli_law(0.0)
    cfg = sde.SimConfig(dt=1e-3, T=5.0, n_paths=2000, master_seed=2025,
                        record_every=100)
    res = sde.simulate_paths(np.zeros((2, 2)), qstate.SIGMA_X, model, KET0, cfg)
    failures = []
    for t in (0.5, 1.0, 2.0, 5.0):
        j = int(round(t / 0.1))
        m_exact, _ = laws.series_mean_variance(law, model, res.times[j])
        pull = (res.summary.mean_f[j] - m_exact) / res.summary.stderr_f[j]
        print(f"criterion 2: t={t} mc={res.summary.mean_f[j]:.5f} "
              f"exact={m_exact:.5f} pull={pull:+.2f}")
        if abs(pull) > 3:
            failures.append(f"t={t}: pull {pull:+.2f} beyond 3 stderr")

    # closure scan over the long window
    scan_T = 150.0
    first = approx.integrate_closure(approx.first_order_system(g, k, 0.0), scan_T)
    second = approx.integrate_closure(approx.second_order_system(g, k, 0.0), scan_T)
    exact = np.array([mean_at_variance(law, g * g * t * _phi1_local(2 * k * t))
                      for t in first.times[::50]])
    tol = 1e-9
    first_exits = bool((first.fidelity < -tol).any() or (first.fidelity > 1 + tol).any())
    second_exits = bool((second.fidelity < -tol).any() or (second.fidelity > 1 + tol).any())
    exact_exits = bool((exact < -tol).any() or (exact > 1 + tol).any())
    t_second = float(second.times[np.argmax(
        (second.fidelity < -tol) | (second.fidelity > 1 + tol))]) if second_exits else None
    print(f"criterion 2: first-order range [{first.fidelity.min():.6f}, "
          f"{first.fidelity.max():.6f}] over [0, {scan_T:g}] (exits: {first_exits})")
    print(f"criterion 2: second-order exits [0,1]: {second_exits}"
          + (f" at t={t_second:.1f}" if second_exits else ""))
    if not first_exits:
        failures.append(
            "first-order closure stays inside [0,1] over the whole scan window "
            f"(range [{first.fidelity.min():.6f}, {first.fidelity.max():.6f}]); "
            f"the second-order closure is the one that exits (t={t_second:.1f})"
        )
    if exact_exits:
        failures.append("exact law left [0,1], which should be impossible")
    assert not failures, "; ".join(failures)


def _phi1_local(z):
    if abs(z) < 1e-12:
        return 1.0
    return -math.expm1(-z) / z


def test_criterion_03_distribution_slices(tmp_path):
    cfg = {s: dict(e) for s, e in scenario.PRESETS["fig4"].items()}
    cfg["output"]["dir"] = str(tmp_path / "fig4")
    scn = scenario.resolve(cfg, label="fig4")
    result = scenario.run_scenario(scn)
    failures = []
    # each slice against the exact law, at LAW_QUANTILES normal quantiles of Delta X
    for t, (mc, reference) in sorted(result.slice_samples.items()):
        assert len(mc) == 2000 and len(reference) == scenario.LAW_QUANTILES
        ks = stats.ks_distance(mc, reference)
        print(f"criterion 3: t={t:g} KS={ks:.4f}")
        if ks > 0.05:
            failures.append(f"t={t:g}: KS {ks:.4f} > 0.05")
    assert not failures, "; ".join(failures)


def test_criterion_04_noncommuting_magnus():
    alpha, gamma = 1.0, 0.4
    H, S, model = alpha * qstate.SIGMA_X, qstate.SIGMA_Z, noise.white_noise(gamma)
    failures = []

    # (a) MC mean vs Magnus mean within 0.02 up to t = 5
    cfg = sde.SimConfig(dt=1e-3, T=5.0, n_paths=1000, master_seed=103,
                        record_every=50)
    res = sde.simulate_paths(H, S, model, KET0, cfg)
    gap = np.abs(res.summary.mean_f - magnus.wn_mean_fidelity(H, S, model, KET0, res.times))
    print(f"criterion 4: max |MC - Magnus| = {gap.max():.4f} over t <= 5")
    if gap.max() > 0.02:
        failures.append(f"MC vs Magnus gap {gap.max():.4f} > 0.02")

    ts = np.arange(0.5, 12.0, 0.01)

    # Bloch components (C1, C2, C3) along the drive X, the noise Z and Y
    def bloch(phi):
        return [qstate.expect_value(p, phi).real
                for p in (qstate.SIGMA_X, qstate.SIGMA_Z, qstate.SIGMA_Y)]

    # (b) C1 = 1: pure exponential envelope at rate 2 gamma^2
    assert bloch(KET_PLUS) == pytest.approx([1, 0, 0], abs=1e-12)
    m1 = magnus.wn_mean_fidelity(H, S, model, KET_PLUS, ts)
    rate1 = -np.polyfit(ts, np.log(m1 - 0.5), 1)[0]
    print(f"criterion 4: C1=1 envelope rate {rate1:.5f} (target {2 * gamma**2})")
    if abs(rate1 - 2 * gamma**2) > 0.1 * 2 * gamma**2:
        failures.append(f"C1 rate {rate1:.4f} off 2*gamma^2 by more than 10%")

    # (c) C2 = 1: decay toward 1/2 at rate gamma^2 with a ripple on top
    assert bloch(KET0) == pytest.approx([0, 1, 0], abs=1e-12)
    m2 = magnus.wn_mean_fidelity(H, S, model, KET0, ts)
    d = m2 - 0.5
    slope, intercept = np.polyfit(ts, np.log(d), 1)
    rate2 = -slope
    print(f"criterion 4: C2=1 envelope rate {rate2:.5f} (target {gamma**2})")
    if abs(rate2 - gamma**2) > 0.1 * gamma**2:
        failures.append(f"C2 rate {rate2:.4f} off gamma^2 by more than 10%")

    # (d) ripple frequency, from the zero crossings of the residual.
    # The noiseless target exp(-iHt)|0> turns at the Bohr frequency of H
    # (2*alpha for H = alpha*X).  The dephasing rate along it goes as the
    # sin^2 of that angle, so the mean ripples at twice the Bohr frequency.
    bohr = float(np.ptp(np.linalg.eigvalsh(H)))
    omega_target = 2 * bohr
    res = d - np.exp(intercept + slope * ts)
    sign = np.sign(res)
    crossings = ts[np.nonzero(sign[1:] != sign[:-1])[0]]
    omega = math.pi / np.diff(crossings).mean()
    print(f"criterion 4: measured ripple angular frequency {omega:.4f} "
          f"(target 2 * Bohr frequency of H = {omega_target:.4f})")
    if abs(omega - omega_target) > 0.02 * omega_target:
        failures.append(
            f"ripple frequency {omega:.4f} is not within 2% of "
            f"2 * Bohr frequency of H = {omega_target:.4f}"
        )
    assert not failures, "; ".join(failures)


def test_criterion_05_projection_colored_vs_white(tmp_path):
    cfg = {s: dict(e) for s, e in scenario.PRESETS["fig6"].items()}
    cfg["output"]["dir"] = str(tmp_path / "fig6")
    scn = scenario.resolve(cfg, label="fig6")
    result = scenario.run_scenario(scn)
    failures = list(scenario.check_run(result))

    law = scn.law
    # the weight on P1's S = 1 eigenspace, oracles.projection_law's s0^2
    s0sq = qstate.expect_value(scn.S, scn.state).real
    w = 2 * (1 - s0sq) * s0sq
    g, k = scn.model.gamma, scn.model.k
    # asymptotes: white noise loses every harmonic, OU keeps e^{-v_inf/2}
    wn_asym = oracles.coefficient(law.series, 0)
    assert abs(wn_asym - (1 - w)) < 1e-12
    ou_asym = mean_at_variance(law.series, g * g / k)
    closed = 1 - w * (1 - math.exp(-g * g / (2 * k)))
    assert abs(ou_asym - closed) < 1e-12
    print(f"criterion 5: WN asymptote {wn_asym:.5f}, OU asymptote {ou_asym:.5f}")

    wn_model = noise.white_noise(g)
    ts = result.sim.times[1:]
    mean_ou = result.analytic_mean[1:]
    wn_stats = np.array([laws.series_mean_variance(law.series, wn_model, t)
                         for t in ts])
    var_ou = result.analytic_var[1:]
    gap = mean_ou - wn_stats[:, 0]
    print(f"criterion 5: OU-WN mean gap at T = {gap[-1]:.4f}")
    if not np.all(gap > 0):
        failures.append("OU mean does not dominate the WN mean on the grid")
    if gap[-1] < 0.05:
        failures.append(f"means do not diverge (final gap {gap[-1]:.4f})")
    if not np.all(wn_stats[:, 1] >= var_ou - 1e-12):
        worst = float(np.min(wn_stats[:, 1] - var_ou))
        failures.append(f"Var_WN < Var_OU somewhere (worst deficit {worst:.2e})")
    assert not failures, "; ".join(failures)


def test_criterion_06_two_qubit_entanglement_crossover(tmp_path):
    law00 = oracles.two_qubit_law(0.0, 0.0, "pauli")
    lawghz = oracles.two_qubit_law(0.0, 1.0, "pauli")
    failures = []

    targets = {(0.3, "00"): 0.801, (0.3, "ghz"): 0.672,
               (0.01, "00"): 0.375, (0.01, "ghz"): 0.500}
    for k in (0.3, 0.01):
        v = 0.2 * 0.2 / k
        f00 = mean_at_variance(law00, v)
        fghz = mean_at_variance(lawghz, v)
        print(f"criterion 6: k={k} asymptotes |00>={f00:.5f} ghz={fghz:.5f}")
        if abs(f00 - targets[(k, "00")]) > 1e-3:
            failures.append(f"k={k}: |00> asymptote {f00:.4f} != {targets[(k, '00')]}")
        if abs(fghz - targets[(k, "ghz")]) > 1e-3:
            failures.append(f"k={k}: ghz asymptote {fghz:.4f} != {targets[(k, 'ghz')]}")
    if not mean_at_variance(law00, 0.04 / 0.3) > mean_at_variance(lawghz, 0.04 / 0.3):
        failures.append("k=0.3: |00> should beat ghz")
    if not mean_at_variance(lawghz, 0.04 / 0.01) > mean_at_variance(law00, 0.04 / 0.01):
        failures.append("k=0.01: ghz should beat |00>")

    for preset, state in (("fig7a", "00"), ("fig7a", "ghz"),
                          ("fig7b", "00"), ("fig7b", "ghz")):
        cfg = {s: dict(e) for s, e in scenario.PRESETS[preset].items()}
        cfg["scenario"]["state"] = state
        cfg["output"]["dir"] = str(tmp_path / f"{preset}-{state}")
        if state == "ghz":
            cfg["sim"]["master_seed"] = str(int(cfg["sim"]["master_seed"]) + 1000)
        scn = scenario.resolve(cfg, label=f"{preset}-{state}")
        result = scenario.run_scenario(scn)
        m = result.sim.summary.mean_f[-1]
        se = result.sim.summary.stderr_f[-1]
        an = result.analytic_mean[-1]
        pull = (m - an) / se
        print(f"criterion 6: {preset} |{state}> final mc={m:.4f} "
              f"analytic={an:.4f} pull={pull:+.2f}")
        if abs(pull) > 3:
            failures.append(f"{preset} {state}: final pull {pull:+.2f} beyond 3 stderr")
    assert not failures, "; ".join(failures)


def test_criterion_07_moment_engine():
    failures = []
    rng = np.random.default_rng(777)
    g, k, t = 0.2, 0.3, 1.5
    model = noise.ou_noise(g, k)
    # (a) raw even moments vs 1e6 samples
    x0 = np.zeros(1_000_000)
    xt = x0 * math.exp(-k * t) + math.sqrt(
        g * g / (2 * k) * (1 - math.exp(-2 * k * t))) * rng.standard_normal(len(x0))
    dx = xt - x0
    for n in (1, 2, 3):
        mc = float(np.mean(dx ** (2 * n)))
        exact = oracles.raw_even_moment(n, model, t)
        rel = abs(mc - exact) / exact
        print(f"criterion 7: 2n={2 * n} MC={mc:.3e} exact={exact:.3e} rel={rel:.3%}")
        if rel > 0.05:
            failures.append(f"even moment 2n={2 * n} off by {rel:.1%}")
    # (b) conditional moments at X0 = 0 vs the closed calibrated forms
    sigma2 = g * g / (2 * k) * (1 - math.exp(-2 * k * t))
    dfact = {2: 1, 4: 3, 6: 15, 8: 105, 10: 945, 12: 10395}
    for m in range(1, 13):
        got = oracles.conditional_moment(m, 0.0, model, t)
        want = 0.0 if m % 2 else dfact[m] * sigma2 ** (m // 2)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"conditional moment m={m}: {got!r} vs {want!r}")
    print("criterion 7: calibrated conditional moments match to 1e-12")
    # (c) k -> 0 limits against the white-noise formulas
    tiny = noise.ou_noise(g, 1e-9)
    tiny_st = noise.ou_noise(g, 1e-9, init=noise.STATIONARY)
    v_wn = noise.increment_variance(noise.white_noise(g), t)
    for mdl in (tiny, tiny_st):
        v = noise.increment_variance(mdl, t)
        if abs(v - v_wn) / v_wn > 1e-6:
            failures.append(f"k->0 variance limit broken for {mdl.init}")
    for m in range(1, 13):
        got = oracles.conditional_moment(m, 0.4, tiny, t)
        want = _gaussian_moment(0.4, g * math.sqrt(t), m)
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            failures.append(f"k->0 conditional moment m={m}")
    print("criterion 7: k=1e-9 limits match white noise to 1e-6 relative")
    assert not failures, "; ".join(failures)


def _gaussian_moment(mu, sigma, m):
    total = 0.0
    for j in range(0, m + 1, 2):
        zj = 1.0
        for q in range(1, j, 2):
            zj *= q
        total += math.comb(m, j) * mu ** (m - j) * sigma**j * zj
    return total


def test_criterion_08_three_qubit_factoring():
    s_vals = (0.0, 0.5, 0.8)
    singles = [oracles.pauli_law(s) for s in s_vals]
    joint = oracles.product_law(singles)

    # pointwise agreement with the direct 8-dimensional amplitude
    phis = []
    for s in s_vals:
        a = 0.5 * math.asin(s)
        phis.append(np.array([math.cos(a), math.sin(a)], dtype=complex))
    phi = np.kron(np.kron(phis[0], phis[1]), phis[2])
    eye = np.eye(2)
    S = (np.kron(np.kron(qstate.SIGMA_X, eye), eye)
         + np.kron(np.kron(eye, qstate.SIGMA_X), eye)
         + np.kron(np.kron(eye, eye), qstate.SIGMA_X))
    grid = np.linspace(0, 2 * math.pi, 101)
    direct = np.array([
        abs(np.vdot(phi, scipy.linalg.expm(-1j * d * S) @ phi)) ** 2
        for d in grid
    ])
    gap = np.max(np.abs(joint.evaluate(grid) - direct))
    print(f"criterion 8: product law vs direct 8-dim law, max gap {gap:.2e}")
    assert gap < 1e-12

    # per-path simulation in the full 8-dimensional space
    cfg = sde.SimConfig(dt=1e-4, T=1.0, n_paths=50, master_seed=88,
                        record_every=10000)
    res = sde.simulate_paths(np.zeros((8, 8)), S, noise.white_noise(GAMMA),
                             phi, cfg)
    dx = res.terminal_x - res.initial_x
    worst = np.max(np.abs(res.fidelities[:, -1] - joint.evaluate(dx)))
    print(f"criterion 8: worst per-path gap {worst:.2e}")
    assert worst < 5e-3


def _one_step_matrices(scheme, dt):
    """P0, P1, P2 with psi' = (P0 + P1 N + P2 N^2) psi for one step."""
    model = noise.white_noise(1.0)
    cfg = sde.SimConfig(dt=dt, T=dt, scheme=scheme, renormalize=False)
    d = 2
    cols = {}
    for n_val in (0.0, 1.0, -1.0, 2.0):
        m = np.empty((d, d), dtype=complex)
        for j in range(d):
            e = np.zeros(d, dtype=complex)
            e[j] = 1.0
            out = step(JointState(psi=e, x=0.0), np.zeros((2, 2)),
                       qstate.SIGMA_X, model, cfg, None, normal=n_val)
            m[:, j] = out.psi
        cols[n_val] = m
    p0 = cols[0.0]
    p2 = 0.5 * (cols[1.0] + cols[-1.0]) - cols[0.0]
    p1 = 0.5 * (cols[1.0] - cols[-1.0])
    # the map must be exactly quadratic in the draw
    recon = p0 + 2.0 * p1 + 4.0 * p2
    assert np.max(np.abs(recon - cols[2.0])) < 1e-13
    return p0, p1, p2


def _weak_error(scheme, dt, T=1.0):
    """Deterministic weak error on E[F_T]: propagate E[psi psi^dag]."""
    p = _one_step_matrices(scheme, dt)
    moments = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}
    sigma = np.outer(KET0, KET0.conj())
    for _ in range(int(round(T / dt))):
        nxt = np.zeros_like(sigma)
        for i in range(3):
            for j in range(3):
                w = moments[i + j]
                if w:
                    nxt += w * (p[i] @ sigma @ p[j].conj().T)
        sigma = nxt
    got = float(np.real(KET0.conj() @ sigma @ KET0))
    exact = 0.5 + 0.5 * math.exp(-2.0 * T)  # gamma = 1 pauli mean
    return abs(got - exact)


def test_criterion_09_integrator_quality():
    failures = []
    e_coarse = _weak_error(sde.PLATEN_WEAK2, 2e-4)
    e_fine = _weak_error(sde.PLATEN_WEAK2, 1e-4)
    ratio = e_coarse / e_fine
    print(f"criterion 9: platen weak errors {e_coarse:.3e} -> {e_fine:.3e} "
          f"(ratio {ratio:.2f})")
    if ratio < 3.5:
        failures.append(f"platen ratio {ratio:.2f} < 3.5")
    e_coarse = _weak_error(sde.EULER_MARUYAMA, 2e-4)
    e_fine = _weak_error(sde.EULER_MARUYAMA, 1e-4)
    ratio = e_coarse / e_fine
    print(f"criterion 9: euler weak errors {e_coarse:.3e} -> {e_fine:.3e} "
          f"(ratio {ratio:.2f})")
    if ratio < 1.8:
        failures.append(f"euler ratio {ratio:.2f} < 1.8")

    cfg = sde.SimConfig(dt=1e-4, T=1.0, n_paths=100, master_seed=5,
                        renormalize=False, record_every=10000)
    res = sde.simulate_paths(np.zeros((2, 2)), qstate.SIGMA_X,
                             noise.white_noise(GAMMA), KET0, cfg)
    print(f"criterion 9: norm drift without renormalization {res.max_norm_drift:.2e}")
    if res.max_norm_drift > 1e-3:
        failures.append(f"norm drift {res.max_norm_drift:.2e} > 1e-3")
    assert not failures, "; ".join(failures)


def test_criterion_10_thread_determinism(tmp_path, monkeypatch):
    # The paths run in one thread; what splits their work is the step
    # loop's chunk of sde.CHUNK_VALUES path-steps and the block of
    # sde.BLOCK_NORMALS normals drawn at once.  At 100 paths the splits
    # below give chunks of 81, 5 and 1 steps and blocks of 2048, 9 and 3.
    blobs = []
    for values, normals in ((2**13, 2**20), (2**9, 999), (37, 333)):
        monkeypatch.setattr(sde, "CHUNK_VALUES", values)
        monkeypatch.setattr(sde, "BLOCK_NORMALS", normals)
        out = tmp_path / f"split{values}_{normals}"
        code = cli.main(["run", "fig3", "--paths", "100",
                         "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        meta["config"]["output"].pop("dir")
        blobs.append((
            (out / "summary.csv").read_bytes(),
            (out / "closure.csv").read_bytes(),
            json.dumps(meta, sort_keys=True),
        ))
    assert blobs[0] == blobs[1] == blobs[2]
    print("criterion 10: summary.csv, closure.csv and run.json byte-identical "
          "across three chunk and block lengths")
