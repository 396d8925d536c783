import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sselab import laws, magnus, noise, qstate, scenario

import oracles


def minimal_cfg(**over):
    cfg = {
        "scenario": {"kind": "pauli", "state": "0", "noise_op": "X"},
        "noise": {"kind": "white", "gamma": "0.2"},
        "sim": {"dt": "0.01", "t": "0.5", "n_paths": "20", "master_seed": "3",
                "record_every": "10"},
        "output": {"dir": "runs/test"},
    }
    for section, entries in over.items():
        cfg.setdefault(section, {}).update(entries)
    return cfg


def test_parse_state_named_and_literal():
    assert np.allclose(scenario.parse_state("0"), [1, 0])
    assert np.allclose(scenario.parse_state("+"), [2**-0.5, 2**-0.5])
    assert np.allclose(scenario.parse_state("ghz"),
                       [2**-0.5, 0, 0, 2**-0.5])
    got = scenario.parse_state("0.6, 0.8j")
    assert np.allclose(got, [0.6, 0.8j])
    with pytest.raises(scenario.ConfigError):
        scenario.parse_state("kitten")
    with pytest.raises(ValueError):
        scenario.parse_state("1, 1")  # not normalized


def test_resolve_minimal():
    scn = scenario.resolve(minimal_cfg(), label="unit")
    assert scn.name == "pauli"
    assert scn.label == "unit"
    assert scn.model.kind == noise.WHITE
    assert scn.sim.n_paths == 20
    assert np.array_equal(scn.S, qstate.SIGMA_X)
    assert np.array_equal(scn.H, np.zeros((2, 2)))


def test_resolve_rejects_unknown_keys():
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(minimal_cfg(scenario={"typo_key": "1"}))
    with pytest.raises(scenario.ConfigError):
        scenario.resolve({"bogus_section": {}, **minimal_cfg()})
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(minimal_cfg(scenario={"kind": "sideways"}))
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(minimal_cfg(sim={"dt": "fast"}))


def test_operator_class_enforcement():
    # a projection noise_op under any output kind takes its spectral law
    scn = scenario.resolve(minimal_cfg(scenario={"kind": "projection", "noise_op": "P1",
                                                 "state": "+"}))
    assert scn.name == "projection" and scn.law is not None
    _, var, diagnostics = scenario.analytic_series(scn, [0.5])
    assert np.isfinite(var).all() and diagnostics == {}
    # but the closure scans need an involution
    with pytest.raises(scenario.ConfigError, match="S\\^2 = I"):
        scenario.resolve(minimal_cfg(scenario={"kind": "approx-order",
                                               "noise_op": "P1", "state": "+"}))


def test_commutation_enforcement():
    # [Z, X] != 0: a pauli run takes the Magnus mean, with no closed variance
    scn = scenario.resolve(minimal_cfg(scenario={"hamiltonian": "Z"}))
    assert scn.name == "pauli" and scn.law is None
    mean, var, diagnostics = scenario.analytic_series(scn, [0.0, 0.5])
    want = magnus.wn_mean_fidelity(qstate.SIGMA_Z, qstate.SIGMA_X, scn.model,
                                   scn.state, np.array([0.0, 0.5]))
    assert np.array_equal(mean, want)
    assert np.isnan(var).all() and "epsilon_sq" in diagnostics
    ok = scenario.resolve(minimal_cfg(scenario={"hamiltonian": "X"}))
    assert np.array_equal(ok.H, qstate.SIGMA_X) and ok.law is not None
    # the kinds whose outputs need the exact law still reject [H, S] != 0
    for kind, extra in (("approx-order", {}), ("distribution", {"t_slices": "0.1"})):
        with pytest.raises(scenario.ConfigError, match="commutes"):
            scenario.resolve(minimal_cfg(scenario={"kind": kind, "hamiltonian": "Z"},
                                         output=extra))


def test_noncommuting_validation():
    # H = S = X commute, so a noncommuting-kind run gets the spectral law
    cfg = minimal_cfg(scenario={"kind": "noncommuting", "hamiltonian": "X",
                                "noise_op": "X"})
    scn = scenario.resolve(cfg)
    law = scn.law
    assert law is not None
    mean, var, diagnostics = scenario.analytic_series(scn, [0.5])
    assert (mean, var) == laws.series_mean_variance(law.series, scn.model, np.array([0.5]))
    assert np.isfinite(var).all() and diagnostics == {}
    cfg = minimal_cfg(scenario={"kind": "noncommuting", "hamiltonian": "X",
                                "noise_op": "Z", "alpha": "2.0"})
    scn = scenario.resolve(cfg)
    assert np.array_equal(scn.H, 2.0 * qstate.SIGMA_X)
    assert np.array_equal(scn.S, qstate.SIGMA_Z)
    # a non-commuting route divides by alpha
    with pytest.raises(scenario.ConfigError, match="alpha > 0"):
        scenario.resolve(minimal_cfg(scenario={"kind": "noncommuting", "hamiltonian": "X",
                                               "noise_op": "Z", "alpha": "-1"}))
    # the Magnus means are weak-noise expansions in eps^2 = gamma^2/alpha
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario.analytic_series(scn, [1.0])
    assert not caught
    weak_drive = scenario.resolve(minimal_cfg(
        scenario={"kind": "noncommuting", "hamiltonian": "X", "noise_op": "Z",
                  "alpha": "0.1"}, noise={"gamma": "0.4"}))
    with pytest.warns(UserWarning, match="not small"):
        _, _, diagnostics = scenario.analytic_series(weak_drive, [1.0])
    assert diagnostics["epsilon_sq"] == pytest.approx(1.6)


def test_distribution_needs_slices():
    cfg = minimal_cfg(scenario={"kind": "distribution"})
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(cfg)
    cfg = minimal_cfg(scenario={"kind": "distribution"},
                      output={"t_slices": "0.1,0.5"})
    scn = scenario.resolve(cfg)
    assert scn.t_slices == (0.1, 0.5)


def test_slice_reference_is_the_exact_law():
    # F = cos^2(Delta X) under S = X on |0>, and at sd 0.3 |Delta X| stays
    # below pi/2 but for a 2e-7 tail, so P(F <= f) = erfc(arccos(sqrt f) / (sd sqrt 2))
    model = noise.white_noise(0.3)
    law = laws.spectral_law(qstate.SIGMA_X, scenario.parse_state("0"))
    (ref,) = scenario.law_references(law, model, [1.0])
    assert ref.shape == (scenario.LAW_QUANTILES,)
    f = np.sort(ref)
    exact = np.array([math.erfc(math.acos(math.sqrt(x)) / (0.3 * math.sqrt(2))) for x in f])
    n = len(f)
    ks = max(np.max(np.arange(1, n + 1) / n - exact), np.max(exact - np.arange(n) / n))
    assert ks < 2.0 / n
    # the DKW bound at family-wise 1%: 0.183 at 100 paths and 0.041 at 2000 over 4 slices
    assert scenario.ks_bound(100, 4) == pytest.approx(0.1828, abs=1e-4)
    assert scenario.ks_bound(2000, 4) == pytest.approx(0.0409, abs=1e-4)


def test_scenario_law_wrapping():
    scn = scenario.resolve(minimal_cfg())
    law = scenario.scenario_law(scn)
    assert law.s0 == pytest.approx(0.0)  # <X> = 0 for |0>
    assert law.series.evaluate(0.0) == pytest.approx(1.0)
    # GHZ under X (x) I + I (x) X: the closed form with r0 = <X (x) X> = 1
    cfg = minimal_cfg(scenario={"kind": "twoqubit", "state": "ghz",
                                "base_op": "X"})
    del cfg["scenario"]["noise_op"]
    scn2 = scenario.resolve(cfg)
    assert np.allclose(scn2.S,
                       np.kron(qstate.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), qstate.SIGMA_X))
    law2 = scenario.scenario_law(scn2)
    assert law2.s0 == pytest.approx(0.0)
    want = oracles.two_qubit_law(0.0, 1.0, "pauli")
    grid = np.linspace(0.0, 2 * np.pi, 257)
    assert np.max(np.abs(law2.series.evaluate(grid) - want.evaluate(grid))) < 1e-13


def _preset(name, tmp_path, **over):
    cfg = {s: dict(e) for s, e in scenario.PRESETS[name].items()}
    for section, entries in over.items():
        cfg[section].update(entries)
    cfg["output"]["dir"] = str(tmp_path / name)
    return cfg


def test_resolve_builds_the_operators(tmp_path):
    X, I = qstate.SIGMA_X, qstate.IDENTITY_2
    fig7a = scenario.resolve(_preset("fig7a", tmp_path))
    assert np.array_equal(fig7a.S, np.kron(X, I) + np.kron(I, X))
    fig5 = scenario.resolve(_preset("fig5", tmp_path))
    assert np.array_equal(fig5.H, fig5.alpha * X) and fig5.law is None
    drive = scenario.resolve(minimal_cfg(scenario={"hamiltonian": "control:0.7,0.3,-0.2",
                                                   "alpha": "1.5"}))
    assert np.array_equal(drive.H, 1.5 * qstate.control_hamiltonian(0.7, 0.3, -0.2))


@pytest.mark.parametrize("name, over, n_laws", [
    ("fig4", {"sim": {"t": "0.3", "n_paths": "20"}, "output": {"t_slices": "0.06,0.3"}}, 1),
    ("fig3", {"sim": {"t": "0.5", "n_paths": "20"}, "output": {"scan_t": "1"}}, 1),
    ("fig5", {"sim": {"t": "0.5", "n_paths": "20"}}, 0),
])
def test_route_and_law_are_decided_once(tmp_path, monkeypatch, name, over, n_laws):
    """One resolve, run and check take [H, S] once, and build the exact
    law once on a commuting run and never on a non-commuting one."""
    calls = {"commutator": 0, "spectral_law": 0}
    for module, attr in ((qstate, "commutator"), (laws, "spectral_law")):
        def counted(*args, _fn=getattr(module, attr), _attr=attr):
            calls[_attr] += 1
            return _fn(*args)
        monkeypatch.setattr(module, attr, counted)
    scn = scenario.resolve(_preset(name, tmp_path, **over))
    scenario.check_run(scenario.run_scenario(scn))
    assert calls == {"commutator": 1, "spectral_law": n_laws}
    assert (scn.law is not None) == bool(n_laws)


def test_preset_scenarios_resolve():
    assert sorted(scenario.PRESETS) == ["fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b"]
    for name, cfg in scenario.PRESETS.items():
        scn = scenario.resolve({s: dict(e) for s, e in cfg.items()}, label=name)
        assert scn.label == name


def test_analytic_series_pauli():
    scn = scenario.resolve(minimal_cfg())
    ts = np.array([0.0, 0.25, 0.5])
    mean, var, diagnostics = scenario.analytic_series(scn, ts)
    assert diagnostics == {}
    assert mean[0] == pytest.approx(1.0)
    assert np.all(np.diff(mean) < 0)
    assert var[0] == pytest.approx(0.0, abs=1e-12)


def test_run_scenario_artifacts(tmp_path):
    cfg = minimal_cfg(output={"dir": str(tmp_path / "out")})
    scn = scenario.resolve(cfg, label="unit")
    result = scenario.run_scenario(scn)
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "run.json").exists()
    assert scenario.check_run(result) == []


def test_ou_magnus_mean_is_one_call_over_the_recorded_grid(tmp_path, monkeypatch):
    """A noncommuting OU run asks for its Magnus mean once, with every
    recorded time, not once per time."""
    calls = []
    batched = magnus.ou_second_order_mean

    def counted(H, S, model, phi0, t):
        calls.append(np.array(t, copy=True))
        return batched(H, S, model, phi0, t)

    monkeypatch.setattr(magnus, "ou_second_order_mean", counted)
    scn = scenario.resolve(minimal_cfg(
        scenario={"kind": "noncommuting", "hamiltonian": "X", "noise_op": "Z"},
        noise={"kind": "ou", "gamma": "0.2", "k": "1.0", "init": "stationary"},
        output={"dir": str(tmp_path / "out")}))
    result = scenario.run_scenario(scn)
    assert len(calls) == 1
    assert len(result.sim.times) > 2 and np.array_equal(calls[0], result.sim.times)


def test_csv_writes_each_value_as_its_repr(tmp_path):
    """Each row is the comma join of its values' reprs, edge values included."""
    cols = ([0.0, float("nan"), 1.0], [float("inf"), -0.0, 5e-324],
            np.array([0.1 + 0.2, -float("inf"), 2.0**-1074]))
    path = scenario._write_csv(str(tmp_path / "x.csv"), "a,b,c", cols)
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in cols))
    expected = "a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    with open(path) as fh:
        got = fh.read()
    assert got == expected
    assert got.splitlines()[2] == "nan,-0.0,-inf"
    assert got.splitlines()[3] == "1.0,5e-324,5e-324"
    assert got.splitlines()[1] == "0.0,inf,0.30000000000000004"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_run_passes_a_ghz_run_despite_a_roundoff_stderr(tmp_path, seed):
    # All 50 paths share F(0) = 1 - 2e-16, and the path-order sum leaves a
    # stderr of about 1.6e-17 at t = 0: a gap of 1.1e-16 reads z = -7
    # there, yet it is round-off.
    cfg = minimal_cfg(
        noise={"kind": "ou", "gamma": "0.2", "k": "0.3", "init": "stationary"},
        sim={"dt": "0.001", "t": "0.1", "n_paths": "50", "master_seed": str(seed)},
        output={"dir": str(tmp_path / "out")})
    cfg["scenario"] = {"kind": "twoqubit", "state": "ghz", "base_op": "X"}
    result = scenario.run_scenario(scenario.resolve(cfg, label="ghz"))
    assert result.check_failures == ()


@pytest.mark.parametrize("n_paths", [20, 50, 500])
def test_check_run_passes_a_pauli_eigenstate(tmp_path, n_paths):
    # |+> under S = X keeps F = 1 on every path; the MC mean sits within
    # round-off of the law at every time, and its stderr is round-off too
    for seed in (1, 2):
        scn = scenario.resolve(minimal_cfg(
            scenario={"state": "+"},
            sim={"n_paths": str(n_paths), "master_seed": str(seed), "record_every": "5"},
            output={"dir": str(tmp_path / "out")}))
        result = scenario.run_scenario(scn)
        assert np.all(np.abs(result.sim.summary.mean_f - 1.0) < 1e-12)
        assert result.check_failures == ()


def test_approx_order_rejects_a_stationary_start():
    # the closures start from X0 = 0; the exact column would not
    cfg = minimal_cfg(scenario={"kind": "approx-order"},
                      noise={"kind": "ou", "gamma": "0.2", "k": "0.1", "init": "stationary"})
    with pytest.raises(scenario.ConfigError, match="init = calibrated"):
        scenario.resolve(cfg)
    cfg["noise"]["init"] = "calibrated"
    assert scenario.resolve(cfg).model.init == noise.CALIBRATED


def test_check_run_fails_a_distribution_with_too_much_noise(tmp_path, monkeypatch):
    # fig4 at 300 paths, with the MC run at 1.2 gamma: its slices are wider
    # than the law's, and the KS gate sees it (at seeds 1-10, 10 of 10 runs)
    real = scenario.sde_mod.simulate_paths
    monkeypatch.setattr(scenario.sde_mod, "simulate_paths",
                        lambda H, S, model, phi0, cfg: real(
                            H, S, replace(model, gamma=1.2 * model.gamma), phi0, cfg))
    cfg = {s: dict(e) for s, e in scenario.PRESETS["fig4"].items()}
    cfg["sim"].update(n_paths="300", master_seed="1")
    cfg["output"]["dir"] = str(tmp_path / "out")
    result = scenario.run_scenario(scenario.resolve(cfg))
    ks_failures = [f for f in result.check_failures if f.startswith("KS distance")]
    assert ks_failures and all(f"> {scenario.ks_bound(300, 4):.3f}" in f for f in ks_failures)


def test_check_run_passes_an_eigenstate_distribution(tmp_path):
    # |+> under S = X: the law is exactly F = 1, and the MC reads 1 - 7e-16,
    # which a KS distance on the raw values puts at 1
    scn = scenario.resolve(minimal_cfg(
        scenario={"kind": "distribution", "state": "+"},
        noise={"kind": "ou", "gamma": "0.2", "k": "0.1"},
        sim={"t": "1.0", "n_paths": "50", "master_seed": "1"},
        output={"dir": str(tmp_path / "out"), "t_slices": "0.5,1"}))
    result = scenario.run_scenario(scn)
    mc, reference = result.slice_samples[1.0]
    assert np.all(reference == 1.0) and not np.all(mc == 1.0)
    assert result.check_failures == ()


def test_check_run_fails_an_mc_without_noise(tmp_path, monkeypatch):
    # The MC runs at gamma = 0, so F = 1 on every path, with a stderr of
    # exactly 0, against a law that falls below 1: the round-off floor must
    # not let that through.
    real = scenario.sde_mod.simulate_paths
    monkeypatch.setattr(scenario.sde_mod, "simulate_paths",
                        lambda H, S, model, phi0, cfg: real(
                            H, S, noise.white_noise(0.0), phi0, cfg))
    scn = scenario.resolve(minimal_cfg(output={"dir": str(tmp_path / "out")}))
    result = scenario.run_scenario(scn)
    s = result.sim.summary
    assert np.all(s.mean_f == 1.0) and np.all(s.stderr_f == 0.0)
    assert result.analytic_mean[-1] < 0.99
    assert len(result.check_failures) == 1
    assert "3 stderr from the analytic mean" in result.check_failures[0]
