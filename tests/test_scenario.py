import warnings

import numpy as np
import pytest

from sselab import laws, noise, qstate, scenario


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
    assert np.allclose(scn.noise_operator(), qstate.SIGMA_X)
    assert np.allclose(scn.hamiltonian(), np.zeros((2, 2)))


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
    # projection scenarios need an idempotent noise operator
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(minimal_cfg(scenario={"kind": "projection"}))
    cfg = minimal_cfg(scenario={"kind": "projection", "noise_op": "P1",
                                "state": "+"})
    scn = scenario.resolve(cfg)
    assert scn.name == "projection"
    # and the closure scans need an involution
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(minimal_cfg(scenario={"kind": "approx-order",
                                               "noise_op": "P1", "state": "+"}))


def test_commutation_enforcement():
    cfg = minimal_cfg(scenario={"hamiltonian": "Z"})
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(cfg)  # [Z, X] != 0 in a commuting scenario
    ok = minimal_cfg(scenario={"hamiltonian": "X"})
    scn = scenario.resolve(ok)
    assert np.allclose(scn.hamiltonian(), qstate.SIGMA_X)


def test_noncommuting_validation():
    cfg = minimal_cfg(scenario={"kind": "noncommuting", "hamiltonian": "X",
                                "noise_op": "X"})
    with pytest.raises(scenario.ConfigError):
        scenario.resolve(cfg)
    cfg = minimal_cfg(scenario={"kind": "noncommuting", "hamiltonian": "X",
                                "noise_op": "Z", "alpha": "2.0"})
    scn = scenario.resolve(cfg)
    assert np.array_equal(scn.hamiltonian(), 2.0 * qstate.SIGMA_X)
    assert np.array_equal(scn.noise_operator(), qstate.SIGMA_Z)
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


def test_distribution_slices_draw_their_own_law_samples(tmp_path):
    cfg = minimal_cfg(scenario={"kind": "distribution"},
                      output={"t_slices": "0.1,0.5", "dir": str(tmp_path)})
    result = scenario.run_scenario(scenario.resolve(cfg))
    (_, law_a), (_, law_b) = (result.slice_samples[t] for t in (0.1, 0.5))
    # F falls with |Delta X| here, so one normal sequence would give one ranking
    assert not np.array_equal(np.argsort(law_a), np.argsort(law_b))


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
    assert np.allclose(scn2.noise_operator(),
                       np.kron(qstate.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), qstate.SIGMA_X))
    law2 = scenario.scenario_law(scn2)
    assert law2.s0 == pytest.approx(0.0)
    want = laws.two_qubit_law(0.0, 1.0, "pauli")
    grid = np.linspace(0.0, 2 * np.pi, 257)
    assert np.max(np.abs(law2.series.evaluate(grid) - want.evaluate(grid))) < 1e-13


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
