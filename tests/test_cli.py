import configparser
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sselab import approx, cli, scenario, sde
from test_magnus import lindblad_mean_fidelity

TINY_INI = """\
[scenario]
kind = pauli
state = 0
noise_op = X

[noise]
kind = white
gamma = 0.2

[sim]
dt = 0.01
t = 0.5
n_paths = 40
master_seed = 9
record_every = 10

[output]
dir = {out}
"""


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "case.ini"
    path.write_text((text or TINY_INI).format(**fmt))
    return str(path)


def test_presets_listing(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b"):
        assert name in out
    assert "gamma=0.2" in out and "kind=noncommuting" in out


def test_run_config_file(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    cfg = write_config(tmp_path, out=out_dir)
    assert cli.main(["run", cfg]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out_dir / "summary.csv") in printed
    assert (out_dir / "summary.csv").exists()
    doc = json.loads((out_dir / "run.json").read_text())
    assert doc["label"] == "case"
    assert doc["config"]["sim"]["master_seed"] == "9"
    assert "numpy" in doc["versions"]
    header = (out_dir / "summary.csv").read_text().splitlines()[0]
    assert header == "t,analytic_mean,analytic_var,mc_mean,mc_stderr,mc_var"
    diag = doc["diagnostics"]
    assert diag["n_paths"] == diag["n_effective"] == 40 and diag["aborted"] == []
    assert 0 <= diag["max_norm_drift"] < 1e-3 and 0 <= diag["max_range_violation"] < 1e-6
    assert diag["sde_kernel"] == "diagonal" and diag["sde_amplitudes"] == 2
    assert not {"epsilon_sq", "check_window_end", "magnus_out_of_range"} & set(diag)


def test_run_json_names_aborted_paths(tmp_path, capsys):
    # a coarse renormalized Euler run in which 5 of 1000 paths blow up
    text = TINY_INI.replace("dt = 0.01", "dt = 0.05").replace(
        "gamma = 0.2", "gamma = 1.45").replace("t = 0.5", "t = 1.0").replace(
        "n_paths = 40", "n_paths = 1000").replace(
        "master_seed = 9", "master_seed = 3").replace(
        "record_every = 10", "record_every = 1").replace(
        "[sim]", "[sim]\nscheme = euler-maruyama")
    out = tmp_path / "ab"
    assert cli.main(["run", write_config(tmp_path, text=text, out=out)]) == 0
    assert "5 path(s) aborted" in capsys.readouterr().err
    diag = json.loads((out / "run.json").read_text())["diagnostics"]
    assert diag["n_paths"] == 1000 and diag["n_effective"] == 995
    assert diag["aborted"] == [[170, 5], [394, 4], [553, 4], [740, 11], [981, 1]]
    assert diag["max_norm_drift"] < 0.5


def test_run_json_records_approximation_diagnostics(tmp_path):
    # at k = 1000 the second-order Magnus mean overshoots 1 at every t > 0
    noncommuting = TINY_INI.replace("kind = pauli", "kind = noncommuting").replace(
        "noise_op = X", "noise_op = Z\nhamiltonian = X").replace(
        "kind = white", "kind = ou").replace("gamma = 0.2", "gamma = 0.2\nk = 1000").replace(
        "dt = 0.01", "dt = 0.0001").replace("record_every = 10", "record_every = 1000").replace(
        "n_paths = 40", "n_paths = 2")
    # the config starts calibrated, the Magnus mean stationary: one warning
    with pytest.warns(UserWarning, match="assumes a stationary start") as caught:
        assert cli.main(["run", write_config(tmp_path, text=noncommuting,
                                             out=tmp_path / "nc")]) == 0
    assert sum("stationary start" in str(w.message) for w in caught) == 1
    diag = json.loads((tmp_path / "nc" / "run.json").read_text())["diagnostics"]
    rows = np.loadtxt(tmp_path / "nc" / "summary.csv", delimiter=",", skiprows=1)
    assert diag["epsilon_sq"] == pytest.approx(0.04)
    assert diag["check_window_end"] == 5.0  # check_run's 5/alpha, at alpha = 1
    assert diag["magnus_out_of_range"] == np.count_nonzero(rows[:, 1] > 1) == 5
    assert diag["magnus_assumed_start"] == "stationary"
    assert diag["sde_kernel"] == "dense" and diag["sde_amplitudes"] == 2

    white = noncommuting.replace("kind = ou", "kind = white").replace("\nk = 1000", "")
    assert cli.main(["run", write_config(tmp_path, text=white, out=tmp_path / "wn")]) == 0
    diag = json.loads((tmp_path / "wn" / "run.json").read_text())["diagnostics"]
    assert diag["epsilon_sq"] == pytest.approx(0.04) and "magnus_out_of_range" not in diag
    assert diag["check_window_end"] == 5.0
    assert "magnus_assumed_start" not in diag

    assert cli.main(["run", write_config(tmp_path, text=APPROX_INI, out=tmp_path / "ap")]) == 0
    diag = json.loads((tmp_path / "ap" / "run.json").read_text())["diagnostics"]
    # the closure scan is real, so there is no imaginary residue to record
    assert "closure_imag_residue" not in diag and "epsilon_sq" not in diag


# Drives and noise operators that do not commute, under kinds that once
# rejected them: each run takes the Magnus mean and the dense kernel.  At
# 2000 paths the MC - Magnus gap stays below 0.014 on master seeds 0-19,
# inside check_run's 0.02.
NEWLY_ROUTED = {
    "pauli_z_drive": ("pauli", "noise_op = X\nhamiltonian = Z"),
    "projection_x_drive": ("projection", "noise_op = P1\nhamiltonian = X"),
    "control_drive": ("noncommuting", "noise_op = X\nhamiltonian = control:1,0,0.5"),
}


@pytest.mark.parametrize("case", sorted(NEWLY_ROUTED))
def test_noncommuting_operators_route_to_the_magnus_mean(tmp_path, case):
    kind, ops = NEWLY_ROUTED[case]
    text = TINY_INI.replace("kind = pauli", f"kind = {kind}").replace(
        "noise_op = X", ops).replace("gamma = 0.2", "gamma = 0.3").replace(
        "t = 0.5", "t = 5.0").replace("n_paths = 40", "n_paths = 2000")
    out = tmp_path / case
    path = write_config(tmp_path, text=text, out=out)
    scn = scenario.resolve(cli._load_config_file(path))
    assert cli.main(["run", path, "--check"]) == 0
    diag = json.loads((out / "run.json").read_text())["diagnostics"]
    assert diag["sde_kernel"] == "dense" and "epsilon_sq" in diag
    rows = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
    assert np.isnan(rows[:, 2]).all()
    want = [lindblad_mean_fidelity(scn.H, scn.S, 0.3,
                                   scn.state, t) for t in rows[:, 0]]
    assert np.max(np.abs(rows[:, 1] - want)) < 1e-3


# fig7a's config, shortened
FIG7A_INI = TINY_INI.replace("kind = pauli\nstate = 0\nnoise_op = X",
                             "kind = twoqubit\nstate = 00\nbase_op = X").replace(
    "kind = white\ngamma = 0.2", "kind = ou\ngamma = 0.2\nk = 0.3\ninit = stationary")


def test_run_json_records_the_amplitudes_stepped(tmp_path):
    cases = {
        # |00> under the collective S = X (x) I + I (x) X has no weight on
        # one eigenvector of S's double eigenvalue 0, and H and S vanish on
        # the other, so that part is carried as a constant: the run steps
        # the eigenvalues +-2, 2 amplitudes per path, not 4
        "fig7a": (FIG7A_INI, 2),
        # fig6's config, shortened: |0> of |+> sits in P1's kernel, where
        # H = 0, so only |1> is stepped
        "fig6": (TINY_INI.replace("kind = pauli\nstate = 0\nnoise_op = X",
                                  "kind = projection\nstate = +\nnoise_op = P1").replace(
            "kind = white\ngamma = 0.2", "kind = ou\ngamma = 0.1\nk = 0.1\ninit = stationary"),
            1),
    }
    for name, (text, amplitudes) in cases.items():
        out = tmp_path / name
        assert cli.main(["run", write_config(tmp_path, text=text, out=out)]) == 0
        diag = json.loads((out / "run.json").read_text())["diagnostics"]
        assert diag["sde_kernel"] == "diagonal" and diag["sde_amplitudes"] == amplitudes, name


def test_overrides_reach_run_json(tmp_path):
    cfg = write_config(tmp_path, out=tmp_path / "a")
    out2 = tmp_path / "b"
    assert cli.main(["run", cfg, "--seed", "123", "--paths", "17",
                     "--out", str(out2)]) == 0
    doc = json.loads((out2 / "run.json").read_text())
    assert doc["config"]["sim"]["master_seed"] == "123"
    assert doc["config"]["sim"]["n_paths"] == "17"


def test_unknown_target_and_bad_config(tmp_path, capsys):
    assert cli.main(["run", "fig99"]) == 1
    assert "neither a preset" in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nkind = pauli\nwheels = 4\n")
    assert cli.main(["run", str(bad)]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_run_failure_exit_code(tmp_path, capsys):
    # a coarse explicit-Euler run blows up and must report failure
    text = TINY_INI.replace("dt = 0.01", "dt = 0.5").replace(
        "gamma = 0.2", "gamma = 3.0").replace(
        "record_every = 10", "record_every = 1").replace(
        "[sim]", "[sim]\nscheme = euler-maruyama\nrenormalize = false")
    cfg = write_config(tmp_path, text=text, out=tmp_path / "boom")
    assert cli.main(["run", cfg]) == 2
    assert "run failed" in capsys.readouterr().err


def test_check_passes_on_healthy_run(tmp_path, capsys):
    cfg = write_config(tmp_path, out=tmp_path / "chk")
    code = cli.main(["run", cfg, "--paths", "300", "--check"])
    assert code == 0
    assert "checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("kind, slices", [("pauli", ""), ("distribution", "0.1,0.5")])
def test_check_fails_a_run_of_one_path(tmp_path, capsys, kind, slices):
    # one path has no finite stderr, so no mean gate can pass it
    text = TINY_INI.replace("kind = pauli", f"kind = {kind}")
    if slices:
        text = text.replace("[output]", f"[output]\nt_slices = {slices}")
    cfg = write_config(tmp_path, text=text, out=tmp_path / "one")
    assert cli.main(["run", cfg, "--paths", "1", "--check"]) == 2
    captured = capsys.readouterr()
    assert "checks passed" not in captured.out
    assert captured.err.splitlines() == [
        "check failed: the mean gate needs at least 2 completed paths, this run has 1"]


def test_run_json_records_check_outcome(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, out=tmp_path / "ok")
    blobs = []
    for _ in range(2):
        assert cli.main(["run", cfg, "--paths", "300"]) == 0
        blobs.append((tmp_path / "ok" / "run.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["check"] == {"passed": True, "failures": []}
    # a breach is recorded with or without --check; --check turns the
    # recorded outcome into exit code 2 without checking a second time
    calls = []

    def breach(result):
        calls.append(result)
        return ["mean off by 9 stderr"]

    monkeypatch.setattr(scenario, "check_run", breach)
    for flags, code in (([], 0), (["--check"], 2)):
        out = tmp_path / f"breach{len(flags)}"
        assert cli.main(["run", cfg, "--out", str(out), *flags]) == code
        doc = json.loads((out / "run.json").read_text())
        assert doc["check"] == {"passed": False, "failures": ["mean off by 9 stderr"]}
    assert len(calls) == 2
    assert "check failed: mean off by 9 stderr" in capsys.readouterr().err


def test_run_writes_stage_timings(tmp_path, capsys):
    # every stage's wall time goes to timings.json; run.json and summary.csv
    # stay byte-identical across repeat runs
    cfg = write_config(tmp_path, APPROX_INI, out=tmp_path / "out")
    blobs = []
    for _ in range(2):
        assert cli.main(["run", cfg]) == 0
        blobs.append([(tmp_path / "out" / name).read_bytes()
                      for name in ("run.json", "summary.csv")])
    assert blobs[0] == blobs[1]
    assert str(tmp_path / "out" / "timings.json") in capsys.readouterr().out.splitlines()
    seconds = json.loads((tmp_path / "out" / "timings.json").read_text())["seconds"]
    assert set(seconds) == {"resolve", "simulate", "analytic", "closure", "write", "check"}
    assert all(isinstance(v, float) and v >= 0.0 for v in seconds.values())
    assert seconds["resolve"] > 0.0 and seconds["closure"] > 0.0


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    # Paths run in one thread, so the work is split only by the step loop's
    # chunk and the block of normals: at 40 paths, chunks of 50 (the whole
    # run), 12 and 1 steps and blocks of 50, 24 and 2.  fig7a's |00> carries
    # an inert class as a constant and never rescales.
    for name, text in (("pauli", TINY_INI), ("fig7a", FIG7A_INI)):
        blobs = []
        for values, normals in ((2**13, 2**20), (2**9, 999), (37, 111)):
            monkeypatch.setattr(sde, "CHUNK_VALUES", values)
            monkeypatch.setattr(sde, "BLOCK_NORMALS", normals)
            out = tmp_path / f"{name}_split{values}_{normals}"
            cfg = write_config(tmp_path, text=text, out=out)
            assert cli.main(["run", cfg]) == 0
            blobs.append((out / "summary.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], name


APPROX_INI = TINY_INI.replace("kind = pauli", "kind = approx-order").replace(
    "kind = white", "kind = ou").replace("gamma = 0.2", "gamma = 0.2\nk = 0.1")

BAD_VALUES = {
    "t_slice_off_grid": TINY_INI.replace("kind = pauli", "kind = distribution").replace(
        "[output]", "[output]\nt_slices = 0.07"),
    # both slices would write distribution_t100000.csv
    "t_slices_same_file": TINY_INI.replace("kind = pauli", "kind = distribution").replace(
        "dt = 0.01", "dt = 0.1").replace("t = 0.5", "t = 100000.2").replace(
        "n_paths = 40", "n_paths = 2").replace("record_every = 10", "record_every = 1").replace(
        "[output]", "[output]\nt_slices = 100000.1,100000.2"),
    "gamma_nan": TINY_INI.replace("gamma = 0.2", "gamma = nan"),
    "t_negative": TINY_INI.replace("t = 0.5", "t = -1"),
    "scan_t_negative": APPROX_INI.replace("[output]", "[output]\nscan_t = -1"),
    "scan_t_nan": APPROX_INI.replace("[output]", "[output]\nscan_t = nan"),
    "scan_t_off_grid": APPROX_INI.replace("[output]", "[output]\nscan_t = 0.0005"),
    "state_wrong_dim": TINY_INI.replace("state = 0", "state = 0,0,1"),
    "noise_op_unknown": TINY_INI.replace("noise_op = X", "noise_op = Q"),
    # operators: H takes a named operator or a control: drive, S a name only
    "hamiltonian_control_short": TINY_INI.replace(
        "noise_op = X", "noise_op = X\nhamiltonian = control:1,0"),
    "noise_op_control": TINY_INI.replace("noise_op = X", "noise_op = control:1,0,0"),
    "base_op_unknown": TINY_INI.replace("kind = pauli", "kind = twoqubit").replace(
        "state = 0", "state = 00").replace("noise_op = X", "base_op = Q"),
    "alpha_nan": TINY_INI.replace("kind = pauli", "kind = noncommuting").replace(
        "noise_op = X", "noise_op = Z\nhamiltonian = X\nalpha = nan"),
    "steps_overflow": TINY_INI.replace("dt = 0.01", "dt = 1e-300").replace(
        "record_every = 10", "record_every = 1"),
    # finite values whose SDE step map overflows
    "gamma_step_overflow": TINY_INI.replace("gamma = 0.2", "gamma = 1e200"),
    "gamma_squared_step_overflow": TINY_INI.replace("gamma = 0.2", "gamma = 1e150"),
    "k_step_overflow": TINY_INI.replace("kind = white", "kind = ou").replace(
        "gamma = 0.2", "gamma = 0.2\nk = 1e200"),
    "drive_step_overflow": TINY_INI.replace(
        "noise_op = X", "noise_op = X\nhamiltonian = X\nalpha = 1e300"),
    "noncommuting_step_overflow": TINY_INI.replace(
        "kind = pauli", "kind = noncommuting").replace(
        "noise_op = X", "noise_op = Z\nhamiltonian = X").replace(
        "gamma = 0.2", "gamma = 1e200"),
    # k*dt = 10: the Platen noise update scales x by 41 per step
    "ou_step_unstable": TINY_INI.replace("kind = pauli", "kind = noncommuting").replace(
        "noise_op = X", "noise_op = Z\nhamiltonian = X").replace(
        "kind = white", "kind = ou").replace("gamma = 0.2", "gamma = 0.2\nk = 1000").replace(
        "n_paths = 40", "n_paths = 2"),
    # work above the scenario.MAX_* ceilings
    "path_steps_dt_1e-9": TINY_INI.replace("dt = 0.01", "dt = 1e-9").replace(
        "t = 0.5", "t = 1000"),
    "path_steps_dt_1e-15": TINY_INI.replace("dt = 0.01", "dt = 1e-15").replace(
        "t = 0.5", "t = 1").replace("record_every = 10", "record_every = 1"),
    "recorded_values": TINY_INI.replace("n_paths = 40", "n_paths = 2000000"),
    "closure_scan_steps": APPROX_INI.replace("[output]", "[output]\nscan_t = 10000"),
    # keys the kind does not read
    "noise_op_not_read_by_twoqubit": TINY_INI.replace("kind = pauli", "kind = twoqubit").replace(
        "state = 0", "state = 00").replace("noise_op = X", "base_op = X\nnoise_op = Z"),
    "base_op_not_read_by_pauli": TINY_INI.replace("noise_op = X", "noise_op = X\nbase_op = X"),
    "t_slices_not_read_by_pauli": TINY_INI.replace("[output]", "[output]\nt_slices = 0.1"),
    "scan_t_not_read_by_pauli": TINY_INI.replace("[output]", "[output]\nscan_t = 0.5"),
}
OPERATOR_ERRORS = {
    "hamiltonian_control_short": "control spec needs omega,phase,delta",
    "noise_op_control": "unknown operator name 'control:1,0,0'",
    "base_op_unknown": "unknown operator name 'Q'",
}


@pytest.mark.filterwarnings("error")  # a rejected config prints no warning either
@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_values_rejected_before_any_compute(tmp_path, capsys, case):
    out = tmp_path / "never"
    cfg = write_config(tmp_path, text=BAD_VALUES[case], out=out)
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    if case.endswith("step_overflow"):
        assert "overflow the SDE step at dt = 0.01" in err[0], err
    if case == "ou_step_unstable":
        assert "k*dt = 10 > 2" in err[0] and "by 41 per step" in err[0], err
    if case.startswith(("path_steps", "recorded_values", "closure_scan")):
        assert "exceed MAX_" in err[0], err
    if case == "t_slices_same_file":
        assert err[0].endswith("would both write distribution_t100000.csv"), err
    if case in OPERATOR_ERRORS:
        assert err[0] == f"config error: {OPERATOR_ERRORS[case]}", err
    if "_not_read_by_" in case:
        key, kind = case.split("_not_read_by_")
        assert f"{key} is not read by {kind!r} scenarios" in err[0], err
    # the output directory is made only once the simulation has run
    assert not out.exists()


@pytest.mark.parametrize("case", ["existing_file", "under_a_file", "empty"])
def test_bad_out_dir_rejected_before_any_compute(tmp_path, capsys, monkeypatch, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = {"existing_file": str(blocker), "under_a_file": str(blocker / "sub"),
           "empty": ""}[case]

    def no_compute(*args, **kwargs):
        raise AssertionError("simulated despite a bad output directory")

    monkeypatch.setattr(sde, "simulate_paths", no_compute)
    assert cli.main(["run", write_config(tmp_path, out=tmp_path / "a"), "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert "directory" in err[0], err
    assert blocker.read_text() == "not a directory"


def test_nested_new_out_dir_passes_resolve_and_is_not_made(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    scn = scenario.resolve(cli._load_config_file(write_config(tmp_path, out=out)))
    assert scn.out_dir == str(out)
    assert not (tmp_path / "a").exists()


def test_write_failure_is_a_run_failure(tmp_path, capsys, monkeypatch):
    # the output directory turns into a file between resolve and the writer
    out = tmp_path / "late"
    run_scenario = scenario.run_scenario

    def blocked(scn):
        out.write_text("")
        return run_scenario(scn)

    monkeypatch.setattr(scenario, "run_scenario", blocked)
    assert cli.main(["run", write_config(tmp_path, out=out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "Traceback" not in err, err


NONCOMMUTING_INI = TINY_INI.replace("kind = pauli", "kind = noncommuting").replace(
    "noise_op = X", "noise_op = Z\nhamiltonian = X").replace("n_paths = 40", "n_paths = 2")

# Runs in a fresh interpreter: this process has loaded scipy already.
# Prints the scipy modules loaded, then whether statistics was.
COLD_START = """import sys
from sselab import cli
for path in sys.argv[1:]:
    assert cli.main(["run", path]) == 0, path
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("statistics" in sys.modules)
"""
# Runs with a commuting drive, the closure scan and OU Magnus means.
NO_SCIPY_INIS = {
    "pauli": TINY_INI,
    "projection": TINY_INI.replace("kind = pauli", "kind = projection").replace(
        "state = 0", "state = +").replace("noise_op = X", "noise_op = P1"),
    "twoqubit": TINY_INI.replace("kind = pauli", "kind = twoqubit").replace(
        "state = 0", "state = 00").replace("noise_op = X", "base_op = X"),
    "distribution": TINY_INI.replace("kind = pauli", "kind = distribution").replace(
        "[output]", "[output]\nt_slices = 0.1"),
    "noncommuting_ou": NONCOMMUTING_INI.replace("kind = white", "kind = ou").replace(
        "gamma = 0.2", "gamma = 0.2\nk = 0.5"),
    "approx-order": APPROX_INI,
}


def _cold_run(tmp_path, inis):
    """The last lines COLD_START prints after running `inis` in a fresh interpreter."""
    paths = []
    for name, text in inis.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text.format(out=tmp_path / name))
        paths.append(str(path))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *paths], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-2:]


def test_commuting_runs_never_load_scipy_linalg(tmp_path):
    assert _cold_run(tmp_path, NO_SCIPY_INIS)[0] == "[]"


def test_white_noise_magnus_run_never_loads_scipy_from_a_cold_start(tmp_path):
    # fig5's shape: the white-noise Magnus mean needs numpy's eigh alone
    assert _cold_run(tmp_path, {"noncommuting_white": NONCOMMUTING_INI})[0] == "[]"


def test_only_distribution_runs_load_statistics(tmp_path):
    # its import takes 4-5 ms cold, which every run's start-up would pay
    others = {name: ini for name, ini in NO_SCIPY_INIS.items() if name != "distribution"}
    assert _cold_run(tmp_path, others)[1] == "False"
    dist = {"distribution": NO_SCIPY_INIS["distribution"]}
    assert _cold_run(tmp_path, dist)[1] == "True"


def test_undecodable_config_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bytes.ini"
    path.write_bytes(b"\xff\xfe[scenario]\nkind = pauli\n")
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


# Values a run accepts, per key, so that fuzzed configs also reach compute.
VALID = {
    ("scenario", "kind"): scenario.KINDS,
    ("scenario", "state"): ("0", "+", "00", "ghz", "0.6,0.8j"),
    ("scenario", "noise_op"): ("X", "Z", "P1"),
    ("scenario", "base_op"): ("X", "Y"),
    ("scenario", "hamiltonian"): ("none", "X", "Z", "control:1,0,0.5"),
    ("scenario", "alpha"): ("1", "0.5", "-1"),
    ("noise", "kind"): ("white", "ou"),
    ("noise", "gamma"): ("0.2", "0"),
    ("noise", "k"): ("0", "0.5"),
    ("noise", "init"): ("calibrated", "stationary"),
    ("sim", "scheme"): sde.SCHEMES,
    ("sim", "renormalize"): ("true", "no"),
    ("sim", "n_paths"): ("1", "2"),
    ("sim", "master_seed"): ("0", "-1", str(2**64 + 1)),
    ("sim", "record_every"): ("1", "2"),
    ("output", "t_slices"): ("0.02", "0.02,0.04"),
}
# The keys that set how much a run computes; the CLI fuzz draws them from
# these short lists, bad values included, so that every run stays small.
SIZED = {
    ("sim", "dt"): ("0.01", "0.02", "0", "-1", "nan", "1e-300", "x"),
    ("sim", "t"): ("0.04", "0", "-1", "inf", "x"),
    ("output", "scan_t"): ("0", "0.05", "-1", "nan", "0.0005"),
}
# Sizes that pass every other check, next to ones that an accepted run could
# not afford: k*dt on both sides of 2 at dt = 0.01 or 0.02, and requests above
# the scenario.MAX_* ceilings.  Only the resolve fuzz draws them.
RESIZED = {
    ("noise", "k"): ("0.5", "150", "250"),
    ("sim", "n_paths"): ("2", "3000000", "100000000"),
    ("sim", "dt"): ("0.01", "0.02", "1e-9"),
    ("sim", "t"): ("0", "0.04", "1000"),
    ("sim", "record_every"): ("1", "2"),
    ("output", "scan_t"): ("0", "0.05", "5000"),
}


def _reads(kind, key):
    """Whether a scenario of this kind reads the (section, key)."""
    return kind in scenario._KIND_KEYS.get(key, scenario.KINDS)


@st.composite
def _configs(draw, fuzz_sized):
    """Accepted values, some keys left out, and up to three values replaced
    by arbitrary text (any key, for any kind); the sized keys are always
    set.  Accepted values go only to keys the drawn kind reads."""
    kind = draw(st.sampled_from(VALID[("scenario", "kind")]))
    flat = {("scenario", "kind"): kind}
    flat.update((key, draw(st.sampled_from(vals))) for key, vals in VALID.items()
                if key not in flat and _reads(kind, key) and draw(st.booleans()))
    flat.update((key, draw(st.sampled_from(vals))) for key, vals in SIZED.items()
                if _reads(kind, key))
    fuzzable = sorted(VALID) + (sorted(SIZED) if fuzz_sized else [])
    for key in draw(st.lists(st.sampled_from(fuzzable), max_size=3)):
        flat[key] = draw(st.text(max_size=10))
    cfg = {}
    for (section, key), val in flat.items():
        cfg.setdefault(section, {})[key] = val
    return cfg


@st.composite
def _resized_presets(draw):
    """A preset with its sizes drawn from RESIZED, for the keys it reads."""
    name = draw(st.sampled_from(sorted(scenario.PRESETS)))
    cfg = {section: dict(entries) for section, entries in scenario.PRESETS[name].items()}
    for (section, key), vals in RESIZED.items():
        if _reads(cfg["scenario"]["kind"], (section, key)):
            cfg[section][key] = draw(st.sampled_from(vals))
    return cfg


@settings(max_examples=300, deadline=None)
@given(cfg=st.one_of(_configs(fuzz_sized=True), _resized_presets()))
@example(cfg={"scenario": {"kind": "pauli"}, "noise": {"kind": "ou", "k": "250"},
              "sim": {"dt": "0.01", "t": "0.04"}})
@example(cfg={"scenario": {"kind": "pauli"}, "sim": {"dt": "1e-9", "t": "1000"}})
@example(cfg={"scenario": {"kind": "pauli"}, "sim": {"t": "0", "n_paths": "100000000"}})
@example(cfg={"scenario": {"kind": "approx-order"}, "noise": {"k": "0.1"},
              "output": {"scan_t": "5000"}})
@example(cfg={"scenario": {"kind": "pauli", "hamiltonian": "Z", "alpha": "-1"},
              "sim": {"dt": "0.01", "t": "0.04"}})
@example(cfg={"scenario": {"kind": "distribution", "hamiltonian": "Z"},
              "sim": {"dt": "0.01", "t": "0.04"}, "output": {"t_slices": "0.02"}})
def test_resolve_fuzz_raises_only_config_error(cfg):
    try:
        scn = scenario.resolve(cfg)
    except scenario.ConfigError:
        return
    assert isinstance(scn, scenario.Scenario)
    # an unstable OU step or an oversized request never gets past resolve
    sim = scn.sim
    assert scn.model.k * sim.dt <= 2
    assert sim.n_paths * sim.n_steps <= scenario.MAX_PATH_STEPS
    assert sim.n_paths * (sim.n_steps // sim.record_every + 1) <= scenario.MAX_RECORDED
    if scn.name == "approx-order":
        assert scn.scan_T / approx.DEFAULT_DT <= scenario.MAX_CLOSURE_STEPS
        assert scn.model.init == "calibrated"  # the closures assume X0 = 0
    # only the Magnus route takes [H, S] != 0, and it divides by alpha
    if scn.law is None:
        assert scn.alpha > 0 and scn.name not in ("approx-order", "distribution")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_configs(fuzz_sized=False), paths=st.integers(1, 2))
@example(cfg={"scenario": {"kind": "approx-order"}, "sim": {"dt": "0.01", "t": "0"},
              "output": {"scan_t": "0"}}, paths=1)  # a zero-length closure scan
def test_cli_fuzz_exit_codes_without_traceback(tmp_path, capsys, cfg, paths):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(cfg)
    path = tmp_path / "fuzz.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    code = cli.main(["run", str(path), "--paths", str(paths),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("config error:"), err


def test_repeat_run_is_byte_identical(tmp_path):
    for name in ("r1", "r2"):
        cfg = write_config(tmp_path, out=tmp_path / name)
        assert cli.main(["run", cfg]) == 0
    a = (tmp_path / "r1" / "summary.csv").read_bytes()
    b = (tmp_path / "r2" / "summary.csv").read_bytes()
    assert a == b


def test_distribution_run_emits_slice_files(tmp_path):
    text = TINY_INI.replace("kind = pauli", "kind = distribution").replace(
        "[output]", "[output]\nt_slices = 0.1,0.5")
    cfg = write_config(tmp_path, text=text, out=tmp_path / "dist")
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "dist" / "distribution_t0.1.csv").exists()
    assert (tmp_path / "dist" / "distribution_t0.5.csv").exists()
    header = (tmp_path / "dist" / "distribution_t0.5.csv").read_text().splitlines()[0]
    assert header == "mc_F"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_small_distribution_run_passes_its_check(tmp_path, capsys, seed):
    # the KS bound scales with the path count: 0.183 at 100 paths
    out = str(tmp_path / "fig4")
    assert cli.main(["run", "fig4", "--paths", "100", "--seed", str(seed),
                     "--out", out, "--check"]) == 0, capsys.readouterr().err
    assert "checks passed" in capsys.readouterr().out


def test_approx_order_run_emits_closure_table(tmp_path):
    text = TINY_INI.replace("kind = pauli", "kind = approx-order").replace(
        "kind = white", "kind = ou").replace(
        "gamma = 0.2", "gamma = 0.2\nk = 0.1").replace(
        "[output]", "[output]\nscan_t = 3")
    cfg = write_config(tmp_path, text=text, out=tmp_path / "scan")
    assert cli.main(["run", cfg]) == 0
    lines = (tmp_path / "scan" / "closure.csv").read_text().splitlines()
    assert lines[0] == "t,first_order,second_order,exact"
    first = np.array(lines[1].split(","), dtype=float)
    assert first[0] == 0.0
    assert first[1] == first[2] == first[3] == 1.0
