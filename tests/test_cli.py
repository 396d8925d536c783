import json
import os

import numpy as np
import pytest

from sselab import cli

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


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    blobs = {}
    for threads in ("1", "4", "8"):
        monkeypatch.setenv("SSELAB_THREADS", threads)
        out = tmp_path / f"t{threads}"
        cfg = write_config(tmp_path, out=out)
        assert cli.main(["run", cfg]) == 0
        blobs[threads] = (out / "summary.csv").read_bytes()
    assert blobs["1"] == blobs["4"] == blobs["8"]


APPROX_INI = TINY_INI.replace("kind = pauli", "kind = approx-order").replace(
    "kind = white", "kind = ou").replace("gamma = 0.2", "gamma = 0.2\nk = 0.1")

BAD_VALUES = {
    "t_slice_off_grid": TINY_INI.replace("kind = pauli", "kind = distribution").replace(
        "[output]", "[output]\nt_slices = 0.07"),
    "gamma_nan": TINY_INI.replace("gamma = 0.2", "gamma = nan"),
    "t_negative": TINY_INI.replace("t = 0.5", "t = -1"),
    "scan_t_negative": APPROX_INI.replace("[output]", "[output]\nscan_t = -1"),
    "scan_t_nan": APPROX_INI.replace("[output]", "[output]\nscan_t = nan"),
    "scan_t_off_grid": APPROX_INI.replace("[output]", "[output]\nscan_t = 0.0005"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_values_rejected_before_any_compute(tmp_path, capsys, case):
    out = tmp_path / "never"
    cfg = write_config(tmp_path, text=BAD_VALUES[case], out=out)
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    # the output directory is made only once the simulation has run
    assert not out.exists()


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
    assert header == "mc_F,law_F"


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
