"""The benchmark's workloads and the checks on their output.

Each workload is one scenario config, run the way `sselab run --check`
runs it.  Only the master seed changes from one repetition to the next;
the sizes below set how much work one repetition does.  Smoke sizes
keep dt, record_every and the closure step of the full size, so their
analytic outputs are a prefix of the full-size reference arrays; a
full-size run must match the reference arrays whole.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances on the checks.  The pathwise identity holds up to the
# integrator's strong error, measured at 5e-5 or less on these sizes;
# a wrong kernel misses it by O(0.1).  The law mean/variance is closed
# form, so only round-off may move it.  The closure curves come from a
# fixed-step RK4 that any replacement must match to 1e-10.  The Magnus
# mean is a 400-node quadrature that a cumulative scheme may replace.
# The MC - Magnus gap of noncommuting_ou is set from its full size (400
# paths, t <= 0.5).  Over 1800 seeds the largest gap was 0.0012 and the
# MC stderr at t = 0.5 is 0.00032, so 0.002 is 6 stderr there.  MC means
# with the noise left out miss the Magnus mean by 0.0044 at t = 0.5,
# which is 2.2 times the tolerance and 14 stderr.
PATHWISE_TOL = 1e-3
MAGNUS_GAP_TOL = 0.002
LAW_TOL = 1e-12
CLOSURE_TOL = 1e-9
MAGNUS_REF_TOL = 1e-6
TRUSTED_ALPHA_TIMES = 5.0   # check_run trusts the Magnus mean for t <= 5/alpha


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: str         # the layer predicted to take most of the time
    cfg: dict
    full: dict
    smoke: dict


WORKLOADS = {
    w.name: w
    for w in (
        # Fig7a's two-qubit OU run: the SDE kernel at d=4 on a wide batch of
        # paths, where arithmetic dominates.
        Workload(
            name="mc_twoqubit",
            dominant="sde",
            cfg={
                "scenario": {"kind": "twoqubit", "state": "00", "base_op": "X"},
                "noise": {"kind": "ou", "gamma": "0.2", "k": "0.3", "init": "stationary"},
                "sim": {"dt": "0.001", "scheme": "platen-weak2", "record_every": "50"},
            },
            full={"sim": {"t": "0.75", "n_paths": "500"}},
            smoke={"sim": {"t": "0.1", "n_paths": "8"}},
        ),
        # A commuting Pauli OU run at d=2 on 50 paths and a fine step: per-
        # step Python overhead and frequent recording dominate.  Its 2500
        # steps cross one of sde's 2048-step blocks of normals.
        Workload(
            name="mc_narrow",
            dominant="sde",
            cfg={
                "scenario": {"kind": "pauli", "state": "0", "noise_op": "X"},
                "noise": {"kind": "ou", "gamma": "0.5", "k": "0.5", "init": "stationary"},
                "sim": {"dt": "0.0001", "record_every": "10"},
            },
            full={"sim": {"t": "0.25", "n_paths": "50"}},
            smoke={"sim": {"t": "0.01", "n_paths": "4"}},
        ),
        # Fig3's approx-order run: the two closure RK4 scans dominate, and it
        # is the control for changes to the SDE kernel.
        Workload(
            name="closure_scan",
            dominant="approx",
            cfg={
                "scenario": {"kind": "approx-order", "state": "0", "noise_op": "X"},
                "noise": {"kind": "ou", "gamma": "0.2", "k": "0.1", "init": "calibrated"},
                "sim": {"dt": "0.001", "record_every": "10"},
            },
            full={"sim": {"t": "0.3", "n_paths": "100"}, "output": {"scan_t": "3"}},
            smoke={"sim": {"t": "0.1", "n_paths": "4"}, "output": {"scan_t": "0.5"}},
        ),
        # H=X, S=Z under OU noise: the second-order Magnus mean, one
        # quadrature per recorded time, dominates.
        Workload(
            name="noncommuting_ou",
            dominant="magnus",
            cfg={
                "scenario": {
                    "kind": "noncommuting", "state": "0",
                    "hamiltonian": "X", "noise_op": "Z", "alpha": "1.0",
                },
                "noise": {"kind": "ou", "gamma": "0.2", "k": "1.0", "init": "stationary"},
                "sim": {"dt": "0.001", "record_every": "25"},
            },
            full={"sim": {"t": "0.5", "n_paths": "400"}},
            smoke={"sim": {"t": "0.1", "n_paths": "16"}},
        ),
    )
}


def make_config(workload, master_seed, out_dir, smoke=False):
    """The {section: {key: str}} config of one repetition."""
    cfg = {section: dict(entries) for section, entries in workload.cfg.items()}
    for section, entries in (workload.smoke if smoke else workload.full).items():
        cfg.setdefault(section, {}).update(entries)
    cfg["sim"]["master_seed"] = str(master_seed)
    cfg.setdefault("output", {})["dir"] = out_dir
    return cfg


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def analytic_outputs(result):
    """The deterministic analytic arrays of a run, by name."""
    out = {
        "times": result.sim.times,
        "analytic_mean": result.analytic_mean,
    }
    if result.scenario.name != "noncommuting":
        out["analytic_var"] = result.analytic_var
    for key in ("times", "first", "second", "exact"):
        if key in result.closure:
            out[f"closure_{key}"] = result.closure[key]
    return out


def _tolerance(key, kind):
    if key.startswith("closure_") and key != "closure_exact":
        return CLOSURE_TOL
    if kind == "noncommuting" and key == "analytic_mean":
        return MAGNUS_REF_TOL
    return LAW_TOL


def check_reference(result, reference, smoke=False):
    """Failures of the analytic arrays against the recorded reference.

    A smoke run is shorter, so its arrays need only match a prefix.
    """
    failures = []
    got = analytic_outputs(result)
    if set(got) != set(reference):
        return [f"analytic outputs {sorted(got)} differ from reference {sorted(reference)}"]
    for key, ref in reference.items():
        arr = np.asarray(got[key], dtype=float)
        ref = np.asarray(ref, dtype=float)
        if smoke:
            ref = ref[: arr.shape[0]]
        if arr.size == 0 or arr.shape != ref.shape:
            failures.append(f"{key}: shape {arr.shape}, reference has {ref.shape}")
            continue
        err = float(np.max(np.abs(arr - ref)))
        tol = _tolerance(key, result.scenario.name)
        if not err <= tol:
            failures.append(f"{key} differs from the reference by {err:.3g} (> {tol:g})")
    return failures


def pathwise_gap(result, scenario_mod):
    """max over completed paths of |F_T - law(X_T - X_0)|."""
    law = scenario_mod.scenario_law(result.scenario)
    dx = result.sim.terminal_x - result.sim.initial_x
    return float(np.max(np.abs(result.sim.fidelities[:, -1] - law.series.evaluate(dx))))


def magnus_gap(result):
    """max |MC mean - Magnus mean| over the window check_run trusts.

    Unlike check_run, times whose MC stderr is 0 count too, so a run
    whose paths carry no noise cannot drop out of the check.
    """
    s = result.sim.summary
    trusted = s.times <= TRUSTED_ALPHA_TIMES / result.scenario.alpha
    ok = np.isfinite(result.analytic_mean) & trusted
    return float(np.max(np.abs(s.mean_f[ok] - result.analytic_mean[ok]), initial=0.0))


def verify(result, reference, scenario_mod, smoke=False):
    """(gap, failures) of one run: the workload's own identity and the
    analytic arrays against the reference."""
    failures = check_reference(result, reference, smoke)
    if result.scenario.name == "noncommuting":
        gap = magnus_gap(result)
        if not gap <= MAGNUS_GAP_TOL:
            failures.append(f"MC - Magnus mean gap {gap:.3g} > {MAGNUS_GAP_TOL}")
    else:
        gap = pathwise_gap(result, scenario_mod)
        if not gap <= PATHWISE_TOL:
            failures.append(f"pathwise gap {gap:.3g} > {PATHWISE_TOL}")
    return gap, failures
