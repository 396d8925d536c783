"""Scenario resolution and the figure-style run pipeline.

A scenario bundles a noise model, operators, an initial state, and a
simulation config.  `resolve` builds H and S once, from named operators
(I, X, Y, Z, P1) or, for H, a `control:omega,phase,delta` drive, and
they select the law: when [H, S] = 0 it keeps as `Scenario.law` the
exact law, `laws.spectral_law` of S and the state, a cosine series
whose frequencies are the eigenvalue gaps of S; otherwise `law` is None
and the run takes the Magnus mean, with no closed variance.  The kind
selects the outputs only, and names one of six:

  pauli, projection, noncommuting  the summary alone
  twoqubit      the summary, with S the collective Q (x) I + I (x) Q
  approx-order  plus the closure-ODE curves (S^2 = I, [H, S] = 0)
  distribution  plus the MC fidelities at chosen time slices, checked
                against the exact law's CDF ([H, S] = 0)

Configs are flat string sections (the CLI reads them from INI files);
presets are the same shape, one per reference figure.  Running a
scenario writes summary.csv, optional distribution/closure CSVs,
run.json (what reproduces the run, the run's path and approximation
diagnostics, and the outcome of `check_run`) and timings.json (the wall
time of each stage, which differs from run to run).
"""

import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import approx as approx_mod
from . import laws as laws_mod
from . import magnus as magnus_mod
from . import noise as noise_mod
from . import sde as sde_mod
from . import stats as stats_mod
from . import qstate

KINDS = (
    "pauli", "projection", "twoqubit", "noncommuting",
    "approx-order", "distribution",
)

_SQ2 = 1.0 / math.sqrt(2.0)
NAMED_STATES = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (_SQ2, _SQ2),
    "-": (_SQ2, -_SQ2),
    "00": (1.0, 0.0, 0.0, 0.0),
    "ghz": (_SQ2, 0.0, 0.0, _SQ2),
}

_ALLOWED_KEYS = {
    "scenario": {"kind", "state", "noise_op", "base_op", "hamiltonian", "alpha"},
    "noise": {"kind", "gamma", "k", "init"},
    "sim": {
        "dt", "t", "scheme", "renormalize", "n_paths", "master_seed",
        "record_every",
    },
    "output": {"dir", "t_slices", "scan_t"},
}
# Keys that only some kinds read; setting one for another kind is an error,
# not a value silently ignored.
_KIND_KEYS = {
    ("scenario", "noise_op"): set(KINDS) - {"twoqubit"},
    ("scenario", "base_op"): {"twoqubit"},
    ("output", "t_slices"): {"distribution"},
    ("output", "scan_t"): {"approx-order"},
}


# Ceilings on the work one run may request, checked at resolve before any
# compute.  The largest preset, fig7b, asks for 1e8 path-steps (about 15 s
# at 150 ns each) and fig4 for 2e5 recorded fidelities; fig3 scans the
# closures for 1.5e5 steps.  A config above a ceiling would run for many
# minutes or fail to allocate its arrays.
MAX_PATH_STEPS = 10**9        # n_paths x n_steps
MAX_RECORDED = 10**7          # n_paths x recorded times: 8 bytes each
MAX_CLOSURE_STEPS = 10**6     # RK4 steps of each closure scan
ROUNDOFF_FLOOR = 1e-12        # gaps below this never fail check_run's mean gate
LAW_QUANTILES = 2**14         # normal quantiles of Delta X a slice's reference is taken at
KS_ALPHA = 0.01               # check_run's family-wise false-alarm rate over a run's slices
SLICE_FILE = "distribution_t{:g}.csv"  # %g keeps 6 digits, so _validate rejects slices it merges


class ConfigError(ValueError):
    """Anything wrong with a scenario config (unknown key, bad value)."""


@dataclass(frozen=True)
class Scenario:
    """What `resolve` decided, once per run: H and S, and law, their exact
    law when max|[H, S]| <= 1e-12 or None when the run takes the Magnus
    mean.  scan_T is the closure scan length: scan_t, or t for an
    approx-order run whose scan_t is 0, and 0 for the other kinds."""
    name: str
    label: str
    model: noise_mod.NoiseModel
    state: np.ndarray
    sim: sde_mod.SimConfig
    out_dir: str
    H: np.ndarray
    S: np.ndarray             # for twoqubit runs the collective Q (x) I + I (x) Q of base_op Q
    law: laws_mod.ScenarioLaw = None
    alpha: float = 1.0
    t_slices: tuple = ()
    scan_T: float = 0.0
    raw: dict = None
    resolve_s: float = 0.0    # seconds resolve took; goes to timings.json


def _build_ops(kind, op_name, h_spec, alpha, d):
    """(H, S) from the config: H is alpha times a named operator or a
    `control:omega,phase,delta` drive (or zero for "none"), S the named
    operator, or for twoqubit runs its collective Q (x) I + I (x) Q."""
    H = np.zeros((d, d), dtype=complex)
    if h_spec.startswith("control:"):
        parts = h_spec[len("control:"):].split(",")
        if len(parts) != 3:
            raise ConfigError("control spec needs omega,phase,delta")
        H = alpha * qstate.control_hamiltonian(*map(float, parts))
    elif h_spec != "none":
        H = alpha * qstate.named_operator(h_spec)
    S = qstate.named_operator(op_name)
    if kind == "twoqubit":
        S = np.kron(S, qstate.IDENTITY_2) + np.kron(qstate.IDENTITY_2, S)
    return H, S


def parse_state(text):
    text = text.strip().lower()
    if text in NAMED_STATES:
        return qstate.as_state(NAMED_STATES[text])
    try:
        amps = [complex(p.strip().replace(" ", "")) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse state {text!r}") from exc
    return qstate.as_state(amps)


def _get(cfg, section, key, default=None):
    val = cfg.get(section, {}).get(key)
    return default if val is None else val


def resolve(cfg, label="custom"):
    """Turn a {section: {key: value-string}} mapping into a Scenario."""
    start = time.perf_counter()
    for section, entries in cfg.items():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        bad = set(entries) - _ALLOWED_KEYS[section]
        if bad:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(bad))}"
            )
    kind = _get(cfg, "scenario", "kind")
    if kind not in KINDS:
        raise ConfigError(f"scenario kind must be one of {KINDS}, got {kind!r}")
    for (section, key), kinds in _KIND_KEYS.items():
        if key in cfg.get(section, {}) and kind not in kinds:
            raise ConfigError(f"[{section}] {key} is not read by {kind!r} scenarios")

    try:
        model = noise_mod.NoiseModel(
            kind=_get(cfg, "noise", "kind", "ou"),
            gamma=float(_get(cfg, "noise", "gamma", "0.1")),
            k=float(_get(cfg, "noise", "k", "0.0")),
            init=_get(cfg, "noise", "init", noise_mod.CALIBRATED),
        )
        renorm = _get(cfg, "sim", "renormalize", "true").strip().lower()
        if renorm not in ("true", "false", "1", "0", "yes", "no"):
            raise ConfigError(f"bad boolean {renorm!r} for renormalize")
        sim = sde_mod.SimConfig(
            dt=float(_get(cfg, "sim", "dt", "0.001")),
            T=float(_get(cfg, "sim", "t", "1.0")),
            scheme=_get(cfg, "sim", "scheme", sde_mod.PLATEN_WEAK2),
            renormalize=renorm in ("true", "1", "yes"),
            n_paths=int(_get(cfg, "sim", "n_paths", "100")),
            master_seed=int(_get(cfg, "sim", "master_seed", "0")),
            record_every=int(_get(cfg, "sim", "record_every", "1")),
        )
        state = parse_state(_get(cfg, "scenario", "state", "0"))
        alpha = float(_get(cfg, "scenario", "alpha", "1.0"))
        slices = tuple(
            float(p)
            for p in _get(cfg, "output", "t_slices", "").split(",")
            if p.strip()
        )
        # approx-order runs scan the closures to scan_t, or to t when scan_t is 0
        scan_T = float(_get(cfg, "output", "scan_t", "0")) or (
            sim.T if kind == "approx-order" else 0.0)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    if kind == "twoqubit":
        op_spec = _get(cfg, "scenario", "base_op", "X")
        if state.shape[0] != 4:
            raise ConfigError("twoqubit scenarios need a two-qubit state")
    else:
        op_spec = _get(cfg, "scenario", "noise_op", "X")
    h_spec = _get(cfg, "scenario", "hamiltonian", "none")
    try:
        # an infinite alpha makes inf * 0 entries here; _check_operators rejects it
        with np.errstate(invalid="ignore"):
            H, S = _build_ops(kind, op_spec, h_spec, alpha, state.shape[0])
    except ValueError as exc:  # an unknown operator name or a bad control number
        raise ConfigError(str(exc)) from exc

    scn = Scenario(
        name=kind,
        label=label,
        model=model,
        state=state,
        sim=sim,
        out_dir=_get(cfg, "output", "dir", f"runs/{label}"),
        H=H,
        S=S,
        alpha=alpha,
        t_slices=slices,
        scan_T=scan_T,
        raw=cfg,
    )
    _check_operators(scn)
    if np.abs(qstate.commutator(H, S)).max() <= 1e-12:
        scn = replace(scn, law=scenario_law(scn))
    _validate(scn)
    _check_out_dir(scn.out_dir)
    _check_budget(scn)
    _check_step_map(scn)
    return replace(scn, resolve_s=time.perf_counter() - start)


def _check_operators(scn):
    """Reject a non-finite alpha, and H and S that are not finite d x d
    matrices on the d-dim state: what the route's commutator needs."""
    if not math.isfinite(scn.alpha):
        raise ConfigError(f"alpha must be finite, got {scn.alpha!r}")
    d = scn.state.shape[0]
    if scn.S.shape != (d, d) or scn.H.shape != (d, d) or not np.isfinite(scn.H).all():
        raise ConfigError(f"the operators must be finite and act on the {d}-dim state")


def _validate(scn):
    d = scn.state.shape[0]
    if scn.name == "approx-order" and not np.allclose(scn.S @ scn.S, np.eye(d), atol=1e-12):
        raise ConfigError(f"approx-order scenarios need S^2 = I, not noise_op "
                          f"{_get(scn.raw, 'scenario', 'noise_op', 'X')!r}")
    if scn.name == "approx-order" and scn.model.init != noise_mod.CALIBRATED:
        raise ConfigError("approx-order needs init = calibrated: the closures assume X0 = 0")
    if scn.law is None:
        if scn.name in ("approx-order", "distribution"):
            raise ConfigError(f"{scn.name} scenarios need a hamiltonian that commutes "
                              "with the noise operator")
        # eps^2 = gamma^2/alpha and check_run's window 5/alpha divide by alpha
        if not scn.alpha > 0:
            raise ConfigError(f"a run whose H and S do not commute needs alpha > 0, "
                              f"got {scn.alpha!r}")
    if scn.name == "distribution" and not scn.t_slices:
        raise ConfigError("distribution scenarios need t_slices")
    named = {}
    for t in scn.t_slices:
        if _slot_for(scn, t) is None:
            raise ConfigError(f"t_slice {t} is not on the recording grid")
        if (other := named.setdefault(SLICE_FILE.format(t), t)) != t:
            raise ConfigError(f"t_slices {other!r} and {t!r} would both write "
                              f"{SLICE_FILE.format(t)}")


def _check_out_dir(path):
    """Reject an output directory the artifact writer could not make or
    write into; creates nothing."""
    if not path:
        raise ConfigError("the output directory must not be empty")
    ancestor = os.path.abspath(path)  # path itself when it exists
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot make output directory {path!r}: "
                          f"{ancestor!r} is not a writable directory")


def _check_budget(scn):
    """Reject a closure scan off the closure's step grid, and a run that
    asks for more work than the MAX_* ceilings."""
    ratio = scn.scan_T / approx_mod.DEFAULT_DT
    if not 0 <= scn.scan_T < math.inf or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise ConfigError(
            f"the closure scan length must be a non-negative multiple of "
            f"{approx_mod.DEFAULT_DT:g}, got {scn.scan_T!r}"
        )
    sim = scn.sim
    n_steps = sim.n_steps
    n_rec = n_steps // sim.record_every + 1
    scan_steps = round(ratio)
    for size, ceiling, what in (
        (sim.n_paths * n_steps, MAX_PATH_STEPS,
         f"n_paths x n_steps = {sim.n_paths} x {n_steps} path-steps exceed MAX_PATH_STEPS"),
        (sim.n_paths * n_rec, MAX_RECORDED,
         f"n_paths x recorded times = {sim.n_paths} x {n_rec} values exceed MAX_RECORDED"),
        (scan_steps, MAX_CLOSURE_STEPS,
         f"the closure scan's {scan_steps} RK4 steps exceed MAX_CLOSURE_STEPS"),
    ):
        if size > ceiling:
            raise ConfigError(f"{what} = {ceiling:.0e}")


def _check_step_map(scn):
    """Reject values so large that the SDE step itself overflows, and an
    OU step that amplifies the noise (|x'/x| > 1, i.e. k*dt > 2)."""
    with np.errstate(all="ignore"):
        M, (ax, an) = sde_mod._step_map(scn.H, scn.S, scn.model, scn.sim.scheme, scn.sim.dt)
        finite = np.isfinite(M).all() and math.isfinite(ax) and math.isfinite(an)
    g, k, a, dt = scn.model.gamma, scn.model.k, scn.alpha, scn.sim.dt
    if not finite:
        raise ConfigError(f"gamma = {g:g}, k = {k:g} or the drive (alpha = {a:g}) "
                          f"overflow the SDE step at dt = {dt:g}")
    if abs(ax) > 1:
        raise ConfigError(f"k*dt = {k * dt:g} > 2 makes the OU step unstable: it scales "
                          f"X by {ax:g} per step (k = {k:g}, dt = {dt:g})")


def scenario_law(scn):
    """The exact fidelity law of S on the state, as a ScenarioLaw with
    s0 = <S> (which only the approx-order closures read); `resolve` keeps
    it as scn.law when H and S commute."""
    s0 = qstate.expect_value(scn.S, scn.state).real
    return laws_mod.ScenarioLaw(laws_mod.spectral_law(scn.S, scn.state), s0)


def analytic_series(scn, times):
    """(mean, variance, diagnostics) at the given times, by [H, S]: when H
    and S commute, the exact law's mean and variance; otherwise the Magnus
    mean, from one call over all the times, and variance nan, as no closed
    form exists.  The Magnus diagnostics hold eps^2 = gamma^2/alpha (a
    warning when it is not small), the end of check_run's window and,
    under OU noise, how many means left [0, 1] (NaN counts) and the
    stationary start the mean assumes (a warning on a calibrated start)."""
    times = np.asarray(times, dtype=float)
    if scn.law is None:
        eps_sq = scn.model.gamma**2 / scn.alpha
        if eps_sq >= magnus_mod.EPS_SQ_WARN:
            warnings.warn(f"eps^2 = gamma^2/alpha = {eps_sq:.3g} is not small; "
                          "the Magnus mean is a weak-noise expansion", stacklevel=2)
        diagnostics = {"epsilon_sq": eps_sq, "check_window_end": 5.0 / scn.alpha}
        args = (scn.H, scn.S, scn.model, scn.state)
        if scn.model.kind == noise_mod.WHITE:
            mean = magnus_mod.wn_mean_fidelity(*args, times)
        else:
            mean = magnus_mod.ou_second_order_mean(*args, times).value
            diagnostics["magnus_out_of_range"] = int(np.sum(~((0 <= mean) & (mean <= 1))))
            diagnostics["magnus_assumed_start"] = noise_mod.STATIONARY
            if scn.model.init != noise_mod.STATIONARY:
                warnings.warn(f"the OU Magnus mean assumes a stationary start; this run "
                              f"starts {scn.model.init}", stacklevel=2)
        return mean, np.full(times.shape, np.nan), diagnostics
    mean, var = laws_mod.series_mean_variance(scn.law.series, scn.model, times)
    return mean, var, {}


@dataclass
class RunResult:
    scenario: Scenario
    sim: sde_mod.SimulationResult
    analytic_mean: np.ndarray
    analytic_var: np.ndarray
    slice_samples: dict       # t -> (mc samples, the exact law at LAW_QUANTILES quantiles)
    closure: dict             # {} or {"times", "first", "second", "exact"}
    diagnostics: dict         # analytic_series'; run.json adds the paths'
    check_failures: tuple = ()  # check_run's failures, also in run.json
    files: tuple = ()


def run_scenario(scn):
    """Simulate, attach analytics, check them, and write all artifacts (one writer).

    The wall time of each stage goes to timings.json, not run.json, so
    run.json depends only on the config and the seed.
    """
    clock = time.perf_counter
    marks = [clock()]
    sim_result = sde_mod.simulate_paths(scn.H, scn.S, scn.model, scn.state, scn.sim)
    marks.append(clock())
    times = sim_result.times
    mean, var, diagnostics = analytic_series(scn, times)

    slice_samples = {}
    if scn.name == "distribution":
        refs = law_references(scn.law.series, scn.model, scn.t_slices)
        slice_samples = {t: (sim_result.fidelities[:, _slot_for(scn, t)], ref)
                         for t, ref in zip(scn.t_slices, refs)}
    marks.append(clock())

    closure = {}
    if scn.name == "approx-order":
        law = scn.law
        first = approx_mod.integrate_closure(
            approx_mod.first_order_system(scn.model.gamma, scn.model.k, abs(law.s0)),
            scn.scan_T,
        )
        second = approx_mod.integrate_closure(
            approx_mod.second_order_system(scn.model.gamma, scn.model.k, abs(law.s0)),
            scn.scan_T,
        )
        stride = max(1, int(round(0.05 / approx_mod.DEFAULT_DT)))
        ctimes = first.times[::stride]
        closure = {
            "times": ctimes,
            "first": first.fidelity[::stride],
            "second": second.fidelity[::stride],
            "exact": laws_mod.series_mean_variance(law.series, scn.model, ctimes)[0],
        }
    marks.append(clock())

    result = RunResult(
        scenario=scn,
        sim=sim_result,
        analytic_mean=mean,
        analytic_var=var,
        slice_samples=slice_samples,
        closure=closure,
        diagnostics=diagnostics,
    )
    result.check_failures = tuple(check_run(result))
    marks.append(clock())
    files = _write_artifacts(result)
    marks.append(clock())
    seconds = dict(zip(("simulate", "analytic", "closure", "check", "write"),
                       np.diff(marks).tolist()), resolve=scn.resolve_s)
    result.files = files + (
        _write_json(os.path.join(scn.out_dir, "timings.json"), {"seconds": seconds}),)
    return result


def law_references(series, model, times):
    """Per time t, the law at the LAW_QUANTILES normal quantiles of Delta X ~ N(0, v(t))."""
    from statistics import NormalDist  # a cold import takes 4-5 ms; only this route pays it
    z = np.array(list(map(NormalDist().inv_cdf, (np.arange(LAW_QUANTILES) + 0.5) / LAW_QUANTILES)))
    return [series.evaluate(math.sqrt(noise_mod.increment_variance(model, t)) * z) for t in times]


def ks_bound(n, m):
    """The DKW bound (Massart's constant) on n paths' KS distance, at KS_ALPHA over m slices."""
    return math.sqrt(math.log(2 * m / KS_ALPHA) / (2 * n))


def _slot_for(scn, t):
    """Index of time t on the recording grid, or None if t is off it."""
    grid_dt = scn.sim.dt * scn.sim.record_every
    if not math.isfinite(t):
        return None
    slot = int(round(t / grid_dt))
    n_slots = scn.sim.n_steps // scn.sim.record_every
    return slot if abs(slot * grid_dt - t) <= 1e-9 and 0 <= slot <= n_slots else None


def _write_csv(path, header, columns):
    """A CSV of equal-length float columns, each value written as its repr."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    line = ",".join(["{!r}"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join(map(line.format, *cols)))
    return path


def _write_artifacts(result):
    scn, s = result.scenario, result.sim.summary
    os.makedirs(scn.out_dir, exist_ok=True)
    files = [_write_csv(
        os.path.join(scn.out_dir, "summary.csv"),
        "t,analytic_mean,analytic_var,mc_mean,mc_stderr,mc_var",
        (s.times, result.analytic_mean, result.analytic_var, s.mean_f, s.stderr_f, s.var_f),
    )]
    for t, (mc, _) in sorted(result.slice_samples.items()):
        files.append(_write_csv(
            os.path.join(scn.out_dir, SLICE_FILE.format(t)), "mc_F", (mc,)))
    closure = result.closure
    if closure:
        files.append(_write_csv(
            os.path.join(scn.out_dir, "closure.csv"), "t,first_order,second_order,exact",
            (closure["times"], closure["first"], closure["second"], closure["exact"]),
        ))

    doc = {
        "label": scn.label,
        "config": scn.raw,
        "seed": scn.sim.master_seed,
        "diagnostics": {
            "n_paths": scn.sim.n_paths,
            "n_effective": s.n_effective,
            "aborted": result.sim.aborted,
            "max_norm_drift": result.sim.max_norm_drift,
            "max_range_violation": result.sim.max_range_violation,
            # "diagonal" when the SDE stepped only shift 0 (H and S
            # commute), "dense" when it stepped more, and the amplitudes it
            # stepped per path (sde.SimulationResult)
            "sde_kernel": result.sim.kernel,
            "sde_amplitudes": result.sim.amplitudes,
            **result.diagnostics,
        },
        "check": {
            "passed": not result.check_failures,
            "failures": list(result.check_failures),
        },
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "sselab": __import__("sselab").__version__,
        },
    }
    files.append(_write_json(os.path.join(scn.out_dir, "run.json"), doc))
    return tuple(files)


def _write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def check_run(result):
    """Figure-level sanity thresholds; list of failure strings (empty = ok).

    A run whose H and S do not commute is held to its Magnus mean within
    the trusted window t <= 5/alpha (run.json's `check_window_end`); a
    commuting one to its exact law's mean, 3 stderr at each recorded time,
    and its slices to the law's CDF within `ks_bound`.  A run of fewer
    than 2 completed paths fails, as no stderr is finite and no mean gate
    could run."""
    scn, s = result.scenario, result.sim.summary
    if s.n_effective < 2:
        return [f"the mean gate needs at least 2 completed paths, this run has {s.n_effective}"]
    failures = []
    ok = np.isfinite(result.analytic_mean) & np.isfinite(s.stderr_f)
    if scn.law is None:
        window = ok & (s.times <= result.diagnostics["check_window_end"])
        gap = np.abs(s.mean_f[window] - result.analytic_mean[window])
        if gap.size and gap.max() > 0.02:
            failures.append(
                f"MC mean deviates from the Magnus mean by {gap.max():.3g} "
                "(> 0.02) within the trusted window"
            )
    elif ok.any():
        # out of band: beyond 3 stderr and beyond round-off, as paths that
        # all share one F still leave a round-off stderr in the sums
        gap = np.abs(s.mean_f[ok] - result.analytic_mean[ok])
        frac = float(((gap > 3.0 * s.stderr_f[ok]) & (gap > ROUNDOFF_FLOOR)).mean())
        if frac > 0.01:
            failures.append(
                f"{frac:.1%} of recorded times sit more than 3 stderr from "
                "the analytic mean (budget 1%)"
            )
    for t, (mc, ref) in sorted(result.slice_samples.items()):
        # to 12 decimals, so that round-off does not split an atom such as an eigenstate's F = 1
        ks = stats_mod.ks_distance(mc.round(12), ref.round(12))
        if ks > (eps := ks_bound(len(mc), len(result.slice_samples))):
            failures.append(f"KS distance {ks:.3f} to the exact law > {eps:.3f} at t={t:g}")
    return failures


PRESETS = {
    "fig3": {
        "scenario": {"kind": "approx-order", "state": "0", "noise_op": "X"},
        "noise": {"kind": "ou", "gamma": "0.2", "k": "0.1", "init": "calibrated"},
        "sim": {
            "dt": "0.001", "t": "5.0", "n_paths": "200",
            "master_seed": "101", "record_every": "10",
        },
        "output": {"dir": "runs/fig3", "scan_t": "150"},
    },
    "fig4": {
        "scenario": {"kind": "distribution", "state": "0", "noise_op": "X"},
        "noise": {"kind": "ou", "gamma": "0.2", "k": "0.1", "init": "calibrated"},
        "sim": {
            "dt": "0.001", "t": "6.0", "n_paths": "2000",
            "master_seed": "102", "record_every": "60",
        },
        "output": {"dir": "runs/fig4", "t_slices": "0.06,0.3,1.5,6.0"},
    },
    "fig5": {
        "scenario": {
            "kind": "noncommuting", "state": "0",
            "hamiltonian": "X", "noise_op": "Z", "alpha": "1.0",
        },
        "noise": {"kind": "white", "gamma": "0.4"},
        "sim": {
            "dt": "0.001", "t": "12.0", "n_paths": "1000",
            "master_seed": "103", "record_every": "10",
        },
        "output": {"dir": "runs/fig5"},
    },
    "fig6": {
        "scenario": {"kind": "projection", "state": "+", "noise_op": "P1"},
        "noise": {"kind": "ou", "gamma": "0.1", "k": "0.1", "init": "stationary"},
        "sim": {
            "dt": "0.001", "t": "60.0", "n_paths": "500",
            "master_seed": "900", "record_every": "100",
        },
        "output": {"dir": "runs/fig6"},
    },
    "fig7a": {
        "scenario": {"kind": "twoqubit", "state": "00", "base_op": "X"},
        "noise": {"kind": "ou", "gamma": "0.2", "k": "0.3", "init": "stationary"},
        "sim": {
            "dt": "0.001", "t": "30.0", "n_paths": "500",
            "master_seed": "105", "record_every": "50",
        },
        "output": {"dir": "runs/fig7a"},
    },
    "fig7b": {
        "scenario": {"kind": "twoqubit", "state": "00", "base_op": "X"},
        "noise": {"kind": "ou", "gamma": "0.2", "k": "0.01", "init": "stationary"},
        "sim": {
            "dt": "0.002", "t": "400.0", "n_paths": "500",
            "master_seed": "106", "record_every": "500",
        },
        "output": {"dir": "runs/fig7b"},
    },
}
