"""Scenario resolution and the figure-style run pipeline.

A scenario bundles a noise model, operators, an initial state, and a
simulation config, and names one of six kinds:

  pauli, projection, twoqubit  commuting cases with exact series laws
  noncommuting                 Magnus mean fidelity, no closed variance
  approx-order                 pauli case plus the closure-ODE curves
  distribution                 commuting case that also dumps terminal
                               fidelity samples at chosen time slices

Every commuting kind takes its law from one place, `laws.spectral_law`
of the noise operator S and the state: a cosine series whose
frequencies are the eigenvalue gaps of S.  The kinds differ only in
which S they accept and in what they compute from the law.

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
from dataclasses import dataclass, field, replace

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


class ConfigError(ValueError):
    """Anything wrong with a scenario config (unknown key, bad value)."""


@dataclass(frozen=True)
class Scenario:
    name: str
    label: str
    model: noise_mod.NoiseModel
    state: np.ndarray
    sim: sde_mod.SimConfig
    out_dir: str
    noise_spec: str = "X"
    h_spec: str = "none"
    alpha: float = 1.0
    t_slices: tuple = ()
    scan_T: float = 0.0
    raw: dict = None
    resolve_s: float = 0.0    # seconds resolve took; goes to timings.json
    ops: tuple = field(default=None, compare=False, repr=False)  # (H, S), see _build_ops

    def hamiltonian(self):
        return self.ops[0]

    def noise_operator(self):
        """S; for twoqubit runs the collective Q (x) I + I (x) Q of base_op Q."""
        return self.ops[1]


def _build_ops(kind, noise_spec, h_spec, alpha, d):
    """(H, S) from the specs, built once per run by `resolve`."""
    H = np.zeros((d, d), dtype=complex)
    if h_spec != "none":
        H = alpha * qstate.build_operator(_parse_op_spec(h_spec))
    if kind == "twoqubit":
        noise_spec = ("sum", ("tensor", noise_spec, "I"), ("tensor", "I", noise_spec))
    return H, qstate.build_operator(noise_spec)


def _parse_op_spec(text):
    if text.startswith("control:"):
        parts = text[len("control:"):].split(",")
        if len(parts) != 3:
            raise ConfigError("control spec needs omega,phase,delta")
        return ("control",) + tuple(float(p) for p in parts)
    return text


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
        scan_T = float(_get(cfg, "output", "scan_t", "0"))
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
        # an infinite alpha makes inf * 0 entries here; _validate rejects it
        with np.errstate(invalid="ignore"):
            ops = _build_ops(kind, op_spec, h_spec, alpha, state.shape[0])
    except ValueError as exc:  # an unknown operator name or a bad control number
        raise ConfigError(str(exc)) from exc

    scn = Scenario(
        name=kind,
        label=label,
        model=model,
        state=state,
        sim=sim,
        out_dir=_get(cfg, "output", "dir", f"runs/{label}"),
        noise_spec=op_spec,
        h_spec=h_spec,
        alpha=alpha,
        t_slices=slices,
        scan_T=scan_T,
        raw=cfg,
        ops=ops,
    )
    _validate(scn)
    _check_out_dir(scn.out_dir)
    _check_budget(scn)
    _check_step_map(scn)
    return replace(scn, resolve_s=time.perf_counter() - start)


def _op_class(op):
    """'pauli' if op^2 = I, 'projection' if op^2 = op, else None."""
    sq = op @ op
    eye = np.eye(op.shape[0])
    if np.allclose(sq, eye, atol=1e-12):
        return "pauli"
    if np.allclose(sq, op, atol=1e-12):
        return "projection"
    return None


def _validate(scn):
    # approx-order runs scan the closures to scan_t, or to t when scan_t is 0
    scan = scn.scan_T or (scn.sim.T if scn.name == "approx-order" else 0.0)
    ratio = scan / approx_mod.DEFAULT_DT
    if not 0 <= scan < math.inf or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise ConfigError(
            f"the closure scan length must be a non-negative multiple of "
            f"{approx_mod.DEFAULT_DT:g}, got {scan!r}"
        )
    if not math.isfinite(scn.alpha):
        raise ConfigError(f"alpha must be finite, got {scn.alpha!r}")
    if scn.name == "noncommuting":
        if scn.h_spec not in ("X", "Y", "Z") or scn.noise_spec not in ("X", "Y", "Z"):
            raise ConfigError("noncommuting scenarios need single Pauli axes")
        if scn.h_spec == scn.noise_spec:
            raise ConfigError("drive and noise axes must differ")
        if scn.state.shape[0] != 2 or not scn.alpha > 0:
            raise ConfigError("noncommuting scenarios are single-qubit, with alpha > 0")
        return
    s_op, h = scn.noise_operator(), scn.hamiltonian()
    d = scn.state.shape[0]
    if s_op.shape != (d, d) or h.shape != (d, d) or not np.isfinite(h).all():
        raise ConfigError(f"the operators must be finite and act on the {d}-dim state")
    if scn.name != "twoqubit":
        klass = _op_class(s_op)
        expected = {
            "pauli": "pauli",
            "projection": "projection",
            "approx-order": "pauli",
        }.get(scn.name, klass)
        if klass is None or klass != expected:
            raise ConfigError(
                f"noise_op {scn.noise_spec!r} does not match kind {scn.name!r}"
            )
    if np.abs(qstate.commutator(h, s_op)).max() > 1e-12:
        raise ConfigError("hamiltonian must commute with the noise operator")
    if scn.name == "distribution" and not scn.t_slices:
        raise ConfigError("distribution scenarios need t_slices")
    for t in scn.t_slices:
        if _slot_for(scn, t) is None:
            raise ConfigError(f"t_slice {t} is not on the recording grid")


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
    """Reject a run that asks for more work than the MAX_* ceilings."""
    sim = scn.sim
    n_steps = sim.n_steps
    n_rec = n_steps // sim.record_every + 1
    scan_steps = 0
    if scn.name == "approx-order":
        scan_steps = round((scn.scan_T or sim.T) / approx_mod.DEFAULT_DT)
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
        M, (ax, an) = sde_mod._step_map(
            scn.hamiltonian(), scn.noise_operator(), scn.model,
            scn.sim.scheme, scn.sim.dt,
        )
        finite = np.isfinite(M).all() and math.isfinite(ax) and math.isfinite(an)
    g, k, a, dt = scn.model.gamma, scn.model.k, scn.alpha, scn.sim.dt
    if not finite:
        raise ConfigError(f"gamma = {g:g}, k = {k:g} or the drive (alpha = {a:g}) "
                          f"overflow the SDE step at dt = {dt:g}")
    if abs(ax) > 1:
        raise ConfigError(f"k*dt = {k * dt:g} > 2 makes the OU step unstable: it scales "
                          f"X by {ax:g} per step (k = {k:g}, dt = {dt:g})")


def scenario_law(scn):
    """The exact fidelity law of a commuting scenario, as a ScenarioLaw.

    s0 is <S>, or sqrt(<S>) for a projection: the amplitude on its
    S = 1 eigenspace, the parameter `laws.projection_law` takes.
    """
    s_op = scn.noise_operator()
    s0 = qstate.expect_value(s_op, scn.state).real
    if _op_class(s_op) == "projection":
        s0 = math.sqrt(max(s0, 0.0))
    return laws_mod.ScenarioLaw(laws_mod.spectral_law(s_op, scn.state), s0)


def analytic_series(scn, times):
    """(mean, variance, diagnostics) at the given times; variance nan when
    no closed form exists (noncommuting), whose diagnostics hold the Magnus
    eps^2 = gamma^2/alpha (a warning when it is not small) and, under OU
    noise, how many means left [0, 1]."""
    times = np.asarray(times, dtype=float)
    if scn.name == "noncommuting":
        eps_sq = scn.model.gamma**2 / scn.alpha
        if eps_sq >= magnus_mod.EPS_SQ_WARN:
            warnings.warn(f"eps^2 = gamma^2/alpha = {eps_sq:.3g} is not small; "
                          "the Magnus mean is a weak-noise expansion", stacklevel=2)
        diagnostics = {"epsilon_sq": eps_sq}
        args = (scn.hamiltonian(), scn.noise_operator(), scn.model, scn.state)
        if scn.model.kind == noise_mod.WHITE:
            mean = magnus_mod.wn_mean_fidelity(*args, times)
        else:
            approx = [magnus_mod.ou_second_order_mean(*args, t) for t in times]
            mean = np.array([a.value for a in approx])
            diagnostics["magnus_out_of_range"] = sum(not a.in_range for a in approx)
        return mean, np.full(times.shape, np.nan), diagnostics
    mean, var = laws_mod.series_mean_variance(scenario_law(scn).series, scn.model, times)
    return mean, var, {}


@dataclass
class RunResult:
    scenario: Scenario
    sim: sde_mod.SimulationResult
    analytic_mean: np.ndarray
    analytic_var: np.ndarray
    slice_samples: dict       # t -> (mc samples, law samples)
    closure: dict             # {} or {"times", "first", "second", "exact"}
    check_failures: tuple = ()  # check_run's failures, also in run.json
    files: tuple = ()


def _law_sample_stream(seed, idx):
    key = np.array([seed & (2**64 - 1), 2**63 + idx], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_scenario(scn):
    """Simulate, attach analytics, check them, and write all artifacts (one writer).

    The wall time of each stage goes to timings.json, not run.json, so
    run.json depends only on the config and the seed.
    """
    clock = time.perf_counter
    marks = [clock()]
    sim_result = sde_mod.simulate_paths(
        scn.hamiltonian(), scn.noise_operator(), scn.model, scn.state, scn.sim)
    marks.append(clock())
    times = sim_result.times
    mean, var, diagnostics = analytic_series(scn, times)

    slice_samples = {}
    if scn.name == "distribution":
        law = scenario_law(scn)
        for i, t in enumerate(scn.t_slices):
            slot = _slot_for(scn, t)
            stream = _law_sample_stream(scn.sim.master_seed, i)
            law_samples = laws_mod.sample_distribution(
                law.series, scn.model, t, scn.sim.n_paths, stream
            )
            slice_samples[t] = (sim_result.fidelities[:, slot], law_samples)
    marks.append(clock())

    closure = {}
    if scn.name == "approx-order":
        law = scenario_law(scn)
        scan_T = scn.scan_T or scn.sim.T
        first = approx_mod.integrate_closure(
            approx_mod.first_order_system(scn.model.gamma, scn.model.k, abs(law.s0)),
            scan_T,
        )
        second = approx_mod.integrate_closure(
            approx_mod.second_order_system(scn.model.gamma, scn.model.k, abs(law.s0)),
            scan_T,
        )
        stride = max(1, int(round(0.05 / approx_mod.DEFAULT_DT)))
        ctimes = first.times[::stride]
        closure = {
            "times": ctimes,
            "first": first.fidelity[::stride],
            "second": second.fidelity[::stride],
            "exact": laws_mod.series_mean_variance(law.series, scn.model, ctimes)[0],
        }
        diagnostics["closure_imag_residue"] = {
            "first_order": first.imag_residue, "second_order": second.imag_residue}
    marks.append(clock())

    result = RunResult(
        scenario=scn,
        sim=sim_result,
        analytic_mean=mean,
        analytic_var=var,
        slice_samples=slice_samples,
        closure=closure,
    )
    result.check_failures = tuple(check_run(result))
    marks.append(clock())
    files = _write_artifacts(result, diagnostics)
    marks.append(clock())
    seconds = dict(zip(("simulate", "analytic", "closure", "check", "write"),
                       np.diff(marks).tolist()), resolve=scn.resolve_s)
    result.files = files + (
        _write_json(os.path.join(scn.out_dir, "timings.json"), {"seconds": seconds}),)
    return result


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
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return path


def _write_artifacts(result, diagnostics):
    scn, s = result.scenario, result.sim.summary
    os.makedirs(scn.out_dir, exist_ok=True)
    files = [_write_csv(
        os.path.join(scn.out_dir, "summary.csv"),
        "t,analytic_mean,analytic_var,mc_mean,mc_stderr,mc_var",
        (s.times, result.analytic_mean, result.analytic_var, s.mean_f, s.stderr_f, s.var_f),
    )]
    for t, (mc, law) in sorted(result.slice_samples.items()):
        files.append(_write_csv(
            os.path.join(scn.out_dir, f"distribution_t{t:g}.csv"), "mc_F,law_F", (mc, law)))
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
            # commute), "dense" when it stepped more (sde.SimulationResult)
            "sde_kernel": result.sim.kernel,
            **diagnostics,
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
    """Figure-level sanity thresholds; list of failure strings (empty = ok)."""
    failures = []
    scn = result.scenario
    s = result.sim.summary
    ok = np.isfinite(result.analytic_mean) & np.isfinite(s.stderr_f) & (s.stderr_f > 0)
    if scn.name == "noncommuting":
        window = ok & (s.times <= 5.0 / scn.alpha)
        gap = np.abs(s.mean_f[window] - result.analytic_mean[window])
        if gap.size and gap.max() > 0.02:
            failures.append(
                f"MC mean deviates from the Magnus mean by {gap.max():.3g} "
                "(> 0.02) within the trusted window"
            )
    elif ok.any():
        dev = np.abs(s.mean_f[ok] - result.analytic_mean[ok]) / s.stderr_f[ok]
        frac = float((dev > 3.0).mean())
        if frac > 0.01:
            failures.append(
                f"{frac:.1%} of recorded times sit more than 3 stderr from "
                "the analytic mean (budget 1%)"
            )
    for t, (mc, law) in sorted(result.slice_samples.items()):
        ks = stats_mod.ks_distance(
            stats_mod.SampleSet(values=mc), stats_mod.SampleSet(values=law)
        )
        if ks > 0.05:
            failures.append(f"KS distance {ks:.3f} > 0.05 at t={t:g}")
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
