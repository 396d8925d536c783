"""Benchmark: the time a user waits for a verified sselab run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root; it imports the package from ./src.
One process, one client, one scenario at a time, in a closed loop:
each repetition makes the calls `sselab run --check` makes
(scenario.resolve -> scenario.run_scenario -> scenario.check_run) with
SSELAB_THREADS unset, on a master seed derived from --seed and the
repetition number, then checks the output (see workloads.verify).  A
warm-up repetition runs first; timed repetitions follow until --seconds
have passed.  Times are reported at a reference machine speed, from a
fixed kernel timed after every repetition and a fixed import timed
before every set-up sample (see calib.py); the raw wall times are
printed and recorded beside them.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics from
the spans of the traced ones, with the tracing overhead.  --smoke runs
tiny sizes for the benchmark's own tests.  The full record, spans
included, goes to .bench_out/ under the repository root.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import calib
import tracer as tracer_mod
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SEED_STRIDE = 1_000_000     # master seed of repetition r is seed * stride + r
SETUP_SAMPLES = 5
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# What a user pays before any compute: a fresh interpreter importing the
# CLI and resolving the workload's config.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sselab.cli
from sselab import scenario
scenario.resolve(json.loads(sys.argv[2]), label="bench")
print(repr(time.perf_counter() - t0))
"""

LAYERS = ("sde", "approx", "magnus", "laws", "qstate", "scenario")


class ProgramMissing(RuntimeError):
    """The checkout holds no sselab sources to benchmark."""


def load_program():
    """Import sselab from ./src of this checkout, and only from there."""
    package = os.path.join(SRC, "sselab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise ProgramMissing(f"no sselab package at {package}")
    sys.path.insert(0, SRC)
    import sselab
    from sselab import approx, laws, magnus, noise, qstate, scenario, sde

    if os.path.dirname(os.path.realpath(sselab.__file__)) != os.path.realpath(package):
        raise ProgramMissing(f"sselab was imported from {sselab.__file__}, not {package}")
    return SimpleNamespace(
        sselab=sselab, approx=approx, laws=laws, magnus=magnus, noise=noise,
        qstate=qstate, scenario=scenario, sde=sde,
    )


def trace_targets(prog):
    """(module, attribute, span name, observe) for every traced call.

    magnus imports mat_exp by name, so its alias is wrapped as well.
    """
    return (
        (prog.scenario, "resolve", "scenario.resolve", None),
        (prog.scenario, "run_scenario", "scenario.run_scenario", None),
        (prog.scenario, "check_run", "scenario.check_run", None),
        (prog.sde, "simulate_paths", "sde.simulate_paths", None),
        (prog.sde, "target_evolution", "sde.target_evolution", None),
        (prog.approx, "integrate_closure", "approx.integrate_closure",
         lambda r, a, k: {"rk4_steps": len(r.times) - 1, "imag_residue": r.imag_residue}),
        (prog.magnus, "ou_second_order_mean", "magnus.ou_second_order_mean",
         lambda r, a, k: {"in_range": bool(r.in_range)}),
        (prog.laws, "series_mean_variance", "laws.series_mean_variance", None),
        (prog.noise, "expected_cos", "noise.expected_cos", None),
        (prog.qstate, "mat_exp", "qstate.mat_exp", None),
        (prog.magnus, "mat_exp", "qstate.mat_exp", None),
    )


@dataclass
class Rep:
    number: int
    master_seed: int
    timed: bool
    traced: bool
    elapsed: float = float("nan")
    calibration: float = float("nan")   # kernel time right after the repetition
    gap: float = float("nan")
    failures: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)
    bytes_written: int = 0
    path_steps: int = 0
    n_paths: int = 0
    aborted: int = 0
    max_norm_drift: float = 0.0
    workers: int = 0


def run_once(prog, workload, rep, out_dir, smoke):
    """One verified run, timed the way a user waits for it."""
    cfg = wl.make_config(workload, rep.master_seed, out_dir, smoke)
    t0 = time.perf_counter()
    scn = prog.scenario.resolve(cfg, label=workload.name)
    result = prog.scenario.run_scenario(scn)
    check = prog.scenario.check_run(result)
    rep.elapsed = time.perf_counter() - t0
    rep.check_failures = list(check)
    rep.bytes_written = sum(os.path.getsize(p) for p in result.files)
    rep.n_paths = scn.sim.n_paths
    rep.path_steps = scn.sim.n_paths * scn.sim.n_steps
    rep.aborted = len(result.sim.aborted)
    rep.max_norm_drift = float(result.sim.max_norm_drift)
    rep.workers = prog.sde._resolve_workers(scn.sim)
    return result


def run_reps(prog, workload, seed, seconds, tracer, smoke):
    """Warm up once, then repeat until `seconds` have passed.

    With a tracer, timed repetitions alternate untraced and traced.
    """
    reference = wl.load_reference()[workload.name]
    reps = []
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="artifacts-", dir=OUT_DIR) as tmp:
        start = None
        number = 0
        while True:
            traced = tracer is not None and number % 2 == 0 and number > 0
            rep = Rep(number, seed * SEED_STRIDE + number, timed=number > 0, traced=traced)
            if traced:
                tracer.run = number
                tracer.install()
            try:
                try:
                    result = run_once(prog, workload, rep, tmp, smoke)
                finally:
                    if traced:
                        tracer.uninstall()
                rep.gap, failures = wl.verify(result, reference, prog.scenario, smoke)
                rep.failures.extend(failures)
                del result  # so the next repetition's peak memory does not include it
            except Exception as exc:  # a failed repetition is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                rep.failures.append(f"{type(exc).__name__}: {exc}")
            rep.calibration = calib.calibrate()
            for msg in rep.failures:
                print(f"rep {number} (master seed {rep.master_seed}) failed: {msg}",
                      file=sys.stderr)
            reps.append(rep)
            number += 1
            if start is None:
                start = time.perf_counter()
                continue
            both = tracer is None or number > 2
            if both and time.perf_counter() - start >= seconds:
                return reps


def fresh_interpreter_time(code, *args):
    """Seconds that `code` prints, run in a fresh interpreter from ROOT."""
    env = {k: v for k, v in os.environ.items() if k != "SSELAB_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure_setup(workload, count, smoke):
    """(set-up time, import calibration time) pairs, in seconds, each
    calibration taken right before its set-up sample."""
    cfg = json.dumps(wl.make_config(workload, 0, os.path.join(OUT_DIR, "setup"), smoke))
    samples = []
    for _ in range(count):
        calibration = fresh_interpreter_time(calib.IMPORT_CODE)
        samples.append((fresh_interpreter_time(SETUP_CODE, SRC, cfg), calibration))
    return samples


def tail(samples):
    """(value, percentile) of the highest percentile that has at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def layer_stats(tracer, run):
    """Per-span-name totals of one traced run: count, inclusive, self, attrs."""
    spans, selfs = tracer.spans_of_run(run)
    stats = {}
    for span, self_s in zip(spans, selfs):
        st = stats.setdefault(span.name, {"count": 0, "total": 0.0, "self": 0.0, "attrs": []})
        st["count"] += 1
        st["total"] += span.end - span.start
        st["self"] += self_s
        if span.attrs:
            st["attrs"].append(span.attrs)
    return stats


def _get(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def rep_layer_metrics(stats, rep):
    """The per-layer metrics of one traced repetition."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, st in stats.items():
        layer = name.split(".")[0]
        layer_self["laws" if layer == "noise" else layer] += st["self"]
    closure_attrs = stats.get("approx.integrate_closure", {}).get("attrs", [])
    magnus_attrs = stats.get("magnus.ou_second_order_mean", {}).get("attrs", [])
    rk4_steps = sum(a["rk4_steps"] for a in closure_attrs)
    closure_s = _get(stats, "approx.integrate_closure", "total")
    ou_calls = _get(stats, "magnus.ou_second_order_mean", "count")
    ou_s = _get(stats, "magnus.ou_second_order_mean", "total")
    m = {
        "sde.self_s": layer_self["sde"],
        "sde.path_steps": rep.path_steps,
        "sde.ns_per_path_step": 1e9 * layer_self["sde"] / rep.path_steps,
        "sde.target_evals": _get(stats, "sde.target_evolution", "count"),
        "approx.closure_s": closure_s,
        "approx.rk4_steps": rk4_steps,
        "approx.us_per_step": 1e6 * closure_s / rk4_steps if rk4_steps else 0.0,
        "approx.imag_residue": max((a["imag_residue"] for a in closure_attrs), default=0.0),
        "magnus.ou_mean_calls": ou_calls,
        "magnus.ou_mean_s": ou_s,
        "magnus.ms_per_point": 1e3 * ou_s / ou_calls if ou_calls else 0.0,
        "magnus.in_range_frac": (
            sum(a["in_range"] for a in magnus_attrs) / len(magnus_attrs) if magnus_attrs else 1.0
        ),
        "laws.mean_var_calls": _get(stats, "laws.series_mean_variance", "count"),
        "laws.mean_var_s": _get(stats, "laws.series_mean_variance", "total"),
        "noise.expected_cos_calls": _get(stats, "noise.expected_cos", "count"),
        "qstate.mat_exp_calls": _get(stats, "qstate.mat_exp", "count"),
        "qstate.mat_exp_s": _get(stats, "qstate.mat_exp", "total"),
        "scenario.resolve_s": _get(stats, "scenario.resolve", "total"),
        "scenario.self_s": _get(stats, "scenario.run_scenario", "self"),
        "scenario.bytes_written": rep.bytes_written,
        "scenario.check_s": _get(stats, "scenario.check_run", "total"),
    }
    return m, layer_self


PER_LAYER_UNITS = {
    "sde.self_s": "s", "sde.path_steps": "count", "sde.ns_per_path_step": "ns",
    "sde.target_evals": "count", "sde.aborted_frac": "fraction",
    "sde.max_norm_drift": "norm",
    "approx.closure_s": "s", "approx.rk4_steps": "count", "approx.us_per_step": "us",
    "approx.imag_residue": "fidelity",
    "magnus.ou_mean_calls": "count", "magnus.ou_mean_s": "s", "magnus.ms_per_point": "ms",
    "magnus.in_range_frac": "fraction",
    "laws.mean_var_calls": "count", "laws.mean_var_s": "s", "noise.expected_cos_calls": "count",
    "qstate.mat_exp_calls": "count", "qstate.mat_exp_s": "s",
    "scenario.resolve_s": "s", "scenario.self_s": "s", "scenario.bytes_written": "bytes",
    "scenario.check_s": "s", "scenario.check_failures": "count",
    "verify.pathwise_gap": "fidelity", "verify.magnus_gap": "fidelity",
    "trace.untraced_s": "s", "trace.run_s": "s", "trace.overhead_s": "s",
    "calibration_ms": "ms",
    "dominant_match": "count", "src_lines": "count",
}
END_TO_END_UNITS = {"run_s": "s", "run_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def src_lines():
    total = 0
    package = os.path.join(SRC, "sselab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def gap_metrics(workload, ok):
    """The largest verification gap over the run; 0 where it does not apply."""
    largest = max(r.gap for r in ok)
    magnus = workload.cfg["scenario"]["kind"] == "noncommuting"
    return {
        "verify.pathwise_gap": 0.0 if magnus else largest,
        "verify.magnus_gap": largest if magnus else 0.0,
    }


def per_layer_metrics(tracer, workload, reps):
    ok = [r for r in reps if not r.failures]
    traced = [r for r in ok if r.traced]
    untraced = [r for r in ok if r.timed and not r.traced]
    rows, shares = [], []
    for rep in traced:
        m, layer_self = rep_layer_metrics(layer_stats(tracer, rep.number), rep)
        rows.append(m)
        shares.append({k: v / rep.elapsed for k, v in layer_self.items()})
    # median_low reports a measured value, so counts stay whole numbers
    metrics = {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}
    share = {layer: statistics.median(s[layer] for s in shares) for layer in LAYERS}
    dominant = max(share, key=share.get)
    traced_s = statistics.median(r.elapsed for r in traced)
    untraced_s = statistics.median(r.elapsed for r in untraced)
    metrics.update({
        "sde.aborted_frac": sum(r.aborted for r in ok) / sum(r.n_paths for r in ok),
        "sde.max_norm_drift": max(r.max_norm_drift for r in ok),
        "scenario.check_failures": sum(1 for r in reps if r.check_failures),
        **gap_metrics(workload, ok),
        "trace.untraced_s": untraced_s,
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "calibration_ms": 1e3 * statistics.median(r.calibration for r in ok),
        "dominant_match": int(dominant == workload.dominant),
        "src_lines": src_lines(),
    })
    return metrics, share, dominant


def end_to_end_metrics(workload, reps, setup_samples):
    """(gated metrics at reference speed, the raw figures behind them).

    Run times are scaled by the median kernel time of the run; each
    set-up sample by the import calibration taken just before it.
    """
    ok = [r for r in reps if not r.failures]
    times = [r.elapsed for r in ok if r.timed]
    calibration = statistics.median(r.calibration for r in ok)
    tail_s, tail_pct = tail(times)
    raw = {
        "run_s": statistics.median(times),
        "run_s_tail": tail_s,
        "setup_s": statistics.median(s for s, _ in setup_samples),
    }
    scale = calib.REFERENCE_S / calibration
    metrics = {
        "run_s": raw["run_s"] * scale,
        "run_s_tail": raw["run_s_tail"] * scale,
        "setup_s": statistics.median(s * calib.REFERENCE_IMPORT_S / c for s, c in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw.update({
        "tail_percentile": tail_pct,
        "calibration_ms": 1e3 * calibration,
        "setup_calibration_s": statistics.median(c for _, c in setup_samples),
        **gap_metrics(workload, ok),
        "setup_samples": setup_samples,
    })
    return metrics, raw


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(prog, args, reps):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sselab": prog.sselab.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "SSELAB_THREADS": os.environ.get("SSELAB_THREADS"),
        "workers_resolved": sorted({r.workers for r in reps if r.workers}),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "samples": sum(1 for r in reps if r.timed and not r.traced and not r.failures),
        "traced_samples": sum(1 for r in reps if r.traced and not r.failures),
    }


def write_record(args, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return path


def span_rows(tracer):
    if not tracer.spans:
        return []
    t0 = tracer.spans[0].start
    return [
        [s.run, s.parent, s.name, s.start - t0, s.end - t0, s.attrs or None]
        for s in tracer.spans
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("SSELAB_THREADS", None)
    try:
        prog = load_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    tracer = tracer_mod.Tracer(trace_targets(prog)) if args.trace else None
    setup = [] if args.trace else measure_setup(workload, 1 if args.smoke else SETUP_SAMPLES, args.smoke)
    reps = run_reps(prog, workload, args.seed, args.seconds, tracer, args.smoke)
    failed = sum(1 for r in reps if r.failures)
    correct = failed == 0
    record = {"environment": environment(prog, args, reps)}

    raw = {}
    if correct and tracer is None:
        metrics, raw = end_to_end_metrics(workload, reps, setup)
        units = END_TO_END_UNITS
        record["raw"] = raw
    elif correct:
        metrics, share, dominant = per_layer_metrics(tracer, workload, reps)
        units = PER_LAYER_UNITS
        record["layer_share"] = share
        record["dominant_layer"] = {"measured": dominant, "predicted": workload.dominant}
        record["not_traced"] = tracer.missing
    else:
        metrics, units = {}, {}
    record["metrics"] = metrics
    record["reps"] = [vars(r) for r in reps]
    if tracer is not None:
        record["spans"] = span_rows(tracer)

    env = record["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"attempted {len(reps)}, failed {failed}, failed_frac {failed / len(reps):.4g}, "
          f"check_run failures {sum(1 for r in reps if r.check_failures)}")
    if raw:
        print(f"raw wall times: run_s = {raw['run_s']:.6g} s, "
              f"run_s_tail = {raw['run_s_tail']:.6g} s, setup_s = {raw['setup_s']:.6g} s; "
              f"calibration kernel {raw['calibration_ms']:.4g} ms "
              f"(reference {1e3 * calib.REFERENCE_S:g} ms), import calibration "
              f"{raw['setup_calibration_s']:.4g} s (reference {calib.REFERENCE_IMPORT_S:g} s)")
        print(f"run_s_tail is the p{raw['tail_percentile']:.1f} of {env['samples']} samples")
        print(f"pathwise_gap = {raw['verify.pathwise_gap']:.4g}, "
              f"magnus_gap = {raw['verify.magnus_gap']:.4g}; "
              f"setup_s is the median of {len(setup)} fresh interpreters")
    if tracer is not None and correct:
        shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in share.items())
        verdict = "as predicted" if dominant == workload.dominant else (
            f"MISMATCH: predicted {workload.dominant}")
        print(f"self-time share: {shares}; dominant {dominant} ({verdict})")
        if tracer.missing:
            print(f"not traced, attribute missing: {', '.join(tracer.missing)}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"record: {write_record(args, record)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
