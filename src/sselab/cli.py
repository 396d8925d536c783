"""Command line entry point.

    sselab run <config.ini|preset> [--seed N] [--paths N] [--check] [--out DIR]
    sselab presets

Exit codes: 0 success, 1 config error, 2 run failure or --check breach.
Every run records its check outcome in run.json; --check turns a breach
into exit code 2.
Results depend only on the config and the seed: each Monte-Carlo path
draws from its own random stream.
"""

import argparse
import configparser
import os
import sys

from . import scenario as scenario_mod
from . import sde as sde_mod


def _load_config_file(path):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeError, configparser.Error) as exc:
        raise scenario_mod.ConfigError(f"cannot read config {path}: {exc}") from exc
    return {section: dict(parser[section]) for section in parser.sections()}


def _resolve_target(target):
    if target in scenario_mod.PRESETS:
        cfg = {
            section: dict(entries)
            for section, entries in scenario_mod.PRESETS[target].items()
        }
        return cfg, target
    if os.path.exists(target):
        label = os.path.splitext(os.path.basename(target))[0]
        return _load_config_file(target), label
    raise scenario_mod.ConfigError(
        f"{target!r} is neither a preset ({', '.join(sorted(scenario_mod.PRESETS))}) "
        "nor a config file"
    )


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg.setdefault("sim", {})["master_seed"] = str(args.seed)
    if args.paths is not None:
        cfg.setdefault("sim", {})["n_paths"] = str(args.paths)
    if args.out is not None:
        cfg.setdefault("output", {})["dir"] = args.out
    return cfg


def cmd_run(args):
    try:
        cfg, label = _resolve_target(args.target)
        cfg = _apply_overrides(cfg, args)
        scn = scenario_mod.resolve(cfg, label=label)
    except scenario_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        result = scenario_mod.run_scenario(scn)
    except (sde_mod.PathAbortError, sde_mod.FidelityRangeError, MemoryError,
            OSError) as exc:  # OSError: the artifact writer could not write
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    for path in result.files:
        print(path)
    n_ab = len(result.sim.aborted)
    if n_ab:
        print(f"note: {n_ab} path(s) aborted and were excluded", file=sys.stderr)
    if args.check:
        if result.check_failures:
            for f in result.check_failures:
                print(f"check failed: {f}", file=sys.stderr)
            return 2
        print("checks passed")
    return 0


def cmd_presets(_args):
    for name in sorted(scenario_mod.PRESETS):
        cfg = scenario_mod.PRESETS[name]
        scn_keys = cfg["scenario"]
        noise = cfg["noise"]
        sim = cfg["sim"]
        bits = [f"kind={scn_keys['kind']}", f"state={scn_keys.get('state', '0')}"]
        for key in ("noise_op", "base_op", "hamiltonian"):
            if key in scn_keys:
                bits.append(f"{key}={scn_keys[key]}")
        bits.append(
            f"noise={noise['kind']}(gamma={noise['gamma']}"
            + (f", k={noise['k']}" if "k" in noise else "")
            + (f", {noise['init']}" if "init" in noise else "")
            + ")"
        )
        bits.append(
            f"paths={sim['n_paths']} T={sim['t']} dt={sim['dt']} "
            f"seed={sim['master_seed']}"
        )
        print(f"{name:7s} " + "  ".join(bits))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sselab",
        description="Qubit fidelity under stochastic Hamiltonian noise: "
        "exact laws with a Monte-Carlo cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config or preset")
    run_p.add_argument("target", help="preset name or path to an INI config")
    run_p.add_argument("--seed", type=int, default=None, help="override master seed")
    run_p.add_argument("--paths", type=int, default=None, help="override path count")
    run_p.add_argument("--check", action="store_true", help="verify figure-level thresholds")
    run_p.add_argument("--out", default=None, help="override output directory")
    run_p.set_defaults(func=cmd_run)

    presets_p = sub.add_parser("presets", help="list the figure presets")
    presets_p.set_defaults(func=cmd_presets)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
