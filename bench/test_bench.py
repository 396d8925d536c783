"""Tests of the benchmark itself: span arithmetic, the checks, smoke runs.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import run
import tracer as tracer_mod
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def span(name, start, end, parent=-1):
    return tracer_mod.Span(name, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("a.inner", 1.5, 2.5, parent=1),  # inside a, not a direct child of root
        span("b", 4.0, 5.0, parent=0),
    ]
    assert tracer_mod.self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_tracer_records_nested_spans_and_restores():
    mod = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod.leaf, mod.outer = leaf, outer
    tr = tracer_mod.Tracer([
        (mod, "outer", "fake.outer", lambda r, a, k: {"result": r}),
        (mod, "leaf", "fake.leaf", None),
        (mod, "absent", "fake.absent", None),
    ])
    tr.install()
    tr.run = 7
    assert mod.outer(1) == 4
    tr.uninstall()
    assert mod.outer is outer and mod.leaf is leaf
    assert tr.missing == ["fake.absent"]
    spans, selfs = tr.spans_of_run(7)
    assert [s.name for s in spans] == ["fake.outer", "fake.leaf"]
    assert [s.parent for s in spans] == [-1, 0]
    assert spans[0].attrs == {"result": 4}
    outer_s = spans[0].end - spans[0].start
    leaf_s = spans[1].end - spans[1].start
    assert selfs[0] == pytest.approx(outer_s - leaf_s)
    assert selfs[1] == pytest.approx(leaf_s)
    assert tr.spans_of_run(8) == ([], [])


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert sum(1 for i in range(40) if i > value) == 10


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    prog = run.load_program()
    workload = wl.WORKLOADS["mc_narrow"]
    out = str(tmp_path_factory.mktemp("artifacts"))
    scn = prog.scenario.resolve(wl.make_config(workload, 3, out, smoke=True))
    return prog, prog.scenario.run_scenario(scn)


def test_verification_passes_a_good_run(smoke_result):
    prog, result = smoke_result
    reference = wl.load_reference()["mc_narrow"]
    gap, failures = wl.verify(result, reference, prog.scenario, smoke=True)
    assert failures == []
    assert 0 < gap < wl.PATHWISE_TOL


def test_verification_catches_a_wrong_fidelity(smoke_result):
    prog, result = smoke_result
    reference = wl.load_reference()["mc_narrow"]
    saved = result.sim.fidelities.copy()
    try:
        result.sim.fidelities[0, -1] = 1.0 - result.sim.fidelities[0, -1]
        _, failures = wl.verify(result, reference, prog.scenario, smoke=True)
    finally:
        result.sim.fidelities[...] = saved
    assert any("pathwise gap" in f for f in failures)


def test_verification_catches_a_wrong_analytic_series(smoke_result):
    prog, result = smoke_result
    reference = wl.load_reference()["mc_narrow"]
    saved = result.analytic_var.copy()
    try:
        result.analytic_var[-1] += 1e-9
        _, failures = wl.verify(result, reference, prog.scenario, smoke=True)
    finally:
        result.analytic_var[...] = saved
    assert len(failures) == 1 and failures[0].startswith("analytic_var differs")


def reference_result(name):
    """A stand-in run whose analytic arrays are the full-size reference."""
    ref = {k: np.array(v) for k, v in wl.load_reference()[name].items()}
    closure = {k[len("closure_"):]: v for k, v in ref.items() if k.startswith("closure_")}
    return types.SimpleNamespace(
        scenario=types.SimpleNamespace(name=wl.WORKLOADS[name].cfg["scenario"]["kind"]),
        sim=types.SimpleNamespace(times=ref["times"]),
        analytic_mean=ref["analytic_mean"],
        analytic_var=ref.get("analytic_var"),
        closure=closure,
    )


def test_reference_check_rejects_a_truncated_array():
    reference = wl.load_reference()["closure_scan"]
    result = reference_result("closure_scan")
    assert wl.check_reference(result, reference) == []
    result.closure["first"] = result.closure["first"][:10]
    failures = wl.check_reference(result, reference)
    assert len(failures) == 1 and failures[0].startswith("closure_first: shape")
    # a smoke run is shorter, so there a matching prefix passes
    assert wl.check_reference(result, reference, smoke=True) == []


@pytest.fixture(scope="module")
def noncommuting_result(tmp_path_factory):
    prog = run.load_program()
    workload = wl.WORKLOADS["noncommuting_ou"]
    out = str(tmp_path_factory.mktemp("artifacts"))
    scn = prog.scenario.resolve(wl.make_config(workload, 5, out))
    return prog, prog.scenario.run_scenario(scn)


def test_magnus_check_passes_a_full_size_run(noncommuting_result):
    prog, result = noncommuting_result
    gap, failures = wl.verify(result, wl.load_reference()["noncommuting_ou"], prog.scenario)
    assert failures == []
    assert 0 < gap <= wl.MAGNUS_GAP_TOL


@pytest.mark.parametrize("stderr", ["kept", "zero"])
def test_magnus_check_catches_a_run_without_noise(noncommuting_result, stderr):
    prog, result = noncommuting_result
    summary = result.sim.summary
    saved = summary.mean_f.copy(), summary.stderr_f.copy()
    try:
        summary.mean_f[...] = 1.0      # every path kept its fidelity
        if stderr == "zero":
            summary.stderr_f[...] = 0.0
        _, failures = wl.verify(result, wl.load_reference()["noncommuting_ou"], prog.scenario)
    finally:
        summary.mean_f[...], summary.stderr_f[...] = saved
    assert len(failures) == 1 and failures[0].startswith("MC - Magnus mean gap")


def test_magnus_gap_uses_the_trusted_window():
    times = np.array([0.0, 1.0, 6.0])
    result = types.SimpleNamespace(
        scenario=types.SimpleNamespace(alpha=1.0),
        analytic_mean=np.array([1.0, 0.9, 0.5]),
        sim=types.SimpleNamespace(summary=types.SimpleNamespace(
            times=times,
            mean_f=np.array([1.0, 0.93, 0.9]),
            stderr_f=np.array([0.0, 0.01, 0.01]),
        )),
    )
    assert wl.magnus_gap(result) == pytest.approx(0.03)


def bench_cmd(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_a_verified_result(workload, trace):
    proc = bench_cmd(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 2)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["dominant_match"]["value"] == 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench_cmd("mc_narrow", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
