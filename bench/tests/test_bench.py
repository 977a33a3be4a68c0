"""Tests of the benchmark itself: patching, failure accounting, smoke runs.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hdcoint.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _current():
    return {t: tracer.lookup(*t) for t in tracer.targets()}


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = _current()
    with tracer.Patcher() as patcher:
        tracer.install(patcher, tracer.Tracer())
        during = _current()
    assert all(during[t] is not before[t] for t in before)
    assert _current() == before

    tr = tracer.Tracer()
    job = workloads.reference_job("forecast_system", str(tmp_path))
    out = workloads.run_op(job, tr)
    assert out.completed and not out.invalid
    assert _current() == before
    assert tr.calls["harness.rolling"] == 1 and tr.calls["vecm.qr_vecm"] > 0
    assert tr.nesting_violations() == []


def test_untraced_run_installs_no_trace_wrapper(tmp_path, monkeypatch):
    before = _current()
    real_main = hdcoint.cli.main
    seen = {}

    def probe(argv):
        seen.update(_current())
        return real_main(argv)

    monkeypatch.setattr(hdcoint.cli, "main", probe)
    for workload in ("classify_panel", "forecast_sparse"):
        job = workloads.reference_job(workload, str(tmp_path))
        workloads.run_op(job)
        changed = [t for t in before if seen[t] is not before[t]]
        # the forecast report is read from run_rolling's return value
        expected = ([("hdcoint.cli", "run_rolling")]
                    if job.kind == "forecast" else [])
        assert changed == expected
        if changed:
            assert seen[changed[0]].__wrapped__ is before[changed[0]]
    monkeypatch.undo()
    assert _current() == before


def test_raising_operation_counts_as_failed_and_run_goes_on(tmp_path,
                                                             monkeypatch):
    real_main = hdcoint.cli.main
    calls = []

    def flaky(argv):
        calls.append(argv)
        if len(calls) == 1:
            raise ValueError("f(a) and f(b) must have different signs")
        return real_main(argv)

    monkeypatch.setattr(hdcoint.cli, "main", flaky)
    jobs = workloads.prepare("classify_panel", 1, 3, str(tmp_path),
                             reference=True)
    plain, cals, _, _ = run.measure(jobs, trace=False)
    assert len(plain) == 3
    first = plain[0]
    assert not first.completed and first.good == 0
    assert first.units == jobs[0].n_series
    assert first.error.startswith("ValueError: f(a) and f(b)")
    assert all(o.completed for o in plain[1:])
    assert len(cals) == 3 and all(c > 0 for c in cals)
    e2e = run.end_to_end(plain, cals, setup_s=1.0)
    assert e2e["op_s"] == statistics.median(
        o.seconds * run.CALIBRATION_REF_S / c
        for o, c in zip(plain[1:], cals[1:]))


def test_nonzero_exit_code_counts_as_failed(tmp_path):
    job = workloads.reference_job("forecast_sparse", str(tmp_path))
    job.argv[job.argv.index("--input") + 1] = str(tmp_path / "missing.csv")
    out = workloads.run_op(job)
    assert not out.completed and out.units == job.cells and out.good == 0
    assert out.error.startswith("exit 2: data error")


@pytest.mark.parametrize("workload,main_layers", [
    ("classify_panel", ("bootstrap", "unitroot", "rng")),
    ("forecast_sparse", ("singleeq",)),
    ("forecast_system", ("vecm", "factors", "harness")),
])
def test_smoke_reference_panel_matches_reference(tmp_path, workload, main_layers):
    assert run.reference_check(workload, str(tmp_path), trace=False) == []
    tr = tracer.Tracer()
    job = workloads.reference_job(workload, str(tmp_path / "t"))
    out = workloads.run_op(job, tr)
    assert out.completed and not out.invalid and out.good > 0
    with open(os.path.join(run.REFERENCE, f"{workload}.json")) as fh:
        ref = json.load(fh)
    assert workloads.compare(ref, out.decisions, tr.records["fits"]) == []
    metrics = tracer.layer_metrics(tr, calls=1)
    assert sum(metrics[f"{m}.self_share"] for m in main_layers) > 0.5
    assert tr.nesting_violations() == []


def test_layer_counts_are_per_traced_call(tmp_path):
    job = workloads.reference_job("forecast_sparse", str(tmp_path))
    once, twice = tracer.Tracer(), tracer.Tracer()
    workloads.run_op(job, once)
    workloads.run_op(job, twice)
    workloads.run_op(job, twice)
    one = tracer.layer_metrics(once, calls=1)
    two = tracer.layer_metrics(twice, calls=2)
    for name in ("singleeq.sgl_calls", "rng.substream_calls",
                 "harness.mcs_calls", "singleeq.sweeps_per_call",
                 "singleeq.kkt_max"):
        assert two[name] == one[name]
    assert two["singleeq.sgl_s"] < 1.5 * one["singleeq.sgl_s"]


def test_compare_reports_changed_decisions():
    ref = {"orders": [0, 1], "union": [[-2.0], [-1.0, -0.5]]}
    assert workloads.compare(ref, ref, None) == []
    moved = {"orders": [0, 1], "union": [[-2.0], [-1.0, -0.5 + 1e-9]]}
    assert workloads.compare(ref, moved, None)
    assert workloads.compare(ref, {"orders": [1, 1], "union": []}, None)
    fits = [{"method": "specs", "target": "s1", "lambdas": [1.0, 2.0, 2.0],
             "support": ["s2"]}]
    other = [dict(fits[0], support=[])]
    assert workloads.compare({"fits": fits}, {}, other)
    fc = {"forecasts": {"s1|1": [[1.0, None], [2.0, 3.0]]}}
    assert workloads.compare(fc, fc, None) == []
    near = {"forecasts": {"s1|1": [[1.0 + 1e-9, None], [2.0, 3.0]]}}
    assert workloads.compare(fc, near, None) == []
    zeroed = {"forecasts": {"s1|1": [[1.0, None], [2.0, 0.0]]}}
    assert workloads.compare(fc, zeroed, None)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify_panel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
