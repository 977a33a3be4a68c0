"""hdcoint benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload classify_panel --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run writes the panels of its workload (set-up), checks
the decisions on the stored reference panel, then calls
``hdcoint.cli.main`` once on each panel, one after another, with a
calibration loop timed between calls, checks every output, and prints
the metrics by name with their units.  The number of
panels is fixed by ``--seconds``: about that many seconds of calls at
the speed the benchmark was defined on (``workloads.schedule``).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (series or forecast cells) and ``metrics`` --
the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A full report goes to ``.bench_runs/``.  The exit code is
1 when an output is wrong or differs from the reference, 2 when the
checkout has no source tree.

``--write-reference`` stores the decisions on the reference panel of the
workload in ``bench/reference/`` instead of measuring.
"""

from __future__ import annotations

import os

#: BLAS threads, pinned before numpy is imported (at most ``nproc``)
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference")
SETUP_REPS = 3

#: seconds the calibration loop took at the machine speed that ``op_s``
#: is expressed in (its median over the runs the benchmark was defined
#: with, 2-core Linux, OpenBLAS on one thread)
CALIBRATION_REF_S = 0.055

#: calibration loops between two calls (a single loop time jitters by
#: about 10%).  None on classify_panel: its calls spend their time in
#: batched regressions on arrays of tens of MB, and neither this loop
#: nor a batched one tracked their time (scaled spreads came out wider
#: than unscaled ones), so its ``op_s`` is plain wall time.
CALIBRATION_REPS = {"classify_panel": 0, "forecast_sparse": 2,
                    "forecast_system": 2}


def _fail(message: str, code: int):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Import hdcoint from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hdcoint", "cli.py")):
        _fail(f"no source tree at {SRC}", 2)
    sys.path.insert(0, SRC)
    import hdcoint.cli
    where = os.path.realpath(hdcoint.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        _fail(f"hdcoint imported from {where}, not from {SRC}", 2)


# -- manifest ------------------------------------------------------------------


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def manifest(args) -> dict:
    import scipy
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": _src_lines(),
    }


# -- set-up ----------------------------------------------------------------------


def timed_setup(workload: str, seed: int, count: int, scratch: str) -> float:
    """Median wall time of a fresh process that imports and writes panels."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.prepare(%r, %d, %d, %r)")
    times = []
    for rep in range(SETUP_REPS):
        target = os.path.join(scratch, f"setup{rep}")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        code % (SRC, BENCH, workload, seed, count, target)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    return statistics.median(times)


# -- measurement -------------------------------------------------------------------


def _calibration_data():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    return a @ a.T + 12.0 * np.eye(12), rng.standard_normal((120, 12))


def calibration_s(data) -> float:
    """Wall time of a fixed loop that uses no hdcoint code.

    Small linear solves and matrix-vector products, the kind of numpy
    call the toolkit spends its time in.  The host this runs on is
    shared and its speed drifts; this loop slows with it (see the
    README).  It allocates only arrays of a few hundred bytes, so it
    leaves the process's peak memory alone.
    """
    a, x = data
    t0 = time.perf_counter()
    for i in range(3000):
        beta = np.linalg.solve(a, x.T @ x[:, i % 12])
        resid = x[:, 0] - x @ beta
        float(resid @ resid)
    return time.perf_counter() - t0


def measure(jobs, trace: bool, reps: int = 2):
    """Closed loop: one CLI call on each panel, one call at a time.

    Every untraced call is bracketed by ``reps`` runs of the calibration
    loop on each side; the mean of the two brackets' median loop times
    is returned with the call, in ``cals``.  With ``reps`` 0 there is no
    loop and every entry is ``CALIBRATION_REF_S``, so the call times are
    taken as they are.  With tracing, each panel runs both untraced and
    traced, in alternating order, so the tracing overhead is measured on
    the same inputs.
    """
    plain, cals, traced = [], [], []
    tr = tracer.Tracer() if trace else None
    data = _calibration_data()

    def bracket():
        if not reps:
            return CALIBRATION_REF_S
        return statistics.median(calibration_s(data) for _ in range(reps))

    before = None
    for k, job in enumerate(jobs):
        if trace and k % 2:
            traced.append(workloads.run_op(job, tr))
            before = None
        if before is None:
            before = bracket()
        plain.append(workloads.run_op(job))
        after = bracket()
        cals.append((before + after) / 2)
        before = after
        if trace and not k % 2:
            traced.append(workloads.run_op(job, tr))
            before = None
    return plain, cals, traced, tr


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled_seconds(outcomes, cals):
    """Call wall times at the calibration's reference speed.

    Each call's time is multiplied by ``CALIBRATION_REF_S`` over the
    calibration loop time measured around it, so a stretch of the run in
    which the shared host ran slow does not read as a slower program.
    """
    return [o.seconds * CALIBRATION_REF_S / c for o, c in zip(outcomes, cals)]


def end_to_end(outcomes, cals, setup_s: float) -> dict:
    """The metrics that carry a bound.

    ``op_s`` is the median over completed calls of the call's wall time
    at the calibration's reference speed (``scaled_seconds``).  Failures are
    counted apart, in the ``failed`` field and the printed
    ``fail_share``: which panels abort varies from seed to seed, and a
    run holds too few of them for a time that mixes them in to stay
    within a bound.  The rates are printed, not bounded: call times have
    a heavy upper tail, so a total over one run spreads more from seed
    to seed than the median does.
    """
    scaled = scaled_seconds(outcomes, cals)
    done = [t for o, t in zip(outcomes, scaled) if o.completed] or scaled
    return {
        "setup_s": setup_s,
        "op_s": statistics.median(done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def layer_metrics(workload, plain, traced, tr) -> dict:
    calls = len(traced)
    out = tracer.layer_metrics(tr, calls)
    out["harness.windows"] = sum(o.windows for o in traced) / calls
    out["harness.failed_cells"] = 0 if workload == "classify_panel" else sum(
        o.units - o.good for o in traced) / calls
    base = statistics.median(o.seconds for o in plain)
    out["bench.trace_overhead_share"] = (
        statistics.median(o.seconds for o in traced) - base) / base
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith("share"):
        return "share"
    if name == "singleeq.kkt_max":
        return "ratio"
    return "count"


# -- reference --------------------------------------------------------------------


def _reference_run(workload: str, scratch: str, tr):
    job = workloads.reference_job(workload, os.path.join(scratch, "reference"))
    return job, workloads.run_op(job, tr)


def reference_check(workload: str, scratch: str, trace: bool):
    """Decisions on the reference panel against the stored ones."""
    tr = tracer.Tracer() if trace else None
    _, out = _reference_run(workload, scratch, tr)
    if not out.completed:
        return [f"reference panel failed: {out.error}"]
    with open(os.path.join(REFERENCE, f"{workload}.json")) as fh:
        ref = json.load(fh)
    fits = tr.records["fits"] if tr is not None else None
    return out.invalid + workloads.compare(ref, out.decisions, fits)


def write_reference(workload: str, scratch: str) -> None:
    tr = tracer.Tracer()
    job, out = _reference_run(workload, scratch, tr)
    if not out.completed or out.invalid:
        _fail(f"reference panel did not give valid output: {out.error} "
              f"{out.invalid}", 1)
    doc = dict(out.decisions, seed=workloads.DEFAULT_SEED,
               argv=[os.path.basename(a) for a in job.argv])
    if tr.records["fits"]:
        doc["fits"] = tr.records["fits"]
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one line per innermost list, such as a row of forecasts
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(os.path.join(REFERENCE, f"{workload}.json"), "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {workload} reference")


# -- main -------------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        if args.write_reference:
            write_reference(args.workload, scratch)
            return 0
        info = manifest(args)
        print("manifest " + json.dumps(info, sort_keys=True))
        count = workloads.schedule(args.workload, args.seconds)
        setup_s = timed_setup(args.workload, args.seed, count, scratch)
        jobs = workloads.prepare(args.workload, args.seed, count,
                                 os.path.join(scratch, "panels"))
        # the reference panel runs first and has the timed series length,
        # so lazy imports, first-call costs and the first touch of arrays
        # of the timed size are paid before the timed calls
        problems = reference_check(args.workload, scratch, bool(args.trace))
        plain, cals, traced, tr = measure(jobs, bool(args.trace),
                                          CALIBRATION_REPS[args.workload])
        problems += [f"op {k}: {msg}" for k, o in enumerate(plain + traced)
                     for msg in o.invalid]
        attempted = sum(o.units for o in plain)
        failed = attempted - sum(o.good for o in plain)
        e2e = end_to_end(plain, cals, setup_s)
        report = {
            "manifest": info,
            "end_to_end": e2e,
            "ops": len(plain),
            "op_seconds": [o.seconds for o in plain],
            "calibration_seconds": cals,
            "failures": [{"op": k, "error": o.error}
                         for k, o in enumerate(plain) if o.error],
            "problems": problems,
        }
        if args.trace:
            metrics = layer_metrics(args.workload, plain, traced, tr)
            problems += [f"trace nesting: {msg}"
                         for msg in tr.nesting_violations()]
            report["per_layer"] = metrics
            report["span_errors"] = tracer.error_classes(tr)
            report["failed_cells_by"] = failed_by(traced, tr)
            units = {k: _unit(k) for k in metrics}
        else:
            metrics = e2e
            units = UNITS
        report["printed"] = printed(args.workload, plain, cals, e2e)
        print_summary(args.workload, report)
        if args.trace:
            for name in sorted(metrics):
                print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
        with open(os.path.join(runs, f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}.json"), "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        correct = not problems
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def failed_by(traced, tr) -> dict:
    """Failed forecast cells by method and exception class (traced ops)."""
    out = {}
    for name, classes in tr.errors.items():
        if name.startswith("harness.method."):
            for cls, n in classes.items():
                out[f"{name[len('harness.method.'):]}:{cls}"] = n
    aborted = sum(o.units for o in traced if not o.completed)
    if aborted:
        out["aborted_ops_cells"] = aborted
    return out


def printed(workload, plain, cals, e2e) -> dict:
    """The end-to-end metrics under the names users know, with units.

    ``op_wall_s`` and ``op_p90_s`` are plain wall times, unscaled.
    """
    done = [o.seconds for o in plain if o.completed]
    attempted = sum(o.units for o in plain)
    good = sum(o.good for o in plain)
    unit = "series" if workload == "classify_panel" else "forecasts"
    out = {"setup_s": (e2e["setup_s"], "s"), "op_s": (e2e["op_s"], "s")}
    if done:
        out["op_wall_s"] = (statistics.median(done), "s")
        out["op_p90_s"] = (_nearest_rank(done, 0.9), "s")
    if CALIBRATION_REPS[workload]:
        out["calibration_s"] = (statistics.median(cals), "s")
    out["op_count"] = (len(done), "count")
    out[f"{unit}_per_s"] = (good / sum(o.seconds for o in plain), "1/s")
    out["fail_share"] = ((attempted - good) / attempted, "share")
    if workload == "classify_panel":
        out["order_accuracy"] = (sum(o.right for o in plain) / attempted,
                                 "share")
    out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    return out


def print_summary(workload, report) -> None:
    ops = report["ops"]
    print(f"workload {workload}: {ops} operations, "
          f"{len(report['failures'])} aborted")
    for name, (value, unit) in report["printed"].items():
        print(f"{name:18s} {value:.6g} {unit}")
    for f in report["failures"]:
        print(f"failed op {f['op']}: {f['error']}")
    for msg in report["problems"]:
        print(f"CHECK FAILED: {msg}")


if __name__ == "__main__":
    sys.exit(main())
