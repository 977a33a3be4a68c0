"""Workload definitions, panel set-up, one operation, and output checks.

An operation is one in-process ``hdcoint.cli.main([...])`` call on one
generated panel CSV.  Panels come from the workload seed only; the
program sees nothing but the CSV files and the command line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

import tracer as tracing

#: seed of the stored reference panels in ``reference/``
DEFAULT_SEED = 1

CLASSIFY = {
    "timed": dict(n0=16, n1=20, n2=4, T=300, reps=999),
    "reference": dict(n0=2, n1=2, n2=1, T=300, reps=999),
}

SPARSE_METHODS = "ar,padl,specs"
SYSTEM_METHODS = "ar,var,ml,qr_vecm,pml,fecm,ndfm"

#: forecast panel shape: series, cointegrating rank, targets, windows
SPARSE = dict(n=8, r=2, targets=1, windows=1)
SYSTEM = dict(n=12, r=3, targets=6, windows=32)

WORKLOADS = ("classify_panel", "forecast_sparse", "forecast_system")

#: median seconds of one call on the hdcoint code this benchmark was
#: defined on (2-core Linux, OpenBLAS on one thread); it sizes the fixed
#: schedule of a run, so the same ``--seconds`` always runs the same panels
NOMINAL_CALL_S = {"classify_panel": 13.4, "forecast_sparse": 2.1,
                  "forecast_system": 2.8}

WINDOW = 120

#: relative (and absolute) tolerance of the stored reference forecasts
FORECAST_RTOL = 1e-6


def schedule(workload: str, seconds: float) -> int:
    """Panels in a run: about ``seconds`` of calls at the nominal speed."""
    return max(1, round(seconds / NOMINAL_CALL_S[workload]))


@dataclass
class Job:
    """One CLI call on one panel, with what is needed to score it."""

    kind: str                      # "classify" or "forecast"
    argv: List[str]
    output: str
    n_series: int
    truth: Optional[List[int]] = None      # classify: true orders
    cells: int = 0                         # forecast: cells attempted


@dataclass
class Outcome:
    seconds: float
    completed: bool
    units: int
    good: int
    right: int = 0                 # classify: series with the true order
    windows: int = 0
    error: Optional[str] = None
    invalid: List[str] = field(default_factory=list)
    decisions: Optional[dict] = None


def _panel_seed(seed: int, workload: str, k: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(zlib.crc32(workload.encode()), k))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def write_panel_csv(panel, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *panel.names])
        for i in range(panel.n_obs):
            writer.writerow([str(panel.dates[i])] + [
                "" if np.isnan(v) else repr(float(v))
                for v in panel.values[i]])


def _classify_job(k: int, pseed: int, size: str, directory: str) -> Job:
    from hdcoint.dgp import simulate_mixed_orders
    cfg = CLASSIFY[size]
    panel, orders = simulate_mixed_orders(cfg["n0"], cfg["n1"], cfg["n2"],
                                          cfg["T"], seed=pseed)
    n = panel.n_series
    rng = np.random.default_rng([pseed, 1])
    ragged = rng.choice(n, n // 5, replace=False)
    # one start in each of equal strata of rows 6 .. T/2: the starts are
    # distinct and the rows they drop vary little from panel to panel
    edges = np.linspace(6, cfg["T"] // 2, ragged.size + 1).astype(int)
    starts = [rng.integers(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    vals = panel.values.copy()
    for j, s in zip(ragged, starts):
        vals[:s, j] = np.nan
    path = os.path.join(directory, f"panel{k}.csv")
    write_panel_csv(panel.with_values(vals), path)
    out = os.path.join(directory, f"classify{k}.json")
    argv = ["classify", "--input", path, "--output", out,
            "--methods", "bsqt", "--strategy", "2",
            "--boot-reps", str(cfg["reps"]), "--seed", str(pseed % 100000)]
    return Job("classify", argv, out, n, truth=[int(v) for v in orders])


def _forecast_job(k: int, pseed: int, shape: dict, methods: str,
                  horizons: str, directory: str) -> Job:
    from hdcoint.dgp import random_vecm_params, simulate_vecm
    hs = [int(h) for h in horizons.split(",")]
    T = WINDOW + max(hs) + shape["windows"] - 1
    params = random_vecm_params(shape["n"], shape["r"], seed=pseed)
    panel = simulate_vecm(params, T, seed=pseed + 1)
    rng = np.random.default_rng(pseed)
    targets = sorted(rng.choice(shape["n"], shape["targets"], replace=False))
    names = [panel.names[j] for j in targets]
    path = os.path.join(directory, f"panel{k}.csv")
    write_panel_csv(panel, path)
    out = os.path.join(directory, f"forecast{k}.json")
    argv = ["forecast", "--input", path, "--output", out,
            "--methods", methods, "--horizons", horizons,
            "--window", str(WINDOW), "--targets", ",".join(names),
            "--seed", str(pseed % 100000)]
    cells = shape["windows"] * len(methods.split(",")) * len(names) * len(hs)
    return Job("forecast", argv, out, shape["n"], cells=cells)


def prepare(workload: str, seed: int, count: int, directory: str,
            reference: bool = False) -> List[Job]:
    """Generate ``count`` panels from ``seed`` and write their CSVs.

    With ``reference`` a classify panel has the smaller shape of the
    stored reference check; forecast panels have one shape only.
    """
    import hdcoint.cli  # noqa: F401  (import cost belongs to set-up)
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    os.makedirs(directory, exist_ok=True)
    jobs = []
    for k in range(count):
        pseed = _panel_seed(seed, workload, k)
        if workload == "classify_panel":
            jobs.append(_classify_job(
                k, pseed, "reference" if reference else "timed", directory))
        elif workload == "forecast_sparse":
            jobs.append(_forecast_job(k, pseed, SPARSE, SPARSE_METHODS,
                                      "1", directory))
        else:
            jobs.append(_forecast_job(k, pseed, SYSTEM, SYSTEM_METHODS,
                                      "1,3", directory))
    return jobs


def reference_job(workload: str, directory: str) -> Job:
    """The panel whose decisions are stored in ``reference/``."""
    return prepare(workload, DEFAULT_SEED, 1, directory, reference=True)[0]


# -- one operation -------------------------------------------------------------


def run_op(job: Job, tr: Optional[tracing.Tracer] = None) -> Outcome:
    """Run one CLI call; trace it when ``tr`` is given.

    The forecast report is taken from ``run_rolling``'s return value,
    because the CLI writes neither per-window forecasts nor the
    exception class of a failure.  That capture is the only replacement
    made in an untraced call.
    """
    import hdcoint.cli as cli
    captured = {}

    def capture(fn):
        def keep(*args, **kwargs):
            captured["report"] = fn(*args, **kwargs)
            return captured["report"]
        keep.__wrapped__ = fn
        return keep

    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with tracing.Patcher() as patcher:
        if job.kind == "forecast":
            patcher.patch("hdcoint.cli", "run_rolling", capture)
        if tr is not None:
            tracing.install(patcher, tr)
            frame = tr.begin("cli.main")
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.main(job.argv)
        except Exception as e:          # an aborted job is one failed op
            rc, exc = None, e
            error = f"{type(e).__name__}: {e} [{_where(e)}]"
        seconds = time.perf_counter() - t0
        if tr is not None:
            tr.end(frame, exc)
    if rc not in (None, 0):
        error = f"exit {rc}: {stderr.getvalue().strip()}"
    if error is not None:
        units = job.n_series if job.kind == "classify" else job.cells
        return Outcome(seconds, False, units, 0, error=error)
    if job.kind == "classify":
        return _score_classify(job, seconds)
    return _score_forecast(job, seconds, captured.get("report"))


def _where(exc: BaseException) -> str:
    """Innermost frame inside the hdcoint package that the error crossed."""
    frames = traceback.extract_tb(exc.__traceback__)
    inside = [f for f in frames
              if os.sep + "hdcoint" + os.sep in f.filename] or frames
    f = inside[-1]
    return f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"


def _score_classify(job: Job, seconds: float) -> Outcome:
    with open(job.output) as fh:
        doc = json.load(fh)
    series = doc["series"]
    orders = [int(s["order"]) for s in series]
    invalid = []
    if len(orders) != job.n_series:
        invalid.append(f"{len(orders)} orders for {job.n_series} series")
    if any(d not in (0, 1, 2) for d in orders):
        invalid.append(f"orders outside 0..2: {sorted(set(orders))}")
    union = [[r["statistic"] for r in s["rounds"]] for s in series]
    if not all(v is not None and np.isfinite(v) for u in union for v in u):
        invalid.append("non-finite union statistic")
    right = sum(int(a == b) for a, b in zip(orders, job.truth))
    return Outcome(seconds, True, job.n_series, len(orders), right=right,
                   invalid=invalid,
                   decisions={"orders": orders, "union": union})


def _score_forecast(job: Job, seconds: float, report) -> Outcome:
    if report is None:
        return Outcome(seconds, False, job.cells, 0,
                       error="no report returned")
    methods = list(report.methods)
    starts = list(report.window_starts)
    diagnosed = {(d[0], d[3]) for d in report.diagnostics}
    good, invalid = 0, []
    for (tgt, h), fc in sorted(report.forecasts.items()):
        finite = np.isfinite(fc)
        good += int(finite.sum())
        for w, m in zip(*np.nonzero(~finite)):
            if (starts[w], methods[m]) not in diagnosed:
                invalid.append(f"NaN forecast without diagnostic: window "
                               f"{starts[w]}, {methods[m]}, {tgt}, h={h}")
    units = len(starts) * len(methods) * len(report.forecasts)
    if units != job.cells:
        invalid.append(f"{units} forecast cells, expected {job.cells}")
    mcs = {}
    for (tgt, h), members in sorted(report.mcs_members.items()):
        if members is not None and not set(members) <= set(methods):
            invalid.append(f"MCS members {members} not among methods")
        mcs[f"{tgt}|{h}"] = None if members is None else sorted(members)
    if not os.path.exists(job.output):
        invalid.append(f"missing output {job.output}")
    forecasts = {f"{tgt}|{h}": [[float(v) if np.isfinite(v) else None
                                 for v in row] for row in fc]
                 for (tgt, h), fc in sorted(report.forecasts.items())}
    return Outcome(seconds, True, units, good, windows=len(starts),
                   invalid=invalid[:5],
                   decisions={"mcs": mcs, "forecasts": forecasts})


# -- reference decisions ---------------------------------------------------------


def compare(ref: dict, got: dict, fits: Optional[list]) -> List[str]:
    """Differences between stored and new decisions (empty when equal)."""
    bad = []
    if "orders" in ref:
        if got.get("orders") != ref["orders"]:
            bad.append(f"orders {got.get('orders')} != {ref['orders']}")
        else:
            a = np.array([v for u in ref["union"] for v in u])
            b = np.array([v for u in got["union"] for v in u])
            if a.shape != b.shape or np.max(np.abs(a - b), initial=0) > 1e-10:
                bad.append("union statistics differ by more than 1e-10")
    if "mcs" in ref and got.get("mcs") != ref["mcs"]:
        bad.append(f"MCS members {got.get('mcs')} != {ref['mcs']}")
    for key, old in sorted(ref.get("forecasts", {}).items()):
        new = got.get("forecasts", {}).get(key)
        a = np.array(old, dtype=float)
        b = None if new is None else np.array(new, dtype=float)
        if b is None or a.shape != b.shape or not np.allclose(
                b, a, rtol=FORECAST_RTOL, atol=FORECAST_RTOL, equal_nan=True):
            bad.append(f"forecasts of {key} differ from the reference by "
                       f"more than {FORECAST_RTOL:g}")
    if fits is not None and "fits" in ref:
        if len(fits) != len(ref["fits"]):
            bad.append(f"{len(fits)} SPECS/PADL fits, reference has "
                       f"{len(ref['fits'])}")
        for new, old in zip(fits, ref["fits"]):
            where = f"{old['method']} fit of {old['target']}"
            if not np.allclose(new["lambdas"], old["lambdas"], rtol=1e-9,
                               atol=0.0):
                bad.append(f"{where}: lambda {new['lambdas']} != "
                           f"{old['lambdas']}")
            if new["support"] != old["support"]:
                bad.append(f"{where}: support {new['support']} != "
                           f"{old['support']}")
    return bad
