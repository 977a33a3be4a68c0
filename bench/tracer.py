"""Layer timing by wrapping module attributes from outside the program.

Every traced function is replaced, for the duration of a traced call,
under the name its caller looks it up by (``hdcoint.harness.specs_fit``
is the name ``run_rolling``'s method table calls).  A wrapper records a
span: inclusive time, self time (inclusive minus the traced spans it
caused), call count and the class of any exception that escapes.  A few
spans also carry an observer that reads counts from the arguments or
the result.  :class:`Patcher` puts every original back, in reverse
order, when the traced block ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# -- patching ----------------------------------------------------------------


def _owner(module: str, path: str):
    """Resolve ``Class.attr`` or ``table[key]`` paths inside ``module``."""
    obj = importlib.import_module(module)
    if "[" in path:
        table, key = path[:-1].split("[")
        return getattr(obj, table), key, True
    *parents, leaf = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, leaf, False


def lookup(module: str, path: str):
    owner, key, item = _owner(module, path)
    return owner[key] if item else getattr(owner, key)


class Patcher:
    """Replace attributes or table entries and restore them in reverse."""

    def __init__(self):
        self._saved: List[Tuple[object, str, bool, object]] = []

    def patch(self, module: str, path: str, make: Callable) -> None:
        owner, key, item = _owner(module, path)
        original = owner[key] if item else getattr(owner, key)
        replacement = make(original)
        self._saved.append((owner, key, item, original))
        if item:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, key, item, original = self._saved.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# -- spans -------------------------------------------------------------------


class Tracer:
    """Nested spans and named counters for one traced workload run."""

    def __init__(self):
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Dict[str, Counter] = defaultdict(Counter)
        self.edges: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = defaultdict(float)
        self.records: Dict[str, list] = defaultdict(list)
        self._stack: List[list] = []
        self._depth: Counter = Counter()

    def begin(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def end(self, frame: list, exc: Optional[BaseException] = None) -> None:
        name = frame[0]
        dt = time.perf_counter() - frame[1]
        self._stack.pop()
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.inclusive[name] += dt
        self.self_time[name] += dt - frame[2]
        self.calls[name] += 1
        if exc is not None:
            self.errors[name][type(exc).__name__] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dt
            if parent[0] != name:
                self.edges[(parent[0], name)] += dt

    def span_wrapper(self, name: str, observe: Optional[Callable] = None
                     ) -> Callable:
        """Factory for :meth:`Patcher.patch`: time ``fn`` as span ``name``."""
        def make(fn):
            def traced(*args, **kwargs):
                frame = self.begin(name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException as exc:
                    self.end(frame, exc)
                    raise
                self.end(frame)
                if observe is not None:
                    observe(self, args, kwargs, out)
                return out
            traced.__wrapped__ = fn
            return traced
        return make

    def count_wrapper(self, name: str) -> Callable:
        """Factory for a call counter without timing (for hot functions)."""
        def make(fn):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted
        return make

    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, sec in self.self_time.items():
            out[name.split(".")[0]] += sec
        return dict(out)

    def nesting_violations(self, slack: float = 1e-6) -> List[str]:
        """Child spans longer than their parent or negative self times."""
        bad = []
        for (parent, child), sec in self.edges.items():
            if sec > self.inclusive[parent] + slack:
                bad.append(f"{child} ({sec:.6f} s) inside {parent} "
                           f"({self.inclusive[parent]:.6f} s)")
        for name, sec in self.self_time.items():
            if sec < -slack:
                bad.append(f"{name} self time {sec:.6f} s")
        return bad


# -- observers -----------------------------------------------------------------


def _observe_union(tr: Tracer, args, kwargs, boot) -> None:
    """Distinct (lead, lag) pairs of one bootstrap round."""
    panel = args[0]
    groups = Counter(zip(panel.leads, (int(v) for v in boot.lags)))
    tr.counts["bootstrap.rounds"] += 1
    tr.counts["bootstrap.groups"] += len(groups)
    tr.counts["bootstrap.series"] += panel.n_series
    tr.counts["bootstrap.series_shared"] += sum(
        c for c in groups.values() if c >= 2)


def _observe_adf(tr: Tracer, args, kwargs, out) -> None:
    """Regression count and the computed size of the (B, n, k) design."""
    y, det, lags = args[:3]
    B, T = y.shape
    n, k = T - lags - 1, det + 1 + lags
    tr.counts["unitroot.adf_regressions"] += B
    mb = B * n * k * 8 / 1e6
    tr.maxima["unitroot.design_mb_computed"] = max(
        tr.maxima["unitroot.design_mb_computed"], mb)


def _observe_sgl(tr: Tracer, args, kwargs, out) -> None:
    diag = out[2]
    tr.counts["singleeq.sweeps"] += int(diag["sweeps"])
    tr.maxima["singleeq.kkt_max"] = max(tr.maxima["singleeq.kkt_max"],
                                        float(diag["kkt"]))


def _observe_fit(tr: Tracer, args, kwargs, fit) -> None:
    """Chosen penalties and selected support, for the reference check."""
    tr.records["fits"].append({
        "method": fit.method, "target": fit.target,
        "lambdas": [fit.lambdas["group"], fit.lambdas["levels"],
                    fit.lambdas["w"]],
        "support": sorted(fit.nonzero()),
    })


# -- what is traced --------------------------------------------------------------

#: (module the caller looks the name up in, attribute path, span, observer)
SPANS = [
    ("hdcoint.cli", "ingest_csv", "cli.ingest", None),
    ("hdcoint.classify", "IntegrationReport.to_json", "cli.write", None),
    ("hdcoint.harness", "ForecastReport.write_json", "cli.write", None),
    ("hdcoint.harness", "ForecastReport.write_csv", "cli.write", None),
    ("hdcoint.cli", "pantula_classify", "classify.pantula", None),
    ("hdcoint.classify", "bootstrap_union_distribution", "bootstrap.union",
     _observe_union),
    ("hdcoint.bootstrap", "residual_panel", "bootstrap.residual", None),
    ("hdcoint.bootstrap", "_multiplier_matrix", "bootstrap.multiplier", None),
    ("hdcoint.harness", "_multiplier_matrix", "bootstrap.multiplier", None),
    ("hdcoint.bootstrap", "substream", "rng.substream", None),
    ("hdcoint.bootstrap", "select_lags", "unitroot.select_lags", None),
    ("hdcoint.bootstrap", "four_stats", "unitroot.four_stats", None),
    ("hdcoint.bootstrap", "adf_rho", "unitroot.adf_rho", None),
    ("hdcoint.bootstrap", "_adf_tstat_batch", "unitroot.adf_batch",
     _observe_adf),
    ("hdcoint.unitroot", "_adf_tstat_batch", "unitroot.adf_batch",
     _observe_adf),
    ("hdcoint.bootstrap", "_gls_detrend_batch", "unitroot.gls_detrend", None),
    ("hdcoint.unitroot", "_gls_detrend_batch", "unitroot.gls_detrend", None),
    ("hdcoint.cli", "run_rolling", "harness.rolling", None),
    ("hdcoint.harness", "mcs", "harness.mcs", None),
    ("hdcoint.harness", "specs_fit", "singleeq.specs_fit", _observe_fit),
    ("hdcoint.harness", "padl_fit", "singleeq.padl_fit", _observe_fit),
    ("hdcoint.singleeq", "tscv_tune", "singleeq.tscv", None),
    ("hdcoint.singleeq", "sgl_solve", "singleeq.sgl", _observe_sgl),
    ("hdcoint.harness", "qr_vecm", "vecm.qr_vecm", None),
    ("hdcoint.harness", "pml_vecm", "vecm.pml_vecm", None),
    ("hdcoint.harness", "johansen_ml", "vecm.johansen_ml", None),
    ("hdcoint.factors", "johansen_ml", "vecm.johansen_ml", None),
    ("hdcoint.harness", "select_rank_ic", "vecm.select_rank_ic", None),
    ("hdcoint.factors", "select_rank_ic", "vecm.select_rank_ic", None),
    ("hdcoint.harness", "select_lag_bic", "vecm.select_lag_bic", None),
    ("hdcoint.factors", "select_lag_bic", "vecm.select_lag_bic", None),
    ("hdcoint.harness", "fecm_forecast", "factors.fecm", None),
    ("hdcoint.harness", "ndfm_forecast", "factors.ndfm", None),
]

#: forecasting methods whose table entry gets a ``harness.method.<m>`` span
METHODS = ("ar", "var", "ml", "qr_vecm", "pml", "fecm", "ndfm", "padl",
           "specs")

#: hot functions that are counted but not timed
COUNTED = [
    ("hdcoint.vecm", "vecm_iterated_forecast", "vecm.iterated_forecast_calls"),
    ("hdcoint.harness", "vecm_iterated_forecast",
     "vecm.iterated_forecast_calls"),
    ("hdcoint.factors", "vecm_iterated_forecast",
     "vecm.iterated_forecast_calls"),
]


def targets() -> List[Tuple[str, str]]:
    """Every (module, path) a traced run replaces."""
    out = [(m, p) for m, p, _, _ in SPANS]
    out += [("hdcoint.harness", f"_REGISTRY[{m}]") for m in METHODS]
    out += [(m, p) for m, p, _ in COUNTED]
    return out


def install(patcher: Patcher, tracer: Tracer) -> None:
    for module, path, name, observe in SPANS:
        patcher.patch(module, path, tracer.span_wrapper(name, observe))
    for m in METHODS:
        patcher.patch("hdcoint.harness", f"_REGISTRY[{m}]",
                      tracer.span_wrapper(f"harness.method.{m}"))
    for module, path, name in COUNTED:
        patcher.patch(module, path, tracer.count_wrapper(name))


LAYERS = ("cli", "classify", "bootstrap", "unitroot", "rng", "singleeq",
          "vecm", "factors", "harness")


def layer_metrics(tr: Tracer, calls: int) -> Dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one trace.

    Times and counts are per traced call (``calls`` of them), so a run
    that fits more calls does not inflate them; shares, ratios and
    maxima are taken over the whole trace.
    """
    inc, ncalls, cnt = tr.inclusive, tr.calls, tr.counts
    layer_self = tr.layer_self()
    total = sum(layer_self.values())
    per_call = {
        "bootstrap.union_s": inc["bootstrap.union"],
        "bootstrap.residual_s": inc["bootstrap.residual"],
        "bootstrap.multiplier_s": inc["bootstrap.multiplier"],
        "unitroot.select_lags_s": inc["unitroot.select_lags"],
        "unitroot.select_lags_calls": ncalls["unitroot.select_lags"],
        "unitroot.four_stats_s": inc["unitroot.four_stats"],
        "unitroot.adf_batch_s": inc["unitroot.adf_batch"],
        "unitroot.adf_batch_calls": ncalls["unitroot.adf_batch"],
        "unitroot.adf_regressions": cnt["unitroot.adf_regressions"],
        "unitroot.gls_detrend_s": inc["unitroot.gls_detrend"],
        "rng.substream_calls": ncalls["rng.substream"],
        "rng.substream_s": inc["rng.substream"],
        "classify.pantula_s": inc["classify.pantula"],
        "classify.rounds": ncalls["bootstrap.union"],
        "singleeq.specs_fit_s": inc["singleeq.specs_fit"],
        "singleeq.padl_fit_s": inc["singleeq.padl_fit"],
        "singleeq.tscv_s": inc["singleeq.tscv"],
        "singleeq.sgl_calls": ncalls["singleeq.sgl"],
        "singleeq.sgl_s": inc["singleeq.sgl"],
        "singleeq.convergence_errors": sum(
            tr.errors[s]["ConvergenceError"]
            for s in ("singleeq.specs_fit", "singleeq.padl_fit")),
        "vecm.qr_vecm_s": inc["vecm.qr_vecm"],
        "vecm.pml_vecm_s": inc["vecm.pml_vecm"],
        "vecm.johansen_ml_s": inc["vecm.johansen_ml"],
        "vecm.select_rank_ic_s": inc["vecm.select_rank_ic"],
        "vecm.select_lag_bic_s": inc["vecm.select_lag_bic"],
        "vecm.iterated_forecast_calls": cnt["vecm.iterated_forecast_calls"],
        "vecm.errors": sum(sum(c.values()) for s, c in tr.errors.items()
                           if s.startswith("vecm.")),
        "factors.fecm_s": inc["factors.fecm"],
        "factors.ndfm_s": inc["factors.ndfm"],
        "harness.rolling_s": inc["harness.rolling"],
        "harness.mcs_s": inc["harness.mcs"],
        "harness.mcs_calls": ncalls["harness.mcs"],
        "cli.ingest_s": inc["cli.ingest"],
        "cli.write_s": inc["cli.write"],
    }
    for m in METHODS:
        per_call[f"harness.method.{m}_s"] = inc[f"harness.method.{m}"]
    for layer in LAYERS:
        per_call[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out = {name: value / calls for name, value in per_call.items()}
    out.update({
        "bootstrap.lead_lag_groups": (cnt["bootstrap.groups"]
                                      / max(cnt["bootstrap.rounds"], 1)),
        "bootstrap.lead_lag_shared_share": (
            cnt["bootstrap.series_shared"] / max(cnt["bootstrap.series"], 1)),
        "unitroot.design_mb_computed": tr.maxima["unitroot.design_mb_computed"],
        "singleeq.sweeps_per_call": (cnt["singleeq.sweeps"]
                                     / max(ncalls["singleeq.sgl"], 1)),
        "singleeq.kkt_max": tr.maxima["singleeq.kkt_max"],
    })
    for layer in LAYERS:
        sec = layer_self.get(layer, 0.0)
        out[f"{layer}.self_share"] = sec / total if total > 0 else 0.0
    return out


def error_classes(tr: Tracer) -> Dict[str, Dict[str, int]]:
    """Exception classes that escaped each span."""
    return {name: dict(c) for name, c in sorted(tr.errors.items()) if c}
