"""Command-line entry point.

Commands: ``simulate``, ``classify``, ``forecast``, ``nowcast``, ``mcs``.
Flags may come from an optional ``key=value`` config file; explicit flags
override file entries.  Every command honors ``--seed`` and identical
invocations produce identical output files.  Exit codes: 0 success,
1 usage or configuration, 2 data, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bootstrap import AwbConfig
from .classify import BsqtConfig, ClassifyConfig, METHODS as CLASSIFY_METHODS, \
    pantula_classify
from .dgp import random_vecm_params, simulate_mixed_orders, simulate_vecm
from .errors import DataError, NumericalError, ParameterError
from .harness import HarnessConfig, SINGLE_EQUATION_METHODS, mcs, run_rolling
from .panel import Panel, implied_orders
from .rng import derive_seed

__all__ = ["main", "ingest_csv"]

_MONTH_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$")
_DATE_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])$")


def _apply_threads(n: Optional[int]) -> None:
    """Cap the BLAS threads of this process; the toolkit itself is
    single-threaded.

    The cap needs ``threadpoolctl``: numpy has loaded BLAS by now, so
    thread-count environment variables would change nothing in this
    process.  Without it the command warns on stderr and runs as is.
    """
    if n is None:
        return
    if n < 1:
        raise ParameterError("--threads must be a positive integer")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print("warning: --threads needs threadpoolctl, which is not "
              "installed; BLAS keeps its thread count", file=sys.stderr)
        return
    threadpool_limits(limits=n)


# -- ingestion ---------------------------------------------------------------


def _parse_date(cell: str, rowno: int) -> np.datetime64:
    s = cell.strip()
    if _DATE_RE.match(s) or _MONTH_RE.match(s):
        return np.datetime64(s[:7], "M")
    raise DataError(f"row {rowno}: '{cell}' is not an ISO-8601 date")


def ingest_csv(path: str, codes_path: Optional[str] = None
               ) -> Tuple[Panel, Optional[np.ndarray]]:
    """Read a panel CSV, with transform codes from a row or a side file.

    The header row carries series names after a date column; data rows
    start with ISO-8601 dates; empty cells may appear only as leading
    blocks.  A second row whose first field is ``transform`` is read as
    FRED-style transform codes.  ``codes_path`` names a two-column CSV
    (name, code 1..7) and overrides an embedded code row.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read '{path}': {exc}") from None
    rows = [r for r in rows if r]
    if not rows:
        raise DataError(f"'{path}' is empty")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2:
        raise DataError("header must list a date column and at least "
                        "one series")
    names = header[1:]
    seen: Dict[str, int] = {}
    for j, nm in enumerate(names):
        if not nm:
            raise DataError(f"column {j + 2} has an empty name")
        if nm in seen:
            raise DataError(f"duplicate series name '{nm}' "
                            f"(columns {seen[nm] + 2} and {j + 2})")
        seen[nm] = j
    body = rows[1:]
    offset = 2
    codes: Optional[np.ndarray] = None
    if body and body[0][0].strip().lower() == "transform":
        code_row = body[0][1:]
        if len(code_row) != len(names):
            raise DataError(f"row 2: {len(code_row)} transform codes for "
                            f"{len(names)} series")
        try:
            codes = np.array([int(c) for c in code_row])
        except ValueError:
            raise DataError("row 2: transform codes must be integers") \
                from None
        if not np.all((codes >= 1) & (codes <= 7)):
            bad = int(np.flatnonzero((codes < 1) | (codes > 7))[0])
            raise DataError(f"row 2, column '{names[bad]}': transform code "
                            f"{codes[bad]} outside 1..7")
        body = body[1:]
        offset = 3
    if not body:
        raise DataError(f"'{path}' has no data rows")
    dates: List[np.datetime64] = []
    vals = np.empty((len(body), len(names)))
    for k, row in enumerate(body):
        rowno = k + offset
        if len(row) != len(header):
            raise DataError(f"row {rowno} has {len(row)} fields, expected "
                            f"{len(header)}")
        d = _parse_date(row[0], rowno)
        if dates and d <= dates[-1]:
            raise DataError(f"row {rowno}: date '{row[0].strip()}' does not "
                            "increase")
        dates.append(d)
        for j, cell in enumerate(row[1:]):
            s = cell.strip()
            if not s:
                vals[k, j] = np.nan
                continue
            try:
                vals[k, j] = float(s)
            except ValueError:
                raise DataError(f"row {rowno}, column '{names[j]}': "
                                f"'{cell}' is not a number") from None
    for j, nm in enumerate(names):
        col = vals[:, j]
        finite = np.isfinite(col)
        if not finite.any():
            raise DataError(f"column '{nm}' has no observations")
        first = int(np.argmax(finite))
        if not finite[first:].all():
            bad = first + int(np.argmin(finite[first:]))
            raise DataError(f"interior empty cell at row {bad + offset}, "
                            f"column '{nm}'")
    panel = Panel(vals, tuple(names), np.array(dates, dtype="datetime64[M]"))
    if codes_path is not None:
        codes = _read_codes(codes_path, panel.names)
    return panel, codes


def _read_codes(path: str, names: Tuple[str, ...]) -> np.ndarray:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DataError(f"cannot read '{path}': {exc}") from None
    mapping: Dict[str, int] = {}
    for k, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise DataError(f"codes file row {k}: expected 'name,code'")
        nm = row[0].strip()
        if nm not in names:
            raise DataError(f"codes file row {k}: unknown series '{nm}'")
        try:
            code = int(row[1])
        except ValueError:
            raise DataError(f"codes file row {k}: '{row[1].strip()}' is not "
                            "an integer code") from None
        if not 1 <= code <= 7:
            raise DataError(f"codes file row {k}: code {code} outside 1..7")
        mapping[nm] = code
    missing = [nm for nm in names if nm not in mapping]
    if missing:
        raise DataError(f"codes file lacks entries for {missing}")
    return np.array([mapping[nm] for nm in names])


def _write_panel_csv(panel: Panel, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *panel.names])
        for i in range(panel.n_obs):
            row = [str(panel.dates[i])]
            for v in panel.values[i]:
                row.append("" if np.isnan(v) else repr(float(v)))
            writer.writerow(row)


# -- argument handling -------------------------------------------------------


def _horizons(text: str) -> Tuple[int, ...]:
    try:
        items = [int(p) for p in str(text).split(",") if p.strip() != ""]
    except ValueError:
        raise ParameterError(f"cannot parse horizons '{text}'") from None
    if not items:
        raise ParameterError("horizons list is empty")
    out: List[int] = []
    for h in items:
        if h not in out:
            out.append(h)
    return tuple(out)


def _method_list(text: str) -> Tuple[str, ...]:
    items = tuple(p.strip().lower() for p in str(text).split(",")
                  if p.strip())
    if not items:
        raise ParameterError("methods list is empty")
    return items


def _name_list(text: str) -> Tuple[str, ...]:
    items = tuple(p.strip() for p in str(text).split(",") if p.strip())
    if not items:
        raise ParameterError("name list is empty")
    return items


_CONVERTERS = {
    "input": str, "codes": str, "output": str, "config": str,
    "seed": int, "threads": int, "alpha": float, "boot_reps": int,
    "gamma": float, "window": int, "horizons": _horizons,
    "methods": _method_list, "strategy": int, "quantile_step": float,
    "factors": int, "max_lags": int, "dgp": str, "n0": int, "n1": int,
    "n2": int, "n_series": int, "rank": int, "t_obs": int,
    "targets": _name_list, "benchmark": str,
}

_COMMANDS = ("simulate", "classify", "forecast", "nowcast", "mcs")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise ParameterError(message)


#: flags only ``simulate`` accepts
_SIMULATE_ONLY = ("dgp", "n0", "n1", "n2", "n_series", "rank", "t_obs")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hdcoint", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name, add_help=True)
        for key, convert in _CONVERTERS.items():
            if key in _SIMULATE_ONLY and name != "simulate":
                continue
            choices = ("mixed", "vecm") if key == "dgp" else None
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=convert, choices=choices,
                           default=argparse.SUPPRESS)
    return parser


_DEFAULTS = {
    "simulate": {"seed": 0, "dgp": "mixed", "n0": 3, "n1": 4, "n2": 1,
                 "n_series": 6, "rank": 2, "t_obs": 200},
    "classify": {"seed": 0, "alpha": 0.05, "boot_reps": 999, "gamma": 0.85,
                 "methods": ("bsqt",), "strategy": 2, "quantile_step": 0.05},
    "forecast": {"seed": 0, "alpha": 0.10, "boot_reps": 999, "gamma": 0.85,
                 "window": 120, "horizons": (1,), "methods": ("ar", "var"),
                 "factors": 4, "benchmark": "ar"},
    "nowcast": {"seed": 0, "alpha": 0.10, "boot_reps": 999, "gamma": 0.85,
                "window": 120, "methods": ("ar",), "factors": 4,
                "benchmark": "ar"},
    "mcs": {"seed": 0, "alpha": 0.10, "boot_reps": 999, "gamma": 0.85},
}


def _read_config_file(path: str) -> Dict[str, object]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config '{path}': {exc}") from None
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONVERTERS:
            raise ParameterError(f"config line {lineno}: unknown key "
                                 f"'{key.replace('_', '-')}'")
        try:
            out[key] = _CONVERTERS[key](value.strip())
        except (TypeError, ValueError):
            raise ParameterError(f"config line {lineno}: bad value for "
                                 f"'{key}'") from None
    return out


def _resolve(argv: Optional[Sequence[str]]) -> Dict[str, object]:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise ParameterError(
            f"a command is required: {', '.join(_COMMANDS)}")
    explicit = {k: v for k, v in vars(ns).items() if k != "command"}
    merged: Dict[str, object] = dict(_DEFAULTS[ns.command])
    config_path = explicit.pop("config", None)
    if config_path is not None:
        merged.update(_read_config_file(str(config_path)))
    merged.update(explicit)
    merged["command"] = ns.command
    return merged


def _require(cfg: Dict[str, object], key: str) -> object:
    if cfg.get(key) is None:
        raise ParameterError(f"--{key.replace('_', '-')} is required for "
                             f"'{cfg['command']}'")
    return cfg[key]


# -- commands ----------------------------------------------------------------


def cmd_simulate(cfg: Dict[str, object]) -> None:
    out = str(_require(cfg, "output"))
    seed = derive_seed(int(cfg.get("seed", 0)), "simulate")
    if cfg["dgp"] == "mixed":
        panel, _ = simulate_mixed_orders(int(cfg["n0"]), int(cfg["n1"]),
                                         int(cfg["n2"]), int(cfg["t_obs"]),
                                         seed=seed)
    else:
        params = random_vecm_params(int(cfg["n_series"]), int(cfg["rank"]),
                                    seed=seed)
        panel = simulate_vecm(params, int(cfg["t_obs"]), seed=seed)
    _write_panel_csv(panel, out)


def cmd_classify(cfg: Dict[str, object]) -> None:
    if cfg.get("horizons") is not None:
        raise ParameterError("'classify' does not accept --horizons")
    panel, _ = ingest_csv(str(_require(cfg, "input")), cfg.get("codes"))
    out = str(_require(cfg, "output"))
    methods = cfg["methods"]
    if len(methods) != 1:
        raise ParameterError("'classify' takes exactly one method")
    method = methods[0]
    if method not in CLASSIFY_METHODS:
        raise ParameterError(f"unknown classification method '{method}'; "
                             f"choose from {CLASSIFY_METHODS}")
    step = float(cfg["quantile_step"])
    if not 0 < step < 1:
        raise ParameterError("--quantile-step must lie in (0, 1)")
    awb = AwbConfig(gamma=float(cfg["gamma"]), reps=int(cfg["boot_reps"]),
                    alpha=float(cfg["alpha"]),
                    seed=derive_seed(int(cfg["seed"]), "classify"),
                    max_lags=cfg.get("max_lags"))
    ccfg = ClassifyConfig(alpha=float(cfg["alpha"]), awb=awb,
                          bsqt=BsqtConfig(
                              quantiles=tuple(np.arange(0.0, 1.0, step)),
                              alpha=float(cfg["alpha"])))
    report = pantula_classify(panel, method=method,
                              strategy=int(cfg["strategy"]), cfg=ccfg)
    with open(out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(report.summary())


def _report_paths(output: str) -> Tuple[str, str]:
    if output.endswith(".json"):
        return output, output[:-5] + ".csv"
    return output + ".json", output + ".csv"


def _harness_config(cfg: Dict[str, object], horizons: Tuple[int, ...],
                    methods: Tuple[str, ...], orders) -> HarnessConfig:
    benchmark = str(cfg["benchmark"])
    if benchmark not in methods:
        methods = (benchmark,) + methods
    kwargs = {}
    if cfg.get("max_lags") is not None:
        kwargs["p_max"] = int(cfg["max_lags"])
    return HarnessConfig(
        window=int(cfg["window"]), horizons=horizons,
        targets=cfg.get("targets"), methods=methods, benchmark=benchmark,
        orders=orders, mcs_level=float(cfg["alpha"]),
        gamma=float(cfg["gamma"]), boot_reps=int(cfg["boot_reps"]),
        seed=derive_seed(int(cfg["seed"]), "forecast"),
        factors=int(cfg["factors"]), **kwargs)


def _run_harness(cfg: Dict[str, object], horizons: Tuple[int, ...],
                 methods: Tuple[str, ...]) -> None:
    panel, codes = ingest_csv(str(_require(cfg, "input")), cfg.get("codes"))
    out = str(_require(cfg, "output"))
    orders = tuple(int(d) for d in implied_orders(codes)) \
        if codes is not None else None
    hcfg = _harness_config(cfg, horizons, methods, orders)
    report = run_rolling(panel, hcfg)
    json_path, csv_path = _report_paths(out)
    report.write_json(json_path)
    report.write_csv(csv_path)


def cmd_forecast(cfg: Dict[str, object]) -> None:
    horizons = cfg.get("horizons") or (1,)
    _run_harness(cfg, tuple(horizons), tuple(cfg["methods"]))


def cmd_nowcast(cfg: Dict[str, object]) -> None:
    if cfg.get("horizons") not in (None, (0,)):
        raise ParameterError("'nowcast' always runs at horizon 0")
    methods = tuple(cfg["methods"])
    bad = [m for m in methods if m not in SINGLE_EQUATION_METHODS]
    if bad:
        raise ParameterError(
            f"nowcasting is restricted to single-equation methods "
            f"{SINGLE_EQUATION_METHODS}; got {bad}")
    if str(cfg["benchmark"]) not in SINGLE_EQUATION_METHODS:
        raise ParameterError("nowcast benchmark must be single-equation")
    _run_harness(cfg, (0,), methods)


def cmd_mcs(cfg: Dict[str, object]) -> None:
    path = str(_require(cfg, "input"))
    out = str(_require(cfg, "output"))
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DataError(f"cannot read '{path}': {exc}") from None
    if len(rows) < 2:
        raise DataError("loss file needs a header row and data rows")
    names = tuple(c.strip() for c in rows[0])
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != len(names):
            raise DataError(f"loss file row {k} has {len(row)} fields, "
                            f"expected {len(names)}")
    try:
        losses = np.array([[float(c) for c in row] for row in rows[1:]])
    except ValueError:
        raise DataError("loss file contains non-numeric entries") from None
    result = mcs(losses, alpha=float(cfg["alpha"]),
                 gamma=float(cfg["gamma"]), reps=int(cfg["boot_reps"]),
                 seed=derive_seed(int(cfg["seed"]), "mcs"), names=names)
    payload = {
        "alpha": result.alpha,
        "members": list(result.members),
        "pvalues": result.pvalues,
        "eliminated": list(result.eliminated),
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


_DISPATCH = {
    "simulate": cmd_simulate,
    "classify": cmd_classify,
    "forecast": cmd_forecast,
    "nowcast": cmd_nowcast,
    "mcs": cmd_mcs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = _resolve(argv)
        _apply_threads(cfg.get("threads"))
        _DISPATCH[str(cfg["command"])](cfg)
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
