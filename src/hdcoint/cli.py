"""Command-line entry point.

Commands: ``simulate``, ``classify``, ``forecast``, ``nowcast``, ``mcs``.
Each command takes only the flags it reads (``hdcoint COMMAND --help``
lists them); any other flag, or config-file key, is a usage error that
names it.  Flags may come from an optional ``key=value`` config file
(given by ``--config``, which is not itself a file key); explicit flags
override file entries.  Every command honors ``--seed`` and identical
invocations produce identical output files.  ``classify --threads N``
sizes the thread pool that fits the bootstrap replications (default:
every CPU the process may run on); the output has the same bytes for any
``N``.  ``nowcast`` always runs at horizon 0.  ``classify --strategy
1`` needs ``--codes``: series whose code implies order two (3 or 6) are
entered in first differences, all others are assumed at most I(1).
``--codes`` sets integration orders only (``classify --strategy 1``,
``forecast`` and ``nowcast`` read the order each code implies): the log
and percent-change stages of codes 4-7 are not applied, so those series
are classified and forecast on their levels as given.  The panel, the
codes file and the ``mcs`` loss file are read by one guarded CSV reader,
and a codes file must list each series once.
Exit codes: 0 success, 1 usage or configuration, 2 data, 3 numerical
failure.
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
from .panel import VALID_CODES, Panel, implied_orders
from .rng import derive_seed

__all__ = ["main", "ingest_csv"]

_MONTH_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$")
_DATE_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])$")


# -- ingestion ---------------------------------------------------------------


def _parse_date(cell: str, rowno: int) -> np.datetime64:
    s = cell.strip()
    if _DATE_RE.match(s) or _MONTH_RE.match(s):
        return np.datetime64(s[:7], "M")
    raise DataError(f"row {rowno}: '{cell}' is not an ISO-8601 date")


def _csv_rows(path: str) -> List[List[str]]:
    """The non-empty rows of a CSV file (a UTF-8 byte-order mark is
    dropped); a file that cannot be read is a :class:`DataError`."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DataError(f"cannot read '{path}': {exc}") from None


def ingest_csv(path: str, codes_path: Optional[str] = None
               ) -> Tuple[Panel, Optional[np.ndarray]]:
    """Read a panel CSV, with transform codes from a row or a side file.

    The header row carries series names after a date column; data rows
    start with ISO-8601 dates; empty cells may appear only as leading
    blocks.  A second row whose first field is ``transform`` is read as
    FRED-style transform codes.  ``codes_path`` names a two-column CSV
    (name, code 1..7) and overrides an embedded code row.
    """
    rows = _csv_rows(path)
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
        if not np.isin(codes, VALID_CODES).all():
            bad = int(np.flatnonzero(~np.isin(codes, VALID_CODES))[0])
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
    """Codes in ``names`` order from a 'name,code' CSV listing each series
    once."""
    mapping: Dict[str, int] = {}
    for k, row in enumerate(_csv_rows(path), start=1):
        if len(row) != 2:
            raise DataError(f"codes file row {k}: expected 'name,code'")
        nm = row[0].strip()
        if nm not in names:
            raise DataError(f"codes file row {k}: unknown series '{nm}'")
        if nm in mapping:
            raise DataError(f"codes file row {k}: duplicate series '{nm}'")
        try:
            code = int(row[1])
        except ValueError:
            raise DataError(f"codes file row {k}: '{row[1].strip()}' is not "
                            "an integer code") from None
        if code not in VALID_CODES:
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


def _dgp(text: str) -> str:
    if text not in ("mixed", "vecm"):
        raise ParameterError(f"dgp must be 'mixed' or 'vecm', got '{text}'")
    return text


#: how each flag's value is parsed, the same in every command
_CONVERTERS = {
    "input": str, "codes": str, "output": str, "config": str,
    "seed": int, "threads": int, "alpha": float, "boot_reps": int,
    "gamma": float, "window": int, "horizons": _horizons,
    "methods": _method_list, "strategy": int, "quantile_step": float,
    "factors": int, "max_lags": int, "dgp": _dgp, "n0": int, "n1": int,
    "n2": int, "n_series": int, "rank": int, "t_obs": int,
    "targets": _name_list, "benchmark": str,
}

#: the flags each command reads, with their defaults (None: not set)
_FLAGS: Dict[str, Dict[str, object]] = {
    "simulate": {"output": None, "config": None, "seed": 0, "dgp": "mixed",
                 "n0": 3, "n1": 4, "n2": 1, "n_series": 6, "rank": 2,
                 "t_obs": 200},
    "classify": {"input": None, "codes": None, "output": None,
                 "config": None, "seed": 0, "threads": None, "alpha": 0.05,
                 "boot_reps": 999, "gamma": 0.85, "methods": ("bsqt",),
                 "strategy": 2, "quantile_step": 0.05, "max_lags": None},
    "forecast": {"input": None, "codes": None, "output": None,
                 "config": None, "seed": 0, "alpha": 0.10, "boot_reps": 999,
                 "gamma": 0.85, "window": 120, "horizons": (1,),
                 "methods": HarnessConfig.methods, "factors": 4,
                 "max_lags": None, "targets": None,
                 "benchmark": HarnessConfig.benchmark},
    "nowcast": {"input": None, "codes": None, "output": None,
                "config": None, "seed": 0, "alpha": 0.10, "boot_reps": 999,
                "gamma": 0.85, "window": 120, "factors": 4, "max_lags": None,
                "targets": None, "methods": (HarnessConfig.benchmark,),
                "benchmark": HarnessConfig.benchmark},
    "mcs": {"input": None, "output": None, "config": None, "seed": 0,
            "alpha": 0.10, "boot_reps": 999, "gamma": 0.85},
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> _Parser:
    """One sub-parser per command, taking that command's flags only."""
    parser = _Parser(prog="hdcoint", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name, add_help=True)
        for key in flags:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=_CONVERTERS[key], default=argparse.SUPPRESS)
    return parser


def _read_config_file(path: str, command: str) -> Dict[str, object]:
    """The ``key=value`` entries of a config file; a key ``command`` does
    not take, ``config`` included, is a usage error."""
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
        if key == "config" or key not in _FLAGS[command]:
            raise ParameterError(f"config line {lineno}: '{command}' takes "
                                 f"no key '{key.replace('_', '-')}'")
        try:
            out[key] = _CONVERTERS[key](value.strip())
        except (TypeError, ValueError):
            raise ParameterError(f"config line {lineno}: bad value for "
                                 f"'{key}'") from None
    return out


def _resolve(argv: Optional[Sequence[str]]) -> Dict[str, object]:
    """The command's flags: its defaults, overridden by the config file,
    overridden by explicit flags."""
    ns = vars(_build_parser().parse_args(argv))
    command = ns.pop("command")
    if command is None:
        raise ParameterError(
            f"a command is required: {', '.join(_FLAGS)}")
    merged = dict(_FLAGS[command])
    if "config" in ns:
        merged.update(_read_config_file(str(ns["config"]), command))
    merged.update(ns)
    merged["command"] = command
    return merged


def _require(cfg: Dict[str, object], key: str) -> object:
    if cfg.get(key) is None:
        raise ParameterError(f"--{key.replace('_', '-')} is required for "
                             f"'{cfg['command']}'")
    return cfg[key]


# -- commands ----------------------------------------------------------------


def cmd_simulate(cfg: Dict[str, object]) -> None:
    out = str(_require(cfg, "output"))
    seed = derive_seed(int(cfg["seed"]), "simulate")
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
    panel, codes = ingest_csv(str(_require(cfg, "input")), cfg.get("codes"))
    out = str(_require(cfg, "output"))
    strategy = int(cfg["strategy"])
    apriori_i2: Tuple[str, ...] = ()
    if strategy == 1:
        if codes is None:
            raise ParameterError("'classify --strategy 1' needs --codes: "
                                 "series coded 3 or 6 are entered as I(2)")
        apriori_i2 = tuple(n for n, d in zip(panel.names,
                                             implied_orders(codes)) if d == 2)
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
                    max_lags=cfg.get("max_lags"), workers=cfg.get("threads"))
    ccfg = ClassifyConfig(alpha=float(cfg["alpha"]), awb=awb,
                          bsqt=BsqtConfig(
                              quantiles=tuple(np.arange(0.0, 1.0, step)),
                              alpha=float(cfg["alpha"])),
                          apriori_i2=apriori_i2, at_most_i1=strategy == 1)
    report = pantula_classify(panel, method=method, strategy=strategy,
                              cfg=ccfg)
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
    _run_harness(cfg, tuple(cfg["horizons"]), tuple(cfg["methods"]))


def cmd_nowcast(cfg: Dict[str, object]) -> None:
    methods = tuple(cfg["methods"])
    bad = sorted(set(methods + (str(cfg["benchmark"]),))
                 - set(SINGLE_EQUATION_METHODS))
    if bad:
        raise ParameterError(
            f"nowcasting is restricted to single-equation methods "
            f"{SINGLE_EQUATION_METHODS}; got {bad}")
    _run_harness(cfg, (0,), methods)


def cmd_mcs(cfg: Dict[str, object]) -> None:
    path = str(_require(cfg, "input"))
    out = str(_require(cfg, "output"))
    rows = _csv_rows(path)
    if len(rows) < 2:
        raise DataError("loss file needs a header row and data rows")
    names = tuple(c.strip() for c in rows[0])
    for j, nm in enumerate(names):
        if nm in names[:j]:
            raise DataError(f"duplicate method name '{nm}' (columns "
                            f"{names.index(nm) + 1} and {j + 1})")
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
