"""Immutable time-series panel container and stationarity transforms.

A :class:`Panel` holds a ``T x N`` array of monthly observations.  Missing
values are allowed only as a contiguous leading block per column (ragged
starts), never in the interior.  All transforms return new panels; values
arrays are marked read-only so panels can be shared freely.  Integration
orders are applied by one rule, :func:`difference_columns`, and inverted
by one, :func:`invert_differences`; every other module uses these two.
Likewise every regression on the deterministic terms [1, t] goes through
:meth:`DeterministicSpec.design` and :func:`detrend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DataError, ParameterError

__all__ = [
    "DeterministicSpec",
    "Panel",
    "monthly_dates",
    "from_values",
    "as_values",
    "as_stack",
    "unstack",
    "resolve_targets",
    "difference",
    "difference_columns",
    "invert_differences",
    "validate_orders",
    "apply_transform",
    "implied_orders",
    "validate_codes",
    "detrend",
    "ols_detrend",
]


class DeterministicSpec(str, Enum):
    """Deterministic component: none, constant, or constant plus trend."""

    NONE = "none"
    MEAN = "mean"
    TREND = "trend"

    @classmethod
    def parse(cls, value: Union[str, "DeterministicSpec"]) -> "DeterministicSpec":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ParameterError(
                f"unknown deterministic spec {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None

    @property
    def n_terms(self) -> int:
        """Deterministic regressors: 0 (none), 1 (mean) or 2 (trend)."""
        return {"none": 0, "mean": 1, "trend": 2}[self.value]

    def design(self, n: int, start: int = 1) -> np.ndarray:
        """The (n, n_terms) deterministic regressors: the leading
        ``n_terms`` columns of [1, t] for t = start .. start + n - 1."""
        t = np.arange(start, start + n, dtype=float)
        return t[:, None] ** np.arange(self.n_terms)


#: FRED-MD style transform codes: 1 level, 2 first difference, 3 second
#: difference, 4 log, 5 log first difference, 6 log second difference,
#: 7 first difference of percent change.
VALID_CODES = (1, 2, 3, 4, 5, 6, 7)

# total differencing applied by each code (after the level transform)
_CODE_DIFFS = {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2, 7: 1}


def monthly_dates(start: str = "2000-01", periods: int = 1) -> np.ndarray:
    """Contiguous monthly datetime64 range starting at ``start``."""
    if periods < 1:
        raise ParameterError("periods must be positive")
    origin = np.datetime64(start, "M")
    return origin + np.arange(periods)


@dataclass(frozen=True)
class Panel:
    """T x N panel with unique names, monotone monthly dates, leading-only NaN.

    Parameters
    ----------
    values : ndarray, shape (T, N)
        Observations; ``NaN`` marks missing values and must form a
        contiguous leading block in each column.
    names : tuple of str
        Unique column names.
    dates : ndarray of datetime64[M], shape (T,)
        Strictly increasing monthly timestamps.
    """

    values: np.ndarray
    names: Tuple[str, ...]
    dates: np.ndarray
    leads: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, order="C")
        if vals.ndim != 2:
            raise DataError("panel values must be a 2-D array")
        T, N = vals.shape
        if T < 1 or N < 1:
            raise DataError("panel must have at least one row and one column")
        names = tuple(str(n) for n in self.names)
        if len(names) != N:
            raise DataError(f"{len(names)} names for {N} columns")
        if len(set(names)) != N:
            raise DataError("panel names must be unique")
        dates = np.asarray(self.dates, dtype="datetime64[M]")
        if dates.shape != (T,):
            raise DataError(f"{dates.shape[0] if dates.ndim == 1 else '?'} dates for {T} rows")
        if T > 1 and not np.all(dates[1:] > dates[:-1]):
            raise DataError("panel dates must be strictly increasing")
        finite = np.isfinite(vals)
        nan_mask = np.isnan(vals)
        if np.any(~finite & ~nan_mask):
            raise DataError("panel values must be finite or NaN")
        leads = []
        for j in range(N):
            col_ok = finite[:, j]
            if not col_ok.any():
                raise DataError(f"column '{names[j]}' has no observations")
            first = int(np.argmax(col_ok))
            if not col_ok[first:].all():
                bad = first + int(np.argmin(col_ok[first:]))
                raise DataError(
                    f"interior missing value in column '{names[j]}' at row {bad}"
                    f" ({dates[bad]})"
                )
            leads.append(first)
        vals.setflags(write=False)
        dates.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "leads", tuple(leads))

    # -- basic accessors -------------------------------------------------
    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    @property
    def balanced(self) -> bool:
        return all(l == 0 for l in self.leads)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParameterError(f"no series named '{name}' in panel") from None

    # -- structural helpers ----------------------------------------------
    def with_values(self, values: np.ndarray) -> "Panel":
        """New panel of ``values`` with this panel's names and dates."""
        return Panel(values, self.names, self.dates)

    def select(self, keys: Sequence[Union[int, str]]) -> "Panel":
        idx = [k if isinstance(k, (int, np.integer)) else self.index(k) for k in keys]
        if not idx:
            raise ParameterError("cannot select an empty set of series")
        return Panel(self.values[:, idx], tuple(self.names[i] for i in idx), self.dates)


def _default_names(n: int) -> Tuple[str, ...]:
    width = len(str(n))
    return tuple(f"s{j + 1:0{width}d}" for j in range(n))


def from_values(values: np.ndarray, names: Optional[Sequence[str]] = None,
                dates: Optional[np.ndarray] = None, start: str = "2000-01") -> Panel:
    """Build a panel, synthesizing default names and monthly dates."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if vals.shape[0] == 1 and np.asarray(values).ndim == 1:
        vals = vals.T
    T, N = vals.shape
    if names is None:
        names = _default_names(N)
    if dates is None:
        dates = monthly_dates(start, T)
    return Panel(vals, tuple(names), dates)


_MISSING = "estimation window contains missing values"


def as_values(data) -> np.ndarray:
    """Accept a balanced Panel or a (T, N) float array."""
    if isinstance(data, Panel):
        if not data.balanced:
            raise DataError("estimation requires a balanced window")
        return data.values
    z = np.asarray(data, dtype=float)
    if z.ndim != 2:
        raise ParameterError("data must be a (T, N) array or Panel")
    if not np.all(np.isfinite(z)):
        raise DataError(_MISSING)
    return z


def _is_stack(data) -> bool:
    return not isinstance(data, Panel) and np.ndim(data) == 3


def as_stack(data) -> Tuple[np.ndarray, bool, list]:
    """(z, stack, errors): ``data`` as a (W, T, N) float stack of windows,
    whether it came as one, and each window's error or None.

    This is the stack contract of every stacked estimator (``johansen_ml``,
    ``select_lag_bic``, ``qr_vecm``, ``pml_vecm``, ``fecm_forecast`` and
    ``ndfm_forecast``).  ``data`` is one (T, N) window or a (W, T, N)
    stack of windows of one shape; a single window is a stack of one, and
    there is no second single-window path.  A (W, T, N) array is taken as
    given, and a window with missing values gets the :func:`as_values`
    error; a (T, N) window or a Panel is checked by :func:`as_values`,
    which raises its error.  Errors of the arguments raise for the whole
    stack.  The estimator returns through :func:`unstack`: per window, its
    result or the window error (``errors.WINDOW_ERRORS``) it raises alone,
    bit for bit as alone, because numpy's batched LAPACK and matmul loop
    over the stack with each window's own call."""
    if not _is_stack(data):
        return as_values(data)[None], False, [None]
    z = np.asarray(data, dtype=float)
    return z, True, [None if ok else DataError(_MISSING)
                     for ok in np.isfinite(z).all(axis=(1, 2))]


def unstack(results: list, stack: bool):
    """A stacked estimator's per-window ``results`` (each a result or the
    error of its window) for a stack; for a stack of one made of a single
    window, that window's result, or its error raised (the contract of
    :func:`as_stack`)."""
    if stack:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def resolve_targets(data, targets=None
                    ) -> Tuple[np.ndarray, Tuple[str, ...], np.ndarray]:
    """Values, series names and target column indices of ``data``.

    ``targets`` lists series names or column indices; None means every
    series.  An array's series carry the default names of
    :func:`from_values`.  Unknown names, indices outside ``[0, N)``, a
    series listed twice (by name or index) and an empty list raise
    :class:`ParameterError`.  ``data`` may also be a (W, T, N) stack of
    windows (:func:`as_stack`), whose values come back as that stack.
    """
    z = np.asarray(data, dtype=float) if _is_stack(data) else as_values(data)
    names = data.names if isinstance(data, Panel) else _default_names(
        z.shape[-1])
    if targets is None:
        return z, names, np.arange(len(names))
    idx = []
    for key in targets:
        if isinstance(key, str):
            if key not in names:
                raise ParameterError(f"no series named '{key}'")
            idx.append(names.index(key))
        elif 0 <= int(key) < len(names):
            idx.append(int(key))
        else:
            raise ParameterError(f"target index {key} out of range")
    if not idx:
        raise ParameterError("target set must not be empty")
    for k, i in enumerate(idx):
        if i in idx[:k]:
            raise ParameterError(f"target '{names[i]}' is listed twice")
    return z, names, np.array(idx)


# -- differencing -------------------------------------------------------


def validate_orders(orders, n_series: int) -> np.ndarray:
    """Integration orders as an int array: one per series, each 0, 1 or 2."""
    arr = np.asarray(orders)
    if arr.shape != (n_series,):
        raise ParameterError("orders must give one value per series")
    if not np.isin(arr, (0, 1, 2)).all():
        raise ParameterError("integration orders must lie in {0, 1, 2}")
    return arr.astype(int)


def difference_columns(x: np.ndarray, orders) -> np.ndarray:
    """Difference column ``j`` of the (T, N) array ``x``, or of each
    window of a (..., T, N) stack, ``orders[j]`` times.

    Each pass subtracts the row above and sets the first row to NaN, so
    the output keeps the shape of ``x`` and column ``j`` gains
    ``orders[j]`` leading NaNs after its own; a window of a stack gets the
    bits it gets alone.  The result is a new C-ordered array whatever the
    layout of ``x``, so the fits downstream see one memory layout (their
    last bits can depend on it).  This is the package's one differencing
    rule; :func:`invert_differences` is its inverse.
    """
    out = np.array(x, dtype=float, order="C")
    orders = validate_orders(orders, out.shape[-1])
    for k in range(1, orders.max(initial=0) + 1):
        cols = orders >= k
        out[..., 1:, cols] = out[..., 1:, cols] - out[..., :-1, cols]
        out[..., 0, cols] = np.nan
    return out


def invert_differences(history: np.ndarray, path: np.ndarray,
                       d: int) -> np.ndarray:
    """Integrate a forecast ``path`` of the d-th difference of ``history``
    back to levels (axis 0): the inverse of :func:`difference_columns`."""
    out = np.asarray(path, dtype=float)
    for k in range(d, 0, -1):
        base = np.diff(history, n=k - 1, axis=0) if k > 1 else history
        out = base[-1] + np.cumsum(out, axis=0)
    return out


def difference(panel: Panel, d: int = 1) -> Panel:
    """Difference every column ``d`` times; output keeps shape and dates."""
    out = difference_columns(panel.values, [d] * panel.n_series)
    if panel.n_obs <= d:
        raise DataError(f"panel with {panel.n_obs} rows cannot be differenced {d} times")
    return panel.with_values(out)


# -- transform codes ----------------------------------------------------


def validate_codes(codes: Sequence[int], panel: Optional[Panel] = None) -> np.ndarray:
    """Validate a transform-code vector, returning it as an int array."""
    arr = np.asarray(codes)
    if arr.ndim != 1:
        raise ParameterError("transform codes must be a 1-D sequence")
    if not np.all(np.isin(arr, VALID_CODES)):
        bad = sorted(set(arr.tolist()) - set(VALID_CODES))
        raise ParameterError(f"unknown transform codes {bad}; valid codes are 1-7")
    if panel is not None and arr.shape[0] != panel.n_series:
        raise ParameterError(
            f"{arr.shape[0]} transform codes for {panel.n_series} series")
    return arr.astype(int)


def _level_part(x: np.ndarray, code: int, name: str) -> np.ndarray:
    """Log / percent-change stage of a transform code."""
    if code in (4, 5, 6, 7):
        finite = np.isfinite(x)
        if np.any(x[finite] <= 0.0):
            raise DataError(
                f"series '{name}' has non-positive values; transform code "
                f"{code} requires strictly positive data")
    if code in (4, 5, 6):
        return np.log(x)
    if code == 7:
        out = np.full_like(x, np.nan)
        out[1:] = x[1:] / x[:-1] - 1.0
        return out
    return x.copy()


def apply_transform(panel: Panel, codes: Sequence[int]) -> Panel:
    """Apply FRED-MD style transform codes column by column."""
    arr = validate_codes(codes, panel)
    levels = np.column_stack([_level_part(panel.values[:, j], c, panel.names[j])
                              for j, c in enumerate(arr)])
    return panel.with_values(difference_columns(levels, implied_orders(arr)))


def implied_orders(codes: Sequence[int]) -> np.ndarray:
    """Orders of integration the codes imply for the level-transformed data."""
    arr = validate_codes(codes)
    return np.array([_CODE_DIFFS[c] for c in arr], dtype=int)


# -- deterministic components -------------------------------------------


def detrend(y, spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND,
            start: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """OLS residual of ``y`` (rows are periods, 1-D or 2-D) on the
    deterministics :meth:`DeterministicSpec.design` (n, start), and the
    coefficients, (n_terms,) or (n_terms, columns).  The package's one
    regression on [1, t]."""
    y = np.asarray(y, dtype=float)
    X = DeterministicSpec.parse(spec).design(y.shape[0], start)
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    return y - X @ beta, beta


def ols_detrend(panel: Panel, spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND):
    """Per-column :func:`detrend` of a panel; returns the residual panel.

    The trend regressor is the 1-based global row index (each column's
    ``start`` is its lead plus one), so coefficients extrapolate as
    ``mu + tau * (T + h)``.

    Returns
    -------
    residuals : Panel
        Input minus fitted deterministics (NaN layout preserved).
    coefs : ndarray, shape (N, 2)
        Columns ``(mu, tau)``; ``tau`` is zero under ``mean``, both zero
        under ``none``.
    """
    spec = DeterministicSpec.parse(spec)
    N = panel.n_series
    coefs = np.zeros((N, 2))
    out = np.full_like(panel.values, np.nan)
    min_obs = spec.n_terms + 1
    for j in range(N):
        lead = panel.leads[j]
        y = panel.values[lead:, j]
        if y.shape[0] < min_obs:
            raise DataError(
                f"series '{panel.names[j]}' has {y.shape[0]} observations; "
                f"detrending with spec '{spec.value}' needs at least {min_obs}")
        out[lead:, j], beta = detrend(y, spec, lead + 1)
        coefs[j, :beta.shape[0]] = beta
    return panel.with_values(out), coefs
