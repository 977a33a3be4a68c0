"""Golden pin of the union-statistic bootstrap on a small ragged panel.

``tests/golden/bootstrap_union.json`` holds the component statistics,
lag choices, component critical values and union statistics of
:func:`bootstrap_union_distribution` on :func:`golden_panel` with 199
replications, and ``bootstrap_union_999.json`` the same with 999, which
``four_stats`` fits in more than one row block.  Both are asserted to
1e-10, so a change to the unit-root kernels that moves any of them shows
here.  Regenerate them only for a deliberate change of the statistics,
with ``PYTHONPATH=src python tests/test_bootstrap_golden.py``.
"""

import json
import os

import numpy as np

from hdcoint import AwbConfig, bootstrap_union_distribution, from_values
from hdcoint.dgp import simulate_mixed_orders

#: replications -> golden file
GOLDEN = {reps: os.path.join(os.path.dirname(__file__), "golden", name)
          for reps, name in ((199, "bootstrap_union.json"),
                             (999, "bootstrap_union_999.json"))}
TOL = 1e-10


def golden_panel():
    """Two I(0), two I(1) and one I(2) series, T=200, three late starts."""
    panel, _ = simulate_mixed_orders(2, 2, 1, 200, seed=7)
    vals = panel.values.copy()
    for j, start in ((0, 9), (2, 23), (4, 41)):
        vals[:start, j] = np.nan
    return from_values(vals, names=panel.names)


def summary(reps: int = 199) -> dict:
    boot = bootstrap_union_distribution(
        golden_panel(), AwbConfig(reps=reps, seed=3))
    return {
        "stats": boot.stats.tolist(),
        "lags": boot.lags.tolist(),
        "critvals": [cv.as_array().tolist() for cv in boot.critvals],
        "ur": boot.ur.tolist(),
    }


def _check(reps):
    with open(GOLDEN[reps]) as fh:
        want = json.load(fh)
    got = summary(reps)
    assert got["lags"] == want["lags"]
    for key in ("stats", "critvals", "ur"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=TOL,
                                   err_msg=key)


def test_bootstrap_union_matches_golden():
    _check(199)


def test_bootstrap_union_matches_golden_999():
    _check(999)


if __name__ == "__main__":
    for reps, path in GOLDEN.items():
        with open(path, "w") as fh:
            json.dump(summary(reps), fh, indent=1)
            fh.write("\n")
