"""Bit-for-bit pin of SPECS and PADL where no other golden looks.

``tests/golden/single_eq_pins.json`` holds, for ``specs_fit`` and
``padl_fit`` on one seeded five-series panel of orders (0, 1, 2, 1, 0),
the forecast, the penalty triple cross-validation picked and the
support, for targets of order 0, 1 and 2, p in {0, 3} and h in {0, 1}.
The sparse-fit and forecast goldens cover neither p = 0 nor a PADL
nowcast of an I(0) or I(2) target.  JSON keeps every float exactly, so
the comparison is exact.  Regenerate with
``python tests/test_single_eq_pins.py``.
"""

import json
import os
import sys

import numpy as np
import pytest

from hdcoint import from_values, padl_fit, specs_fit

#: CI runs these on two BLAS threads too: their bits must not depend on
#: the thread count
pytestmark = pytest.mark.blas_threads

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "single_eq_pins.json")
ORDERS = [0, 1, 2, 1, 0]
CASES = [(method, target, p, h) for method in ("specs", "padl")
         for target in ("a", "b", "c") for p in (0, 3) for h in (0, 1)]


def _panel():
    """a: I(0) led by the change in b; b: a walk; c: I(2); d: cointegrated
    with b; e: white noise."""
    rng = np.random.default_rng(2020)
    T = 140
    e = rng.standard_normal((T, 5))
    b = e[:, 1].cumsum()
    a = np.zeros(T)
    for t in range(1, T):
        a[t] = 0.4 * a[t - 1] + 0.8 * (b[t - 1] - b[t - 2] if t > 1 else 0.0) \
            + e[t, 0]
    c = (0.5 * e[:, 2]).cumsum().cumsum()
    d = b + 0.5 * e[:, 3]
    return from_values(np.column_stack([a, b, c, d, e[:, 4]]),
                       names=["a", "b", "c", "d", "e"])


def _fit(panel, method, target, p, h):
    if method == "specs":
        fit = specs_fit(panel, target, p=p, h=h)
    else:
        fit = padl_fit(panel, target, ORDERS, p=p, h=h)
    return {"method": method, "target": target, "p": p, "h": h,
            "lambda": [fit.lambdas["group"], fit.lambdas["levels"],
                       fit.lambdas["w"]],
            "support": sorted(fit.nonzero()), "forecast": fit.forecast}


@pytest.fixture(scope="module")
def pins():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {(w["method"], w["target"], w["p"], w["h"]): w
                for w in json.load(fh)}


@pytest.mark.parametrize("method, target, p, h", CASES)
def test_fit_matches_pin(pins, method, target, p, h):
    got = _fit(_panel(), method, target, p, h)
    want = pins[(method, target, p, h)]
    assert got["lambda"] == want["lambda"]
    assert got["support"] == want["support"]
    assert got["forecast"] == want["forecast"]


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(CASES)


if __name__ == "__main__":
    panel = _panel()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump([_fit(panel, *case) for case in CASES], fh, indent=1)
        fh.write("\n")
    sys.exit(0)
