"""Golden pins of the ``forecast`` command.

``tests/golden/forecast.json`` and ``forecast.csv`` are the output of
``hdcoint forecast --input tests/golden/panel.csv --seed 9 --boot-reps 199``
(methods ar and var over 280 windows, with the model confidence set).

``tests/golden/forecast_lanes.json`` and ``forecast_lanes.csv`` pin every
other forecast lane but pml on the same panel: ``--methods
ar,var,favar,ml,fecm,ndfm,qr_vecm --window 360 --horizons 1,3 --factors 1
--targets s1,s2`` (38 windows, no failed cell).  pml is pinned on three
windows in ``forecast_nowcast`` instead, because a fix of its scale ridge
is expected to move it.

``tests/golden/forecast_orders.json`` and ``forecast_orders.csv`` pin the
lanes on mixed integration orders: ``--codes tests/golden/codes.csv``
gives s1, s2 and s3 the codes 1, 2 and 3 (orders 0, 1 and 2), with
``--methods ar,var,favar,ml,fecm,ndfm,qr_vecm,padl --window 380
--horizons 1,3 --factors 1 --targets s1,s3`` (18 windows, no failed
cell).  They guard every differencing and integration step of the lanes.

``tests/golden/forecast_nowcast.json`` and ``forecast_nowcast.csv`` pin
the lanes no other golden covers, and horizon 0 of every nowcasting
lane: ``--methods ar,pml,specs,fa_specs,padl,fapadl --window 397
--horizons 0,1 --factors 1 --targets s1`` (3 windows; pml has no
horizon-0 cell and reports that once).

All must reproduce byte for byte, so any change to the autoregressive,
VAR, factor, VECM or SPECS/PADL forecasters, to their lag choices, the
multiplier stream or the seed derivation shows here.
"""

import os

import pytest

from hdcoint.cli import main

#: CI runs these on two BLAS threads too: their bits must not depend on
#: the thread count
pytestmark = pytest.mark.blas_threads

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

LANES = ["--methods", "ar,var,favar,ml,fecm,ndfm,qr_vecm", "--window", "360",
         "--horizons", "1,3", "--factors", "1", "--targets", "s1,s2"]

ORDERS = ["--codes", os.path.join(GOLDEN, "codes.csv"), "--methods",
          "ar,var,favar,ml,fecm,ndfm,qr_vecm,padl", "--window", "380",
          "--horizons", "1,3", "--factors", "1", "--targets", "s1,s3"]

NOWCAST = ["--methods", "ar,pml,specs,fa_specs,padl,fapadl", "--window",
           "397", "--horizons", "0,1", "--factors", "1", "--targets", "s1"]


def _assert_golden(tmp_path, name, extra):
    out = tmp_path / name
    rc = main(["forecast", "--input", os.path.join(GOLDEN, "panel.csv"),
               "--seed", "9", "--boot-reps", "199", "--output", str(out)]
              + extra)
    assert rc == 0
    for ext in ("json", "csv"):
        with open(os.path.join(GOLDEN, f"{name}.{ext}"), "rb") as fh:
            want = fh.read()
        assert (tmp_path / f"{name}.{ext}").read_bytes() == want, ext


def test_forecast_matches_golden(tmp_path):
    _assert_golden(tmp_path, "forecast", [])


def test_forecast_lanes_match_golden(tmp_path):
    _assert_golden(tmp_path, "forecast_lanes", LANES)


def test_forecast_orders_match_golden(tmp_path):
    _assert_golden(tmp_path, "forecast_orders", ORDERS)


def test_forecast_nowcast_matches_golden(tmp_path):
    _assert_golden(tmp_path, "forecast_nowcast", NOWCAST)
