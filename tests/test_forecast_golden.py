"""Golden pins of the ``forecast`` command.

``tests/golden/forecast.json`` and ``forecast.csv`` are the output of
``hdcoint forecast --input tests/golden/panel.csv --seed 9 --boot-reps 199``
(methods ar and var over 280 windows, with the model confidence set).

``tests/golden/forecast_lanes.json`` and ``forecast_lanes.csv`` pin every
other forecast lane but pml on the same panel: ``--methods
ar,var,favar,ml,fecm,ndfm,qr_vecm --window 360 --horizons 1,3 --factors 1
--targets s1,s2`` (38 windows, no failed cell).  pml is left out because
its ridge initializer is expected to change.

Both must reproduce byte for byte, so any change to the autoregressive,
VAR, factor or VECM forecasters, to their lag choices, the multiplier
stream or the seed derivation shows here.
"""

import os

from hdcoint.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

LANES = ["--methods", "ar,var,favar,ml,fecm,ndfm,qr_vecm", "--window", "360",
         "--horizons", "1,3", "--factors", "1", "--targets", "s1,s2"]


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
