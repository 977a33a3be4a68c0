"""Golden pin of the ``forecast`` command.

``tests/golden/forecast.json`` and ``forecast.csv`` are the output of
``hdcoint forecast --input tests/golden/panel.csv --seed 9 --boot-reps 199``
(methods ar and var over 280 windows, with the model confidence set).
They must reproduce byte for byte, so any change to the autoregressive
forecasters, the multiplier stream or the seed derivation shows here.
"""

import os

from hdcoint.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_forecast_matches_golden(tmp_path):
    out = tmp_path / "forecast"
    rc = main(["forecast", "--input", os.path.join(GOLDEN, "panel.csv"),
               "--seed", "9", "--boot-reps", "199", "--output", str(out)])
    assert rc == 0
    for ext in ("json", "csv"):
        with open(os.path.join(GOLDEN, f"forecast.{ext}"), "rb") as fh:
            want = fh.read()
        assert (tmp_path / f"forecast.{ext}").read_bytes() == want, ext
