"""Golden pins of the ``classify`` command.

Each file is the JSON report of ``hdcoint classify --input
tests/golden/panel.csv --boot-reps 199`` with one method:

* ``tests/golden/classify_iadf.json``: ``--methods iadf``;
* ``tests/golden/classify_bsqt.json``: ``--methods bsqt``;
* ``tests/golden/classify_bfdr.json``: ``--methods bfdr``;
* ``tests/golden/classify_naive.json``: ``--methods naive``;
* ``tests/golden/classify_strategy1.json``: ``--methods bsqt --codes
  tests/golden/codes.csv --strategy 1``, which enters s3 (code 3) as
  I(2) and tests the others for at most one unit root.

Every report must reproduce byte for byte on one worker process and on
two, so any change to the lag choice, the four component statistics, the
bootstrap round, the multiplier stream or the classification steps shows
here.
"""

import os

import pytest

from hdcoint.cli import main

#: CI runs these on two BLAS threads too: their bits must not depend on
#: the thread count
pytestmark = pytest.mark.blas_threads

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

RUNS = {
    "iadf": ["--methods", "iadf"],
    "bsqt": ["--methods", "bsqt"],
    "bfdr": ["--methods", "bfdr"],
    "naive": ["--methods", "naive"],
    "strategy1": ["--methods", "bsqt", "--codes",
                  os.path.join(GOLDEN, "codes.csv"), "--strategy", "1"],
}


@pytest.mark.worker_processes
@pytest.mark.parametrize("name", list(RUNS))
def test_classify_matches_golden_on_any_worker_count(tmp_path, name):
    with open(os.path.join(GOLDEN, f"classify_{name}.json"), "rb") as fh:
        want = fh.read()
    for threads in ("1", "2"):
        out = tmp_path / f"{name}_{threads}.json"
        rc = main(["classify", "--input", os.path.join(GOLDEN, "panel.csv"),
                   "--boot-reps", "199", "--threads", threads,
                   "--output", str(out)] + RUNS[name])
        assert rc == 0
        assert out.read_bytes() == want, threads
