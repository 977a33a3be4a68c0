"""Golden pin of the SPECS and PADL decisions.

``tests/golden/sparse_fits.json`` holds, for ``specs_fit`` and
``padl_fit`` (orders all 1) on six seeded ``simulate_vecm`` panels
(N = 8, rank 2, 120 rows, h = 1, target ``s{seed % 8}``), the penalty
triple cross-validation picked, the support and the forecast.  Seeds
1-3 have no short-run dynamics, the benchmark's panel shape, where most
supports are small; seeds 4-6 add one lag (``phi_scale=0.6``), so PADL
selects too and the paths run longer.  The triple and the support must
match exactly: a faster solver may not move a decision.  The forecast
may move by rounding only, at most 1e-12 relative.  Regenerate with
``python tests/test_sparse_golden.py``.
"""

import json
import os
import sys

import numpy as np

from hdcoint import padl_fit, random_vecm_params, simulate_vecm, specs_fit

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "sparse_fits.json")
#: (seed, short-run lags, phi_scale) of each panel
PANELS = [(1, 0, 0.2), (2, 0, 0.2), (3, 0, 0.2),
          (4, 1, 0.6), (5, 1, 0.6), (6, 1, 0.6)]


def _fits():
    out = []
    for seed, p, phi in PANELS:
        params = random_vecm_params(8, 2, p=p, phi_scale=phi, seed=seed)
        panel = simulate_vecm(params, 120, seed=seed + 1)
        target = panel.names[seed % 8]
        for fit in (specs_fit(panel, target, h=1),
                    padl_fit(panel, target, [1] * 8, h=1)):
            out.append({"seed": seed, "method": fit.method, "target": target,
                        "lambda": fit.lambdas,
                        "support": sorted(fit.nonzero()),
                        "forecast": fit.forecast})
    return out


def test_sparse_fits_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = _fits()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        key = (w["seed"], w["method"])
        assert (g["seed"], g["method"], g["target"]) == (
            w["seed"], w["method"], w["target"])
        assert g["lambda"] == w["lambda"], key
        assert g["support"] == w["support"], key
        assert np.isclose(g["forecast"], w["forecast"], rtol=1e-12,
                          atol=0.0), key


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(_fits(), fh, indent=1)
        fh.write("\n")
    sys.exit(0)
