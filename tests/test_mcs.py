"""Model confidence sets over loss-differential bootstraps."""

import numpy as np
import pytest

from hdcoint import (DataError, HarnessConfig, ParameterError, from_values,
                     mcs, run_rolling)
from hdcoint.bootstrap import _multiplier_matrix
from hdcoint.harness import _eliminate


def _losses(rng, n=100, spread=0.0):
    base = rng.standard_normal(n) ** 2
    a = base + rng.standard_normal(n) * 0.1
    b = base + rng.standard_normal(n) * 0.1 + spread
    return np.column_stack([a, b])


class TestStructure:
    def test_identical_losses_keep_everyone(self, rng):
        col = rng.standard_normal(80) ** 2
        out = mcs(np.column_stack([col, col, col]), alpha=0.10, reps=199)
        assert out.members == ("m1", "m2", "m3")
        assert all(p == 1.0 for p in out.pvalues.values())

    def test_dominated_method_is_eliminated(self, rng):
        losses = _losses(rng, n=200, spread=5.0)
        out = mcs(losses, alpha=0.10, reps=199, names=["good", "bad"])
        assert out.members == ("good",)
        assert out.eliminated[0] == "bad"

    def test_best_method_survives_any_level(self, rng):
        losses = _losses(rng, n=150, spread=1.0)
        for alpha in (0.01, 0.10, 0.40):
            out = mcs(losses, alpha=alpha, reps=199, names=["good", "bad"])
            assert "good" in out.members
            assert out.pvalues["good"] == 1.0

    def test_membership_monotone_in_alpha(self, rng):
        losses = np.column_stack([_losses(rng, n=120, spread=0.3),
                                  rng.standard_normal(120) ** 2])
        sets = []
        for alpha in (0.40, 0.10, 0.01):
            out = mcs(losses, alpha=alpha, reps=199, seed=3)
            sets.append(set(out.members))
        assert sets[0] <= sets[1] <= sets[2]

    def test_full_elimination_order_recorded(self, rng):
        losses = _losses(rng, n=100, spread=2.0)
        out = mcs(losses, alpha=0.10, reps=199)
        assert len(out.eliminated) == len(out.names) - 1
        survivor, = set(out.names) - set(out.eliminated)
        assert survivor in out.members
        assert out.pvalues[survivor] == 1.0

    def test_contains_protocol(self, rng):
        out = mcs(_losses(rng, n=100), alpha=0.10, reps=199,
                  names=["x", "y"])
        for name in out.members:
            assert name in out

    def test_determinism_by_seed(self, rng):
        losses = _losses(rng, n=90, spread=0.2)
        a = mcs(losses, reps=199, seed=11)
        b = mcs(losses, reps=199, seed=11)
        assert a.pvalues == b.pvalues
        assert a.members == b.members


class TestValidation:
    def test_needs_two_methods(self, rng):
        with pytest.raises(ParameterError):
            mcs(rng.standard_normal((50, 1)) ** 2)

    def test_repeated_names_rejected(self, rng):
        losses = np.column_stack([_losses(rng), _losses(rng)[:, :1]])
        with pytest.raises(ParameterError, match="repeat a name"):
            mcs(losses, reps=199, names=("a", "a", "b"))

    def test_needs_thirty_rows(self, rng):
        with pytest.raises(DataError):
            mcs(rng.standard_normal((20, 2)) ** 2, reps=199)

    def test_rejects_non_finite(self, rng):
        losses = rng.standard_normal((60, 2)) ** 2
        losses[5, 1] = np.nan
        with pytest.raises(DataError):
            mcs(losses, reps=199)

    def test_alpha_domain(self, rng):
        with pytest.raises(ParameterError):
            mcs(rng.standard_normal((60, 2)) ** 2, alpha=0.0, reps=199)

    @pytest.mark.parametrize("reps, gamma", [(0, 0.85), (-3, 0.85),
                                             (198, 0.85), (199, 1.5),
                                             (199, -0.1)])
    def test_multiplier_domain(self, rng, reps, gamma):
        # the bounds AwbConfig enforces; 0 draws made every p-value 0
        with pytest.raises(ParameterError):
            mcs(rng.standard_normal((60, 2)) ** 2, reps=reps, gamma=gamma)
        with pytest.raises(ParameterError):
            HarnessConfig(boot_reps=reps, gamma=gamma)


class TestCoverage:
    def test_equal_quality_streams_usually_both_retained(self):
        rng = np.random.default_rng(7)
        both = 0
        reps = 60
        for _ in range(reps):
            common = rng.standard_normal(100) ** 2
            losses = np.column_stack([
                common + 0.2 * rng.standard_normal(100),
                common + 0.2 * rng.standard_normal(100)])
            out = mcs(losses, alpha=0.10, reps=199,
                      seed=int(rng.integers(1 << 30)))
            both += len(out.members) == 2
        # nominal retention 90%; allow wide MC slack at 60 reps
        assert both / reps >= 0.80


class TestSharedDraw:
    def test_prefix_of_a_longer_draw_is_bit_identical(self):
        longer = _multiplier_matrix(199, 60, 0.85, 3)[:, :32]
        assert np.array_equal(longer, _multiplier_matrix(199, 32, 0.85, 3))

    def test_rolling_pvalues_equal_direct_calls(self, register_lane):
        rng = np.random.default_rng(21)
        panel = from_values(rng.standard_normal((100, 3)).cumsum(axis=0))

        def gappy(ctx):
            # a naive forecast that fails on every fifth window for the
            # first target only, so the keys keep different window counts
            skip = ctx.window_start % 5 == 0
            return {(ti, h): np.nan if skip and ti == 0 else ctx.values[-1, ti]
                    for ti in ctx.targets for h in ctx.horizons}

        cfg = HarnessConfig(window=60, horizons=(1, 3), targets=(0, 2),
                            methods=("ar", "var", "gappy"), benchmark="ar",
                            boot_reps=199, seed=4)
        register_lane("gappy", gappy)
        report = run_rolling(panel, cfg)
        rows = set()
        for key, loss in report.losses.items():
            ok = np.isfinite(loss).all(axis=1)
            rows.add(int(ok.sum()))
            direct = mcs(loss[ok], alpha=cfg.mcs_level, gamma=cfg.gamma,
                         reps=cfg.boot_reps, seed=cfg.seed, names=cfg.methods)
            assert report.mcs_pvalues[key] == direct.pvalues
            assert report.mcs_members[key] == direct.members
        assert len(report.losses) == 4
        assert len(rows) == 2 and min(rows) >= 30


def _eliminate_by_round(L, xi, alpha, names):
    """The elimination one bootstrap product per round replaced: each
    round forms the differentials of its active pairs afresh."""
    n, K = L.shape
    means = L.mean(axis=0)
    active = list(range(K))
    pvalues, eliminated, running = {}, [], 0.0
    while len(active) > 1:
        pairs = [(i, j) for a, i in enumerate(active)
                 for j in active[a + 1:]]
        D = np.column_stack([L[:, i] - L[:, j] for i, j in pairs])
        dbar = D.mean(axis=0)
        boot = xi @ (D - dbar) / n
        se = boot.std(axis=0, ddof=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_obs = np.where(se > 0, np.abs(dbar) / se,
                             np.where(dbar == 0, 0.0, np.inf))
            t_boot = np.abs(np.where(se > 0, boot / se, 0.0))
        T_obs = float(np.max(t_obs))
        p_round = 1.0 if T_obs == 0 else float(
            np.mean(t_boot.max(axis=1) >= T_obs))
        running = max(running, p_round)
        worst = active[int(np.argmax(means[active]))]
        pvalues[names[worst]] = running
        eliminated.append(names[worst])
        active.remove(worst)
    pvalues[names[active[0]]] = 1.0
    members = tuple(nm for nm in names if pvalues[nm] >= alpha)
    return pvalues, members, tuple(eliminated)


class TestOneBootstrapPerKey:
    """All pairs bootstrapped once give the round-by-round p-values,
    members and elimination order, ties and degenerate pairs included."""

    def test_matches_the_round_by_round_elimination(self):
        rng = np.random.default_rng(31)
        for case in range(120):
            n, K = int(rng.integers(30, 70)), int(rng.integers(2, 9))
            base = rng.standard_normal(n) ** 2
            L = base[:, None] + rng.standard_normal((n, K)) \
                * rng.uniform(0.05, 1.0, size=K) + rng.uniform(0, 0.5, size=K)
            if case % 3 == 0 and K > 2:
                L[:, 1] = L[:, 0]              # a duplicated column
            if case % 4 == 1 and K > 2:
                L[:, 2] = L[:, 0] + 0.25       # a zero-variance pair
            if case % 5 == 2:
                L = np.round(L, 1)             # tied means and losses
            xi = _multiplier_matrix(199, n, 0.85, case)
            names = tuple(f"m{i}" for i in range(K))
            alpha = float(rng.uniform(0.05, 0.5))
            got = _eliminate(L, xi, alpha, names)
            want = _eliminate_by_round(L, xi, alpha, names)
            assert (got.pvalues, got.members, got.eliminated) == want
            assert list(got.pvalues) == list(want[0])
