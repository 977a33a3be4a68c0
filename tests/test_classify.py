"""Classification procedures: iADF, sequential quantile test, FDR control.

The sequential and FDR tests run on small hand-built statistic matrices
so every cutoff can be recomputed inline; the Pantula round tests use
short Monte Carlo panels.
"""

import json

import numpy as np
import pytest

from hdcoint import (AwbConfig, ClassifyConfig, ParameterError,
                     classify_bfdr, classify_bsqt, classify_iadf, from_values,
                     left_tail_quantile, mackinnon_critical_value,
                     pantula_classify)


class TestIadf:
    def test_elementwise_comparison(self):
        got = classify_iadf(np.array([-2.0, -0.5]), np.array([-1.5, -1.5]))
        assert got.tolist() == [True, False]

    def test_all_above_cutoffs_empty(self):
        got = classify_iadf(np.zeros(5), np.full(5, -1.0))
        assert not got.any()


def _boot(rng, n, b=199):
    return rng.normal(-1.0, 1.0, size=(b, n))


class TestBsqt:
    # the grid (0, .25, .5, .75) at level 0.05
    grid = dict(alpha=0.05, step=0.25)

    def test_first_round_cutoff_matches_order_statistic_oracle(self, rng):
        ur = np.array([-3.0, -0.5, -2.5, -0.1])
        boot = _boot(rng, 4)
        out = classify_bsqt(ur, boot, **self.grid)
        # p = {0, 1, 2, 3, 4}: round 1 tests "0 I(0)" vs "at least 1" via
        # the sample minimum against the bootstrap minimum's 5% quantile
        expect = float(left_tail_quantile(boot.min(axis=1), 0.05))
        assert out.steps[0]["statistic"] == -3.0
        assert out.steps[0]["cutoff"] == pytest.approx(expect, abs=1e-12)

    def test_second_round_conditions_on_survivors(self, rng):
        ur = np.array([-8.0, -0.5, -7.0, -0.1])
        boot = _boot(rng, 4)
        out = classify_bsqt(ur, boot, **self.grid)
        assert out.count >= 1
        # series 0 classified in round 1; round 2 bootstraps the minimum
        # over the three remaining columns only
        remaining = boot[:, [2, 1, 3]]
        expect = float(left_tail_quantile(remaining.min(axis=1), 0.05))
        assert out.steps[1]["statistic"] == -7.0
        assert out.steps[1]["cutoff"] == pytest.approx(expect, abs=1e-12)

    def test_all_quantiles_below_observed_gives_zero(self, rng):
        boot = _boot(rng, 4) - 10.0
        out = classify_bsqt(np.zeros(4), boot, **self.grid)
        assert out.count == 0
        assert not out.rejected.any()
        assert out.interval == (0, 1)

    def test_single_quantile_falls_back_to_joint_test(self, rng):
        ur = np.array([-3.0, -0.5, -2.5, -0.1])
        boot = _boot(rng, 4)
        # step 1 gives the grid (0,)
        out = classify_bsqt(ur, boot, step=1.0)
        assert len(out.steps) == 1
        assert out.steps[0]["alternative"] == 4
        # the joint statistic is the largest (least significant) value
        assert out.steps[0]["statistic"] == -0.1
        expect = float(left_tail_quantile(boot.max(axis=1), 0.05))
        assert out.steps[0]["cutoff"] == pytest.approx(expect, abs=1e-12)

    def test_unit_grid_on_single_series_is_union_test(self, rng):
        boot = _boot(rng, 1)
        # the grid (0, 1) and step 1's (0,) both give the boundaries (0, N)
        cfg = dict(alpha=0.05, step=1.0)
        cutoff = float(left_tail_quantile(boot[:, 0], 0.05))
        below = classify_bsqt(np.array([cutoff - 0.1]), boot, **cfg)
        above = classify_bsqt(np.array([cutoff + 0.1]), boot, **cfg)
        assert below.count == 1 and above.count == 0

    def test_stepwise_grid_gives_unit_rounds(self, rng):
        # p_k = k - 1 recovers a one-at-a-time sequential procedure
        n = 6
        ur = -np.linspace(9.0, 8.0, n)            # all deeply significant
        # step 1/n gives the grid k/n, k < n
        out = classify_bsqt(ur, _boot(rng, n), step=1 / n)
        sizes = [s["alternative"] - s["null_count"] for s in out.steps]
        assert all(sz == 1 for sz in sizes)
        assert out.count == n

    @staticmethod
    def _grid_boundaries(n, step):
        """The boundaries as rounded off the full grid np.arange(0, 1, step)."""
        thresholds = [0]
        for p in [int(np.floor(q * n + 0.5))
                  for q in np.arange(0.0, 1.0, step)] + [n]:
            if p > thresholds[-1]:
                thresholds.append(p)
        return thresholds

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_fine_steps_give_the_grid_boundaries(self, rng, n):
        boot = _boot(rng, n)
        for step in (1 / n, 1 / (n + 1), 1 / (3 * n), 1e-4):
            want = self._grid_boundaries(n, step)
            # all deeply significant: every boundary gets its round
            out = classify_bsqt(-np.linspace(9.0, 8.0, n), boot, step=step)
            got = [s["null_count"] for s in out.steps]
            assert got + [out.steps[-1]["alternative"]] == want
            # mixed: the rounds run a prefix of the boundaries
            out = classify_bsqt(rng.normal(-1.5, 1.5, size=n), boot,
                                step=step)
            got = [s["null_count"] for s in out.steps]
            assert got + [out.steps[-1]["alternative"]] == want[:len(got) + 1]

    def test_tiny_step_is_the_stepwise_grid(self, rng):
        # 1e-9 would be a grid of 1e9 quantiles; it gives step 1/N's rounds
        n = 40
        ur, boot = rng.normal(-2.0, 1.5, size=n), _boot(rng, n)
        tiny, unit = (classify_bsqt(ur, boot, step=s) for s in (1e-9, 1 / n))
        assert (tiny.rejected == unit.rejected).all()
        assert (tiny.count, tiny.interval, tiny.steps) == (
            unit.count, unit.interval, unit.steps)
        assert len(tiny.steps) > 1

    @pytest.mark.parametrize("step", [0.0, -0.25, 1.5, float("nan")])
    def test_step_outside_the_unit_interval_rejected(self, rng, step):
        with pytest.raises(ParameterError, match="quantile step"):
            classify_bsqt(np.zeros(3), _boot(rng, 3), step=step)
        with pytest.raises(ParameterError, match="quantile step"):
            ClassifyConfig(quantile_step=step)

    def test_rejection_set_is_a_ranking_prefix(self, rng):
        for _ in range(20):
            ur = rng.normal(-1.5, 1.5, size=7)
            out = classify_bsqt(ur, _boot(rng, 7), **self.grid)
            ranked = np.argsort(ur, kind="stable")
            assert set(np.where(out.rejected)[0]) == set(ranked[:out.count])


class TestBfdr:
    ur = np.array([-5.0, -1.0])
    boot = np.array([[-2.0, -1.5], [-0.5, -3.0], [-1.0, -0.2], [-4.0, -0.9]])

    def test_hand_computed_fdr_path(self):
        # step 1: no bootstrap draw in either column falls below -5.0, so
        # the FDR estimate is 0; step 2 conditions on the one remaining
        # column where 2 of 4 draws fall below -1.0, each counted against
        # the single prior rejection: mean(1/2, 1/2, 0, 0) = 0.25
        out = classify_bfdr(self.ur, self.boot, alpha=0.05)
        assert out.count == 1
        assert out.steps[0]["fdr_estimate"] == 0.0
        assert out.steps[1]["fdr_estimate"] == pytest.approx(0.25)
        assert not out.steps[1]["rejected"]

    def test_looser_alpha_extends_the_prefix(self):
        out = classify_bfdr(self.ur, self.boot, alpha=0.25)
        assert out.count == 2
        assert out.rejected.all()

    def test_ties_break_toward_non_rejection(self):
        # boot draws exactly at the statistic do not count as false
        # rejections (strict inequality), keeping the estimate at 0
        ur = np.array([-2.0])
        boot = np.full((10, 1), -2.0)
        out = classify_bfdr(ur, boot, alpha=0.05)
        assert out.steps[0]["fdr_estimate"] == 0.0
        assert out.count == 1

    def test_prefix_property_random(self, rng):
        for _ in range(20):
            ur = rng.normal(-1.5, 1.5, size=6)
            boot = rng.normal(-1.0, 1.0, size=(99, 6))
            out = classify_bfdr(ur, boot, alpha=0.10)
            ranked = np.argsort(ur, kind="stable")
            assert set(np.where(out.rejected)[0]) == set(ranked[:out.count])


def _cfg(seed, alpha=0.05):
    return ClassifyConfig(alpha=alpha,
                          awb=AwbConfig(reps=199, seed=seed, alpha=alpha))


class TestPantula:
    def test_white_noise_is_predominantly_order_zero(self):
        rng = np.random.default_rng(2)
        hits = total = 0
        for rep in range(8):
            panel = from_values(rng.standard_normal((400, 3)))
            rpt = pantula_classify(panel, method="bsqt", strategy=2,
                                   cfg=_cfg(rep))
            hits += int((rpt.orders == 0).sum())
            total += 3
        assert hits / total >= 0.9

    def test_double_integration_is_detected(self):
        rng = np.random.default_rng(3)
        hits = total = 0
        for rep in range(8):
            z = rng.standard_normal((200, 3)).cumsum(axis=0).cumsum(axis=0)
            rpt = pantula_classify(from_values(z), method="bsqt", strategy=2,
                                   cfg=_cfg(100 + rep))
            hits += int((rpt.orders == 2).sum())
            total += 3
        assert hits / total >= 0.75

    def test_strategy_one_needs_prior_information(self):
        panel = from_values(np.random.default_rng(0).standard_normal((80, 2)))
        with pytest.raises(ParameterError):
            pantula_classify(panel, strategy=1, cfg=_cfg(0))

    def test_strategy_one_with_at_most_i1(self):
        rng = np.random.default_rng(5)
        z = np.column_stack([rng.standard_normal(200),
                             rng.standard_normal(200).cumsum()])
        cfg = ClassifyConfig(awb=AwbConfig(reps=199, seed=7), at_most_i1=True)
        rpt = pantula_classify(from_values(z), strategy=1, cfg=cfg)
        assert set(rpt.orders) <= {0, 1}

    def test_methods_agree_on_single_series(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((200, 1))
        orders = [pantula_classify(from_values(z), method=m, strategy=2,
                                   cfg=_cfg(11)).orders[0]
                  for m in ("iadf", "bsqt", "bfdr")]
        assert orders[0] == orders[1] == orders[2]

    def test_report_round_trip_and_accessors(self):
        rng = np.random.default_rng(1)
        z = np.column_stack([rng.standard_normal(150),
                             rng.standard_normal(150).cumsum()])
        panel = from_values(z, names=["flux", "stock"])
        rpt = pantula_classify(panel, method="bsqt", strategy=2, cfg=_cfg(4))
        doc = json.loads(rpt.to_json())
        assert tuple(e["series"] for e in doc["series"]) == rpt.names
        assert [e["order"] for e in doc["series"]] == rpt.orders.tolist()
        assert (doc["method"], doc["strategy"]) == ("bsqt", 2)
        assert sum(rpt.counts().values()) == 2
        assert "method=bsqt" in rpt.summary()

    @pytest.mark.parametrize("method", ["bsqt", "iadf"])
    def test_permuting_series_permutes_the_report(self, method):
        rng = np.random.default_rng(17)
        e = rng.standard_normal((160, 6))
        z = np.column_stack([e[:, 0], e[:, 1].cumsum(),
                             e[:, 2].cumsum().cumsum(), e[:, 3],
                             e[:, 4].cumsum(), e[:, 5].cumsum()])
        for j, lead in enumerate([0, 12, 0, 30, 5, 47]):
            z[:lead, j] = np.nan
        names = [f"s{j}" for j in range(6)]
        perm = np.array([3, 2, 5, 4, 1, 0])
        a = pantula_classify(from_values(z, names=names), method=method,
                             cfg=_cfg(3))
        b = pantula_classify(
            from_values(z[:, perm], names=[names[i] for i in perm]),
            method=method, cfg=_cfg(3))
        assert np.array_equal(a.orders[perm], b.orders)
        assert len(a.rounds) == len(b.rounds)
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra.statistics == rb.statistics
            assert set(ra.rejected) == set(rb.rejected)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        panel = from_values(rng.standard_normal((150, 3)).cumsum(axis=0))
        a = pantula_classify(panel, method="bfdr", strategy=2, cfg=_cfg(21))
        b = pantula_classify(panel, method="bfdr", strategy=2, cfg=_cfg(21))
        assert np.array_equal(a.orders, b.orders)


class TestNaiveBaseline:
    def test_response_surface_limits(self):
        assert mackinnon_critical_value(0.05, 10**9) == pytest.approx(
            -3.4126, abs=1e-4)

    def test_monotone_in_alpha(self):
        cvs = [mackinnon_critical_value(a, 200) for a in (0.01, 0.05, 0.10)]
        assert cvs[0] < cvs[1] < cvs[2]

    def test_unsupported_level_rejected(self):
        with pytest.raises(ParameterError):
            mackinnon_critical_value(0.07, 200)

    def test_naive_method_runs(self):
        rng = np.random.default_rng(17)
        z = np.column_stack([rng.standard_normal(300),
                             rng.standard_normal(300).cumsum()])
        rpt = pantula_classify(from_values(z), method="naive", strategy=2,
                               cfg=_cfg(3))
        assert rpt.method == "naive"
        assert set(rpt.orders) <= {0, 1, 2}
