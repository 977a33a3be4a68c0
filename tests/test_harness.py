"""Rolling-window evaluation engine and the autoregressive benchmark."""

import json

import numpy as np
import pytest

from hdcoint import (DataError, HarnessConfig, ParameterError,
                     ar_benchmark, from_values, random_vecm_params,
                     run_rolling, simulate_vecm)
from hdcoint.harness import _LANES, _REGISTRY, Lane
from hdcoint.panel import invert_differences


def _walk_panel(n, T, seed):
    rng = np.random.default_rng(seed)
    return from_values(rng.standard_normal((T, n)).cumsum(axis=0))


def _small_cfg(**kw):
    base = dict(window=60, horizons=(1,), methods=("ar", "var"),
                benchmark="ar", boot_reps=199, seed=0)
    base.update(kw)
    return HarnessConfig(**base)


class TestConfigValidation:
    def test_window_floor(self):
        with pytest.raises(ParameterError):
            _small_cfg(window=40)

    def test_benchmark_must_be_evaluated(self):
        with pytest.raises(ParameterError):
            _small_cfg(methods=("var",))

    def test_repeated_method_rejected(self):
        # losses, MSFEs and MCS p-values are keyed by method name
        with pytest.raises(ParameterError, match="repeat a name"):
            _small_cfg(methods=("ar", "var", "var"))

    @pytest.mark.parametrize("field", ["p_max", "factors"])
    def test_negative_lag_cap_or_factor_count_rejected(self, field):
        with pytest.raises(ParameterError, match="non-negative"):
            _small_cfg(**{field: -1})

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            run_rolling(_walk_panel(3, 80, 0).values,
                        _small_cfg(methods=("ar", "oracle9"),
                                   benchmark="ar"))

    @pytest.mark.parametrize("methods, horizons, factors", [
        (("ar", "favar"), (1,), 5), (("ar", "ndfm"), (1,), 9),
        (("ar", "fecm"), (1,), 5), (("ar", "fa_specs"), (0, 1), 4),
        (("ar", "fa_specs"), (1,), 4), (("ar", "fapadl"), (0,), 4)])
    def test_factor_count_above_the_panel_rejected(self, methods, horizons,
                                                   factors):
        # 4 series: at most 4 factors, 3 for a factor-augmented single
        # equation
        with pytest.raises(ParameterError, match="factors exceed"):
            run_rolling(_walk_panel(4, 100, 0),
                        _small_cfg(methods=methods, horizons=horizons,
                                   factors=factors, targets=(0,)))

    @pytest.mark.parametrize("methods, horizons, factors", [
        (("ar", "favar", "ndfm"), (1,), 4),
        (("ar", "fapadl"), (0, 1), 3)])
    def test_factor_count_at_the_bound_runs(self, methods, horizons,
                                            factors):
        report = run_rolling(_walk_panel(4, 62, 0),
                             _small_cfg(methods=methods, horizons=horizons,
                                        factors=factors, targets=(0,)))
        assert not [d for d in report.diagnostics if "outside" in d[4]]
        assert all(np.isfinite(f).all() for f in report.forecasts.values())

    def test_unknown_target(self):
        with pytest.raises(ParameterError):
            run_rolling(_walk_panel(3, 80, 0),
                        _small_cfg(targets=("nope",)))

    def test_window_longer_than_sample(self):
        with pytest.raises(DataError):
            run_rolling(_walk_panel(3, 50, 0).values, _small_cfg())

    @pytest.mark.parametrize("orders", [(3, 1, 1), (-1, 1, 1), (1, 1)])
    def test_orders_outside_zero_to_two_rejected_up_front(self, orders):
        # every lane differences through one rule, so a bad order must
        # stop the run before any window rather than fail lane by lane
        with pytest.raises(ParameterError):
            run_rolling(_walk_panel(3, 80, 0),
                        _small_cfg(orders=orders,
                                   methods=("ar", "var", "ml", "padl")))


class TestRelativeMsfe:
    def test_benchmark_is_exactly_one(self):
        report = run_rolling(_walk_panel(3, 100, 1), _small_cfg())
        for t in report.targets:
            assert report.rel_msfe[(t, 1)]["ar"] == 1.0

    def test_perfect_foresight_dominates(self, register_lane):
        # the context exposes the window bounds; the truth comes from the
        # full panel
        panel = _walk_panel(2, 120, 2)

        def oracle(ctx):
            return {(ti, h): panel.values[ctx.window_start + ctx.n_obs
                                          - 1 + h, ti]
                    for ti in ctx.targets for h in ctx.horizons}

        register_lane("oracle", oracle)
        report = run_rolling(panel, _small_cfg(
            methods=("ar", "oracle"), benchmark="ar"))
        for t in report.targets:
            assert report.rel_msfe[(t, 1)]["oracle"] == 0.0
            assert report.mcs_members[(t, 1)] == ("oracle",)

    def test_failing_method_reports_diagnostics(self, register_lane):
        def broken(ctx):
            raise DataError("window rejected on purpose")

        register_lane("broken", broken)
        report = run_rolling(_walk_panel(2, 100, 3), _small_cfg(
            methods=("ar", "broken"), benchmark="ar"))
        assert any("window rejected" in d[-1] for d in report.diagnostics)
        for t in report.targets:
            assert report.rel_msfe[(t, 1)]["broken"] is None


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        panel = _walk_panel(3, 110, 4)
        a = run_rolling(panel, _small_cfg())
        b = run_rolling(panel, _small_cfg())
        assert a.to_json() == b.to_json()

    def test_final_row_outlier_never_leaks(self):
        # the last observation sits outside every window/truth pair for
        # h=1 except as truth of the final window; only that single loss
        # row may change, and forecasts made before it must not
        values = _walk_panel(3, 110, 5).values
        spiked = values.copy()
        spiked[-1] += 250.0
        a = run_rolling(values, _small_cfg())
        b = run_rolling(spiked, _small_cfg())
        for key in a.forecasts:
            assert np.array_equal(a.forecasts[key], b.forecasts[key])


class TestNowcastLane:
    def test_h0_single_equation_runs(self):
        report = run_rolling(_walk_panel(2, 100, 6), _small_cfg(
            horizons=(0,), methods=("ar", "padl"), benchmark="ar"))
        for t in report.targets:
            assert report.rel_msfe[(t, 0)]["padl"] is not None

    def test_h0_hides_the_target_value(self):
        values = _walk_panel(2, 100, 7).values
        tweaked = values.copy()
        tweaked[-1, 0] += 40.0          # nowcast target at the final row
        cfg = _small_cfg(horizons=(0,), methods=("ar",), benchmark="ar",
                         targets=("s1",))
        a = run_rolling(values, cfg)
        b = run_rolling(tweaked, cfg)
        # same final-window forecast despite the shifted truth
        assert np.array_equal(a.forecasts[("s1", 0)][-1],
                              b.forecasts[("s1", 0)][-1])
        # the loss row differs because the truth moved
        assert not np.array_equal(a.losses[("s1", 0)][-1],
                                  b.losses[("s1", 0)][-1])

    def test_registered_lane_skips_h0_with_diagnostic(self, register_lane):
        # the last value in the window is the horizon-0 truth itself, so
        # a score there would be a perfect nowcast the lane cannot make
        def last_value(ctx):
            return {(ti, h): ctx.values[-1, ti]
                    for ti in ctx.targets for h in ctx.horizons}

        register_lane("last", last_value)
        assert _LANES["last"] == Lane(last_value)
        assert _REGISTRY["last"] is last_value
        report = run_rolling(_walk_panel(2, 100, 8), _small_cfg(
            horizons=(0, 1), methods=("ar", "last"), benchmark="ar"))
        assert [d for d in report.diagnostics if d[3] == "last"] == [
            (0, "*", 0, "last", "h=0 needs a single-equation method")]
        for t in report.targets:
            assert report.rel_msfe[(t, 0)]["last"] is None
            assert report.rel_msfe[(t, 1)]["last"] is not None

    def test_system_method_skips_h0_with_diagnostic(self):
        report = run_rolling(_walk_panel(2, 100, 8), _small_cfg(
            horizons=(0,), methods=("ar", "var"), benchmark="ar"))
        assert any(d[3] == "var" for d in report.diagnostics)
        for t in report.targets:
            assert report.rel_msfe[(t, 0)]["var"] is None


class TestArBenchmark:
    def test_white_noise_forecast_is_near_the_mean(self, rng):
        x = 5.0 + rng.standard_normal(400)
        fc = ar_benchmark(x, order=0, p_max=3, h=1)
        assert abs(fc - x.mean()) < 0.3

    def test_ar1_closed_form(self):
        rng = np.random.default_rng(9)
        x = np.zeros(600)
        for t in range(1, 600):
            x[t] = 0.7 * x[t - 1] + rng.standard_normal()
        h = 4
        fc = ar_benchmark(x, order=0, p_max=1, h=h)
        # fitted rho^h x_T, allowing estimation error in rho
        y0, y1 = x[:-1], x[1:]
        den = float(((y0 - y0.mean()) ** 2).sum())
        rho = float(((y0 - y0.mean()) * (y1 - y1.mean())).sum()) / den
        mu = y1.mean() - rho * y0.mean()
        expect = x[-1]
        for _ in range(h):
            expect = mu + rho * expect
        assert fc == pytest.approx(expect, abs=0.05)

    def test_random_walk_forecast_tracks_last_level(self, rng):
        x = rng.standard_normal(300).cumsum()
        fc = ar_benchmark(x, order=1, p_max=3, h=1)
        assert abs(fc - x[-1]) < 3.0

    def test_h0_refits_without_last_observation(self, rng):
        x = rng.standard_normal(250).cumsum()
        spiked = x.copy()
        spiked[-1] += 100.0
        assert ar_benchmark(x, 1, 3, h=0) == ar_benchmark(spiked, 1, 3, h=0)


class TestInvertDifferences:
    def test_first_difference_round_trip(self, rng):
        hist = rng.standard_normal(50).cumsum()
        path = rng.standard_normal(6)
        got = invert_differences(hist, path, 1)
        assert np.allclose(got, hist[-1] + np.cumsum(path), atol=1e-12)

    def test_second_difference_matches_manual_recursion(self, rng):
        hist = rng.standard_normal(50).cumsum().cumsum()
        path = rng.standard_normal(5)
        got = invert_differences(hist, path, 2)
        d1 = np.diff(hist)
        lvl, dl = hist[-1], d1[-1]
        expect = []
        for v in path:
            dl = dl + v
            lvl = lvl + dl
            expect.append(lvl)
        assert np.allclose(got, expect, atol=1e-10)

    def test_order_zero_is_identity(self, rng):
        path = rng.standard_normal(4)
        assert np.array_equal(invert_differences(np.array([1.0]), path, 0),
                              path)


class TestReportOutput:
    def test_json_and_csv_round_trip(self, tmp_path):
        report = run_rolling(_walk_panel(2, 100, 10), _small_cfg())
        doc = json.loads(report.to_json())
        assert doc["window"] == 60
        cells = {(r["target"], r["horizon"]): r["methods"]
                 for r in doc["results"]}
        assert cells[("s1", 1)]["ar"]["rel_msfe"] == 1.0
        assert "mcs_pvalue" in cells[("s1", 1)]["var"]
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        report.write_json(jpath)
        report.write_csv(cpath)
        assert json.loads(jpath.read_text()) == doc
        header = cpath.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["target", "horizon", "method"]


class TestCollinearPanels:
    """A window whose series are exactly collinear is one reported outcome
    for the system lanes: the Johansen solve's singular-system error."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", ["duplicate", "combination"])
    def test_ml_and_pml_report_the_singular_system(self, extra):
        params = random_vecm_params(8, 2, p=1, seed=0)
        z = simulate_vecm(params, 140, seed=1).values
        col = z[:, 0] if extra == "duplicate" else z[:, 0] + 2 * z[:, 1]
        cfg = HarnessConfig(window=114, horizons=(1, 3),
                            methods=("ar", "ml", "pml", "fecm", "ndfm"),
                            benchmark="ar", boot_reps=199, seed=0)
        report = run_rolling(np.column_stack([z, col]), cfg)
        system = [d for d in report.diagnostics if d[3] in ("ml", "pml")]
        assert len(system) == 2 * len(report.window_starts)
        assert {d[4] for d in system} == {
            "residual moment matrix is singular; reduce the lag order or rank"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", ["duplicate", "combination"])
    def test_qr_vecm_reports_the_singular_system(self, extra):
        # its stages are read off the same factor as the Johansen solve, so
        # it meets the collinear series with the same diagnostic
        params = random_vecm_params(8, 2, p=1, seed=0)
        z = simulate_vecm(params, 140, seed=1).values
        col = z[:, 0] if extra == "duplicate" else z[:, 0] + 2 * z[:, 1]
        cfg = HarnessConfig(window=114, horizons=(1, 3),
                            methods=("ar", "qr_vecm"), benchmark="ar",
                            boot_reps=199, seed=0)
        report = run_rolling(np.column_stack([z, col]), cfg)
        qr = [d for d in report.diagnostics if d[3] == "qr_vecm"]
        assert [d[0] for d in qr] == list(report.window_starts)
        assert {d[4] for d in qr} == {
            "residual moment matrix is singular; reduce the lag order or rank"}
