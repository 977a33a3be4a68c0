"""Rolling-window evaluation engine and the autoregressive benchmark."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from hdcoint import (DataError, HarnessConfig, NumericalError, ParameterError,
                     ar_benchmark, from_values, harness, random_vecm_params,
                     run_rolling, simulate_vecm)
from hdcoint.errors import attempt, per_window
from hdcoint.harness import _LANES, _REGISTRY, _Block
from hdcoint.panel import (DeterministicSpec, detrend, difference_columns,
                           invert_differences)


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

    def test_fecm_targets_and_factors_above_the_panel_rejected(self):
        # fecm's levels factors join its targets in one system that the N
        # series span; every series a target (the default) leaves no room
        z = simulate_vecm(random_vecm_params(4, 1, p=1, seed=3), 140,
                          seed=4).values
        cfg = _small_cfg(window=120, methods=("ar", "fecm"), factors=1)
        with pytest.raises(ParameterError, match="4 targets and 1 factors "
                           "exceed the 4 series .* at most 4$"):
            run_rolling(z, cfg)
        at_bound = run_rolling(z, _small_cfg(
            window=120, methods=("ar", "fecm"), factors=2, targets=(0, 1)))
        assert at_bound.diagnostics == ()
        # without factors the lane is a plain VECM of its targets, and the
        # other factor lanes draw theirs from every series
        for methods, factors in ((("ar", "fecm"), 0), (("ar", "ndfm"), 1)):
            report = run_rolling(z, _small_cfg(window=120, methods=methods,
                                               factors=factors))
            assert report.diagnostics == ()

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
        seen = []

        def last_value(ctx):
            seen.append(ctx.window_start)
            return {(ti, h): ctx.values[-1, ti]
                    for ti in ctx.targets for h in ctx.horizons}

        register_lane("last", last_value)
        report = run_rolling(_walk_panel(2, 100, 8), _small_cfg(
            horizons=(0, 1), methods=("ar", "last"), benchmark="ar"))
        # the lane takes blocks of windows, and calls the registered
        # function once per window
        assert not _LANES["last"].nowcasts
        assert seen == list(report.window_starts)
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


class TestFactorLanes:
    def test_factors_are_extracted_once_per_window(self, monkeypatch):
        # h >= 1 shares one extraction from every series; each h = 0
        # nowcast leaves its own target out
        seen = []
        extract = harness.extract_factors_diff

        def counted(data, k):
            seen.append(data.shape[1])
            return extract(data, k)

        monkeypatch.setattr(harness, "extract_factors_diff", counted)
        cfg = _small_cfg(horizons=(0, 1, 2), targets=(0, 2), factors=1,
                         methods=("ar", "fa_specs", "fapadl"))
        report = run_rolling(_walk_panel(4, 64, 21), cfg)
        assert len(report.window_starts) == 3
        assert sorted(seen) == [3] * 12 + [4] * 6


class TestMemoryLayout:
    def test_forecasts_do_not_depend_on_the_input_layout(self):
        # windows are copied to C order and the differencing rule returns
        # C order, so a Fortran-ordered panel gives the same bits
        z = simulate_vecm(random_vecm_params(8, 2, p=1, seed=5), 170,
                          seed=6).values
        assert difference_columns(np.asfortranarray(z), [1] * 8) \
            .flags.c_contiguous
        cfg = HarnessConfig(window=120, horizons=(1, 2), targets=(0, 3),
                            methods=("ar", "var", "favar", "ml", "fecm",
                                     "ndfm", "qr_vecm", "pml"),
                            benchmark="ar", boot_reps=199, seed=0)
        c_run = run_rolling(np.ascontiguousarray(z), cfg)
        f_run = run_rolling(np.asfortranarray(z), cfg)
        assert c_run.diagnostics == f_run.diagnostics == ()
        for key, fc in c_run.forecasts.items():
            assert np.isfinite(fc).all()
            assert f_run.forecasts[key].tobytes() == fc.tobytes()


class TestCollinearPanels:
    """A window whose series are exactly collinear is one reported outcome
    for the system lanes: the Johansen solve's singular-system error."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", ["duplicate", "combination"])
    def test_ml_and_pml_report_the_singular_system(self, extra):
        params = random_vecm_params(8, 2, p=1, seed=0)
        z = simulate_vecm(params, 140, seed=1).values
        col = z[:, 0] if extra == "duplicate" else z[:, 0] + 2 * z[:, 1]
        # the targets hold the collinear columns, and leave the factor
        # lanes room for their four factors
        cfg = HarnessConfig(window=114, horizons=(1, 3), targets=(0, 1, 8),
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


@pytest.mark.blas_threads
class TestWindowBlocks:
    """``run_rolling`` hands each lane its windows in blocks of
    ``_WINDOW_BLOCK``; the report does not depend on the block size."""

    SYSTEM = ("ar", "var", "ml", "qr_vecm", "pml", "fecm", "ndfm")

    @staticmethod
    def _run(monkeypatch, block, data, cfg):
        monkeypatch.setattr(harness, "_WINDOW_BLOCK", block)
        return run_rolling(data, cfg)

    def test_system_lanes_are_identical_across_block_sizes(self, monkeypatch):
        # the seventh series is constant for 75 rows: the QR estimator's
        # early folds are singular in the last 15 windows, so the stacked
        # fits hold failing and fitted windows in the same blocks
        z = simulate_vecm(random_vecm_params(6, 2, p=1, seed=11), 106,
                          seed=12).values
        walk = 2.5 + np.random.default_rng(13).standard_normal(31).cumsum()
        z = np.column_stack([z, np.concatenate([np.full(75, 2.5), walk])])
        cfg = HarnessConfig(window=60, horizons=(1, 3), targets=(0, 2, 6),
                            methods=self.SYSTEM, benchmark="ar",
                            boot_reps=199, seed=3, factors=2)
        reports = [self._run(monkeypatch, block, z, cfg)
                   for block in (1, 7, 32)]
        first = reports[0]
        assert len(first.window_starts) >= 40
        assert [d[0] for d in first.diagnostics if d[3] == "qr_vecm"] == \
            list(range(29, 44))
        for other in reports[1:]:
            assert other.to_json() == first.to_json()
            assert other.diagnostics == first.diagnostics
            for key, fc in first.forecasts.items():
                assert other.forecasts[key].tobytes() == fc.tobytes()

    def test_failing_and_fitted_windows_share_a_block(self, monkeypatch):
        # the second series copies the first until row 75, then walks
        # apart: the targets' systems are singular in the first 17 windows
        # and fit in the rest, so the 32-window block holds both
        rng = np.random.default_rng(5)
        z = rng.standard_normal((110, 5)).cumsum(axis=0)
        z[:, 1] = z[:, 0] + np.where(np.arange(110) >= 75,
                                     z[:, 1] - z[75, 1], 0.0)
        # no panel makes the NDFM factor VECM fail exactly (the extra
        # factors of a rank-deficient panel are rounding noise, of full
        # rank), so it fails in the windows whose first factor ended
        # below its start, a rule of each window's own values
        from hdcoint import factors
        fit, failed = factors.johansen_ml, []

        def failing(data, r, p, det="none"):
            models = fit(data, r, p, det)
            if det != "mean":
                return models
            down = data[:, -1, 0] < data[:, 0, 0]
            failed.append(list(down))
            return [NumericalError("injected") if d else m
                    for d, m in zip(down, models)]

        monkeypatch.setattr(factors, "johansen_ml", failing)
        cfg = HarnessConfig(window=60, horizons=(1, 3), targets=(0, 1),
                            methods=self.SYSTEM, benchmark="ar",
                            boot_reps=199, seed=3, factors=3)
        reports = []
        for block in (1, 7, 32):
            failed.clear()
            reports.append(self._run(monkeypatch, block, z, cfg))
        first = reports[0]
        starts = list(first.window_starts)
        assert len(starts) == 48
        for lane in ("ml", "pml", "fecm"):
            assert [d[0] for d in first.diagnostics if d[3] == lane] == \
                list(range(17)), lane
        # the last run's first call saw the first block of 32 windows
        assert len(failed[0]) == 32 and 0 < sum(failed[0]) < 32
        assert not [d for d in first.diagnostics if d[3] == "ndfm"]
        for other in reports[1:]:
            assert other.to_json() == first.to_json()
            assert other.diagnostics == first.diagnostics
            for key, fc in first.forecasts.items():
                assert other.forecasts[key].tobytes() == fc.tobytes()

    def test_registered_lanes_see_their_windows_in_order(
            self, monkeypatch, register_lane):
        seen = {"fifth": [], "third": []}

        def lane(name, every):
            def forecast(ctx):
                seen[name].append(ctx.window_start)
                if ctx.window_start % every == 0:
                    raise DataError(f"{name} rejects {ctx.window_start}")
                return {(ti, h): ctx.values[-1, ti]
                        for ti in ctx.targets for h in ctx.horizons}
            return forecast

        register_lane("fifth", lane("fifth", 5))
        register_lane("third", lane("third", 3))
        panel = _walk_panel(2, 105, 9)
        cfg = _small_cfg(methods=("ar", "fifth", "third"), benchmark="ar")
        blocked = self._run(monkeypatch, 7, panel, cfg)
        starts = list(blocked.window_starts)
        assert len(starts) >= 40
        assert seen == {"fifth": starts, "third": starts}
        # a window error is a diagnostic of its window only, recorded window
        # by window, in method order
        assert list(blocked.diagnostics) == [
            (s, "*", -1, name, f"{name} rejects {s}")
            for s in starts for name, every in (("fifth", 5), ("third", 3))
            if s % every == 0]
        single = self._run(monkeypatch, 1, panel, cfg)
        assert single.to_json() == blocked.to_json()
        assert single.diagnostics == blocked.diagnostics

    def test_other_errors_still_stop_the_run(self, monkeypatch,
                                             register_lane):
        def broken(ctx):
            if ctx.window_start == 9:
                raise RuntimeError("lane bug")
            return {}

        register_lane("broken", broken)
        with pytest.raises(RuntimeError, match="lane bug"):
            self._run(monkeypatch, 7, _walk_panel(2, 105, 9), _small_cfg(
                methods=("ar", "broken"), benchmark="ar"))


@pytest.mark.blas_threads
class TestBlockRecord:
    """A registered lane gets window w of a block as ``block[w]``: the
    block's record with the window axis indexed away."""

    def test_each_window_is_detrended_alone(self, register_lane,
                                            monkeypatch):
        seen = []

        def record(ctx):
            seen.append(ctx)
            return {}

        register_lane("record", record)
        # 32 windows of T = 60, N = 7, one block: on this panel, one
        # regression on the windows side by side moves the residuals of 30
        z = _walk_panel(7, 92, 31).values
        cfg = _small_cfg(methods=("ar", "record"), targets=(0, 4),
                         horizons=(0, 1))
        report = run_rolling(z, cfg)
        assert len(seen) == len(report.window_starts) == harness._WINDOW_BLOCK
        trend = DeterministicSpec.TREND.design(60)
        for s, ctx in zip(report.window_starts, seen):
            assert type(ctx.window_start) is int and ctx.window_start == s
            assert ctx.n_obs == 60 and ctx.horizons == (0, 1)
            assert ctx.cfg is cfg and ctx.targets.tolist() == [0, 4]
            assert ctx.orders.tolist() == [1] * 7
            resid, coef = detrend(z[s:s + 60])
            assert ctx.values.tobytes() == z[s:s + 60].tobytes()
            assert ctx.resid.tobytes() == resid.tobytes()
            assert ctx.trend_coef.tobytes() == coef.tobytes()
            for ti in (0, 4):
                # the nowcast's column, detrended alone without its final
                # value, in place of the target's residuals
                c = detrend(z[s:s + 59, ti])[1]
                want = resid.copy()
                want[:, ti] = z[s:s + 60, ti] - trend @ c
                panel, det = ctx.now_parts(ti)
                assert panel.tobytes() == want.tobytes()
                assert det == float(c[0] + c[1] * 60)
        # three nowcasting lanes share each window's and target's one
        # detrend of its now column
        calls, fit = [], harness.detrend

        def counted(x):
            calls.append(np.ndim(x))
            return fit(x)

        monkeypatch.setattr(harness, "detrend", counted)
        now = run_rolling(z, _small_cfg(methods=("ar", "padl", "fapadl"),
                                        targets=(0, 4), horizons=(0,),
                                        factors=1))
        n_win = len(now.window_starts)
        assert calls.count(2) == n_win and calls.count(1) == n_win * 2


def _raise(exc):
    raise exc


@pytest.mark.blas_threads
class TestLaneContract:
    """Every lane takes a block of windows and gives per window, in order,
    its forecasts or the window error it raised (``errors.attempt`` and
    ``errors.per_window``)."""

    BUILT_IN = ("ar", "var", "favar", "ml", "qr_vecm", "pml", "fecm", "ndfm",
                "specs", "fa_specs", "padl", "fapadl")

    def test_the_contract_tests_cover_every_built_in_lane(self):
        assert set(self.BUILT_IN) == set(_REGISTRY) == set(_LANES)
        assert len(self.BUILT_IN) == 12

    @pytest.mark.parametrize("method", BUILT_IN)
    def test_a_block_gives_one_result_per_window_in_order(self, method):
        z = simulate_vecm(random_vecm_params(6, 2, p=1, seed=7), 75,
                          seed=8).values
        cfg = _small_cfg(horizons=(0, 1, 3), targets=(0, 2), factors=2)
        targets = np.array([0, 2])
        # the fourth series is I(2), so the lanes difference it
        orders = np.array([1, 1, 1, 2, 1, 1])
        block = _REGISTRY[method](_Block.build(z, (0, 6, 12), targets,
                                               orders, cfg))
        assert len(block) == 3
        hs = cfg.horizons if _LANES[method].nowcasts else (1, 3)
        for s, got in zip((0, 6, 12), block):
            assert set(got) == {(ti, h) for ti in targets for h in hs}
            assert all(np.isfinite(v) for v in got.values())
            # each window's result is the one it gets alone
            (alone,) = _REGISTRY[method](_Block.build(z, (s,), targets,
                                                      orders, cfg))
            assert alone == got

    def test_a_prepare_error_fails_every_window_of_its_lane(self):
        # the I(2) series leaves the factor-augmented VAR 58 differenced
        # rows, too few for 58 factors in every window alike
        report = run_rolling(_walk_panel(70, 62, 1), _small_cfg(
            methods=("ar", "favar"), factors=58, orders=(2,) + (1,) * 69,
            targets=(0,)))
        assert len(report.window_starts) == 2
        assert report.diagnostics == tuple(
            (s, "*", -1, "favar", "factor count 58 outside [0, 57]")
            for s in report.window_starts)

    def test_specs_on_an_i2_target_fails_each_window_alone(self):
        # the selector models at most I(1) targets: every window records
        # that error for the SPECS lane, and the run goes on
        report = run_rolling(_walk_panel(3, 80, 5), _small_cfg(
            methods=("ar", "specs"), orders=(2, 1, 1), targets=(0,)))
        assert len(report.window_starts) == 20
        assert report.diagnostics == tuple(
            (s, "*", -1, "specs", "the selector models at most I(1) targets")
            for s in report.window_starts)
        fc = report.forecasts[("s1", 1)]
        assert np.isfinite(fc[:, 0]).all() and np.isnan(fc[:, 1]).all()

    def test_a_finish_error_fails_its_window_alone(self, monkeypatch):
        panel = _walk_panel(3, 80, 4)
        cfg = _small_cfg(methods=("ar", "ml"))
        clean = run_rolling(panel, cfg)
        assert clean.diagnostics == ()
        forecast, calls = harness.vecm_iterated_forecast, []

        def failing(model, history, h):
            calls.append(h)
            if len(calls) == 5:
                raise NumericalError("injected")
            return forecast(model, history, h)

        monkeypatch.setattr(harness, "vecm_iterated_forecast", failing)
        report = run_rolling(panel, cfg)
        assert len(calls) == len(report.window_starts) == 20
        assert report.diagnostics == ((4, "*", -1, "ml", "injected"),)
        for key, fc in clean.forecasts.items():
            got = report.forecasts[key]
            assert np.isnan(got[4, 1])
            others = np.delete(np.arange(20), 4)
            assert got[others].tobytes() == fc[others].tobytes()
            assert got[:, 0].tobytes() == fc[:, 0].tobytes()

    def test_window_errors_pass_through_as_the_same_object(self):
        errors = [DataError("missing"), NumericalError("singular"),
                  np.linalg.LinAlgError("not positive definite")]
        for err in errors:
            assert attempt(_raise, err) is err
        out = per_window(lambda r, k: r * k, [2, errors[1], 3, errors[2]],
                         [10, 20, 30, 40])
        assert out[0] == 20 and out[2] == 90
        assert out[1] is errors[1] and out[3] is errors[2]
        # an error that fn raises on one window is that window's result
        raised = per_window(lambda r: _raise(errors[0]) if r else r, [0, 1])
        assert raised == [0, errors[0]] and raised[1] is errors[0]

    def test_other_errors_propagate(self):
        with pytest.raises(RuntimeError, match="bug"):
            attempt(_raise, RuntimeError("bug"))
        with pytest.raises(RuntimeError, match="bug"):
            per_window(lambda r: _raise(RuntimeError("bug")), [1])


@pytest.mark.worker_processes
def test_one_window_lanes_run_in_this_process(register_lane, monkeypatch):
    # the SPECS, PADL and registered lanes fork nothing: a registered
    # lane's side effects land in this process, in window order
    def no_fork():
        raise AssertionError("a lane forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    seen = []

    def last_value(ctx):
        seen.append((os.getpid(), ctx.window_start))
        return {(ti, h): ctx.values[-1, ti]
                for ti in ctx.targets for h in ctx.horizons}

    register_lane("last", last_value)
    report = run_rolling(_walk_panel(3, 72, 6), _small_cfg(
        methods=("ar", "specs", "padl", "last"), targets=(0,)))
    assert len(report.window_starts) == 12
    assert seen == [(os.getpid(), s) for s in report.window_starts]
    assert np.isfinite(report.forecasts[("s1", 1)]).all()
    assert multiprocessing.active_children() == []
