"""Panel container, differencing, transforms and detrending."""

import numpy as np
import pytest

from hdcoint import (DataError, DeterministicSpec, HarnessConfig, Panel,
                     ParameterError, apply_transform, difference,
                     difference_columns, fecm_forecast, from_values,
                     implied_orders, invert_differences, ols_detrend,
                     padl_fit, run_rolling, specs_fit, validate_codes)
from hdcoint.panel import detrend, monthly_dates, resolve_targets


def _panel(values, names=None):
    return from_values(np.asarray(values, dtype=float), names=names)


class TestPanelInvariants:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="unique"):
            Panel(np.zeros((3, 2)), ("a", "a"), monthly_dates("2000-01", 3))

    def test_nonmonotone_dates_rejected(self):
        dates = monthly_dates("2000-01", 3).copy()
        dates[2] = dates[0]
        with pytest.raises(DataError, match="increasing"):
            Panel(np.zeros((3, 1)), ("a",), dates)

    def test_interior_gap_rejected(self):
        vals = np.array([[1.0], [np.nan], [2.0]])
        with pytest.raises(DataError, match="interior"):
            Panel(vals, ("a",), monthly_dates("2000-01", 3))

    def test_leading_nan_allowed(self):
        vals = np.array([[np.nan, 1.0], [2.0, 2.0], [3.0, 3.0]])
        p = Panel(vals, ("a", "b"), monthly_dates("2000-01", 3))
        assert p.leads == (1, 0)
        assert not p.balanced


class TestDifference:
    def test_constant_column(self):
        out = difference(_panel([[5.0], [5.0], [5.0], [5.0]]), 1)
        assert np.isnan(out.values[0, 0])
        assert np.allclose(out.values[1:, 0], 0.0)

    def test_second_difference_ramp(self):
        out = difference(_panel([[1.0], [2.0], [4.0], [7.0]]), 2)
        assert np.isnan(out.values[:2, 0]).all()
        assert np.allclose(out.values[2:, 0], [1.0, 1.0])

    def test_order_above_two_rejected(self):
        with pytest.raises(ParameterError):
            difference(_panel(np.random.default_rng(0).normal(size=(9, 1))), 3)

    def test_round_trip_identity(self, rng):
        x = rng.standard_normal((40, 3)).cumsum(axis=0)
        d = difference(_panel(x), 1)
        back = invert_differences(x[:1], d.values[1:], 1)
        assert np.allclose(back, x[1:], atol=1e-12)


class TestIntegrate:
    def test_double_difference_round_trip(self, rng):
        x = rng.standard_normal((30, 2)).cumsum(axis=0).cumsum(axis=0)
        d = difference(_panel(x), 2)
        back = invert_differences(x[:2], d.values[2:], 2)
        assert np.allclose(back, x[2:], atol=1e-10)


class TestDifferenceColumns:
    def test_mixed_orders_match_numpy_diff_bit_for_bit(self, rng):
        x = rng.standard_normal((25, 3)).cumsum(axis=0) * [1e-6, 1.0, 1e6]
        x[:4, 1] = np.nan
        # a column selection is Fortran-ordered; the output is C-ordered
        out = difference_columns(x[:, [0, 1, 2]], [0, 1, 2])
        assert out.shape == x.shape and out.flags["C_CONTIGUOUS"]
        for j in range(3):
            lead = int(np.isnan(out[:, j]).sum())
            assert lead == (0, 5, 2)[j]
            assert np.array_equal(out[lead:, j],
                                  np.diff(x[:, j], n=j)[lead - j:])

    def test_input_left_unchanged(self, rng):
        x = rng.standard_normal((10, 2))
        keep = x.copy()
        difference_columns(x, [2, 1])
        assert np.array_equal(x, keep)

    @pytest.mark.parametrize("orders", [[3, 1], [-1, 1], [1.5, 1], [1]])
    def test_bad_orders_rejected(self, orders):
        with pytest.raises(ParameterError):
            difference_columns(np.zeros((10, 2)), orders)


class TestTransforms:
    def test_code_five_on_geometric_ramp(self):
        p = _panel([[1.0], [np.e], [np.e ** 2]])
        out = apply_transform(p, [5])
        assert np.isnan(out.values[0, 0])
        assert np.allclose(out.values[1:, 0], 1.0)

    def test_code_one_identity(self, rng):
        p = _panel(rng.standard_normal((10, 2)))
        out = apply_transform(p, [1, 1])
        assert np.allclose(out.values, p.values)

    def test_code_six_exp_quadratic(self):
        t = np.arange(1.0, 13.0)
        p = _panel(np.exp(0.01 * t ** 2)[:, None])
        out = apply_transform(p, [6])
        assert np.allclose(out.values[2:, 0], 0.02, atol=1e-12)

    def test_code_two_equals_first_difference(self, rng):
        p = _panel(rng.standard_normal((12, 1)))
        assert np.allclose(apply_transform(p, [2]).values,
                           difference(p, 1).values, equal_nan=True)

    def test_code_three_equals_second_difference(self, rng):
        p = _panel(rng.standard_normal((12, 1)))
        assert np.allclose(apply_transform(p, [3]).values,
                           difference(p, 2).values, equal_nan=True)

    def test_log_code_rejects_nonpositive(self):
        p = _panel([[1.0], [-1.0], [2.0]], names=("gdp",))
        with pytest.raises(DataError, match="gdp"):
            apply_transform(p, [5])

    def test_implied_orders(self):
        assert implied_orders([1, 2, 3, 4, 5, 6, 7]).tolist() == \
            [0, 1, 2, 0, 1, 2, 1]

    def test_unknown_code_rejected(self):
        with pytest.raises(ParameterError, match="1-7"):
            validate_codes([8])


class TestDetrend:
    def test_exact_line(self):
        t = np.arange(1.0, 21.0)
        p = _panel((2.0 + 3.0 * t)[:, None])
        resid, coef = ols_detrend(p, "trend")
        assert np.allclose(resid.values, 0.0, atol=1e-10)
        assert np.allclose(coef[0], [2.0, 3.0], atol=1e-10)

    def test_spec_none_identity(self, rng):
        p = _panel(rng.standard_normal((15, 2)))
        resid, _ = ols_detrend(p, "none")
        assert np.allclose(resid.values, p.values)

    def test_normal_equation_oracle(self, rng):
        x = rng.standard_normal(50).cumsum()
        p = _panel(x[:, None])
        resid, coef = ols_detrend(p, "trend")
        D = np.column_stack([np.ones(50), np.arange(1.0, 51.0)])
        beta = np.linalg.solve(D.T @ D, D.T @ x)
        assert np.allclose(coef[0], beta, atol=1e-10)
        assert np.allclose(resid.values[:, 0], x - D @ beta, atol=1e-10)

    def test_residual_orthogonality(self, rng):
        p = _panel(rng.standard_normal((60, 3)).cumsum(axis=0))
        resid, _ = ols_detrend(p, "trend")
        t = np.arange(1.0, 61.0)
        assert np.allclose(resid.values.sum(axis=0), 0.0, atol=1e-8)
        assert np.allclose(t @ resid.values, 0.0, atol=1e-6)

    @pytest.mark.parametrize("spec,terms", [("none", 0), ("mean", 1),
                                            ("trend", 2)])
    def test_design_shapes(self, spec, terms):
        for start in (1, 5):
            D = DeterministicSpec.parse(spec).design(7, start)
            assert D.shape == (7, terms)
            assert D.flags["C_CONTIGUOUS"]
            want = np.column_stack([np.ones(7),
                                    np.arange(start, start + 7.0)])
            assert np.array_equal(D, want[:, :terms])

    @pytest.mark.parametrize("spec", ["none", "mean", "trend"])
    def test_detrend_normal_equation_oracle(self, spec, rng):
        y = rng.standard_normal((40, 3)).cumsum(axis=0)
        resid, beta = detrend(y, spec, start=11)
        D = DeterministicSpec.parse(spec).design(40, 11)
        want = np.linalg.solve(D.T @ D, D.T @ y)
        assert beta.shape == (D.shape[1], 3)
        assert np.allclose(beta, want, atol=1e-9)
        assert np.allclose(resid, y - D @ want, atol=1e-9)
        # one column gives the same fit as a vector
        r1, b1 = detrend(y[:, 1], spec, start=11)
        assert b1.shape == (D.shape[1],)
        assert np.allclose(r1, resid[:, 1], atol=1e-12)

    def test_detrend_none_returns_input(self, rng):
        y = rng.standard_normal(12)
        resid, beta = detrend(y, "none")
        assert beta.shape == (0,)
        assert np.array_equal(resid, y)

    @pytest.mark.parametrize("spec", ["none", "mean", "trend"])
    def test_ragged_panel_counts_t_by_global_row(self, spec, rng):
        vals = rng.standard_normal((50, 3)).cumsum(axis=0)
        vals[:7, 0] = np.nan
        vals[:19, 2] = np.nan
        p = _panel(vals)
        resid, coef = ols_detrend(p, spec)
        for j, lead in enumerate(p.leads):
            r, b = detrend(vals[lead:, j], spec, lead + 1)
            assert np.isnan(resid.values[:lead, j]).all()
            assert np.array_equal(resid.values[lead:, j], r)
            assert np.array_equal(coef[j, :b.shape[0]], b)
            assert not coef[j, b.shape[0]:].any()

    def test_too_short_for_spec(self):
        vals = np.full((6, 1), np.nan)
        vals[4:, 0] = [1.0, 2.0]
        with pytest.raises(DataError, match="needs at least 3"):
            ols_detrend(_panel(vals), "trend")
        assert np.allclose(ols_detrend(_panel(vals), "mean")[0].values[4:],
                           [[-0.5], [0.5]], atol=1e-12)


class TestResolveTargets:
    def _walk(self, n=4, T=80):
        rng = np.random.default_rng(5)
        return from_values(rng.standard_normal((T, n)).cumsum(axis=0),
                           names=["a", "b", "c", "d"][:n])

    def test_names_indices_and_default(self):
        p = self._walk()
        z, names, idx = resolve_targets(p, ["c", 0])
        assert names == ("a", "b", "c", "d")
        assert idx.tolist() == [2, 0]
        assert z is p.values
        assert resolve_targets(p)[2].tolist() == [0, 1, 2, 3]
        # an array's series carry the default names
        assert resolve_targets(p.values, ["s2"])[2].tolist() == [1]

    @pytest.mark.parametrize("targets", [[9], [-1], ["zz"], []])
    def test_bad_targets_rejected(self, targets):
        with pytest.raises(ParameterError):
            resolve_targets(self._walk(), targets)

    @pytest.mark.parametrize("targets,name", [(["b", "b"], "b"),
                                              ([1, "b"], "b"),
                                              ([0, 2, 0], "a")])
    def test_repeated_target_rejected(self, targets, name):
        p = self._walk()
        with pytest.raises(ParameterError, match=f"'{name}' is listed twice"):
            resolve_targets(p, targets)
        with pytest.raises(ParameterError, match="listed twice"):
            run_rolling(p, HarnessConfig(window=60, horizons=(1,),
                                         methods=("ar",), benchmark="ar",
                                         targets=tuple(targets)))
        with pytest.raises(ParameterError, match="listed twice"):
            fecm_forecast(p, targets=targets)

    @pytest.mark.parametrize("key", [9, -1])
    def test_estimators_reject_out_of_range(self, key):
        p = self._walk()
        with pytest.raises(ParameterError):
            fecm_forecast(p, targets=[key])
        with pytest.raises(ParameterError):
            specs_fit(p, key)
        with pytest.raises(ParameterError):
            padl_fit(p, key, [1] * p.n_series)
        with pytest.raises(ParameterError):
            run_rolling(p, HarnessConfig(window=60, horizons=(1,),
                                         methods=("ar",), benchmark="ar",
                                         targets=(key,)))
