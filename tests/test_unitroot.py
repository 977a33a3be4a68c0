"""Unit-root statistics against hand-rolled normal-equation oracles.

The oracles below build each test regression explicitly and solve the
normal equations directly, sharing no code with the implementation.
"""

import concurrent.futures.process
import multiprocessing
import os
import threading

import numpy as np
import pytest

from hdcoint import (CriticalValueSet, DataError, NumericalError,
                     ParameterError, ToolkitError, adf_stat, dfgls_stat,
                     four_stats, select_lags, union_stat)
from hdcoint import unitroot
from hdcoint.unitroot import _BLOCK_BYTES, adf_rho, default_max_lags


def oracle_adf(y, det, lags):
    """t-statistic on y_{t-1} in the ADF regression, solved directly.

    det: 0 none, 1 constant, 2 constant+trend.
    """
    y = np.asarray(y, dtype=float)
    dy = np.diff(y)
    rows = np.arange(lags, dy.shape[0])
    cols = [y[rows]]                       # level lag: y_{t-1}
    for j in range(1, lags + 1):
        cols.append(dy[rows - j])
    if det >= 1:
        cols.append(np.ones(rows.shape[0]))
    if det == 2:
        cols.append(rows + 1.0)
    X = np.column_stack(cols)
    resp = dy[rows]
    XtX = X.T @ X
    beta = np.linalg.solve(XtX, X.T @ resp)
    resid = resp - X @ beta
    dof = X.shape[0] - X.shape[1]
    s2 = resid @ resid / dof
    se = np.sqrt(s2 * np.linalg.inv(XtX)[0, 0])
    return beta[0] / se


def oracle_dfgls(y, trend, lags):
    """DF-GLS: quasi-difference GLS detrend, then ADF with no terms."""
    y = np.asarray(y, dtype=float)
    T = y.shape[0]
    cbar = -13.5 if trend else -7.0
    rho = 1.0 + cbar / T
    ya = np.concatenate([[y[0]], y[1:] - rho * y[:-1]])
    if trend:
        t = np.arange(1.0, T + 1.0)
        Z = np.column_stack([np.ones(T), t])
    else:
        Z = np.ones((T, 1))
    Za = np.concatenate([Z[:1], Z[1:] - rho * Z[:-1]])
    psi = np.linalg.solve(Za.T @ Za, Za.T @ ya)
    yd = y - Z @ psi
    return oracle_adf(yd, 0, lags)


class TestOracleEquivalence:
    def test_adf_matches_normal_equations(self, rng):
        for i in range(60):
            y = rng.standard_normal(50).cumsum()
            lags = int(rng.integers(0, 4))
            got_mu = adf_stat(y, "mean", lags=lags)
            got_tau = adf_stat(y, "trend", lags=lags)
            assert abs(got_mu - oracle_adf(y, 1, lags)) < 1e-10
            assert abs(got_tau - oracle_adf(y, 2, lags)) < 1e-10

    def test_dfgls_matches_stepwise_oracle(self, rng):
        for i in range(60):
            y = rng.standard_normal(50).cumsum()
            lags = int(rng.integers(0, 4))
            got_mu = dfgls_stat(y, "mean", lags=lags)
            got_tau = dfgls_stat(y, "trend", lags=lags)
            assert abs(got_mu - oracle_dfgls(y, False, lags)) < 1e-10
            assert abs(got_tau - oracle_dfgls(y, True, lags)) < 1e-10

    def test_four_stats_bundles_the_variants(self, rng):
        y = rng.standard_normal(80).cumsum()
        got = four_stats(y[None, :], 2)[0]
        expect = [adf_stat(y, "mean", lags=2), adf_stat(y, "trend", lags=2),
                  dfgls_stat(y, "mean", lags=2),
                  dfgls_stat(y, "trend", lags=2)]
        assert np.allclose(got, expect, atol=1e-12)


def lstsq_level_fit(z, det, lags):
    """Level coefficient and t-statistic of one ADF regression by lstsq/QR."""
    dz = np.diff(z)
    rows = np.arange(lags, dz.shape[0])
    cols = [z[rows]] + [dz[rows - j] for j in range(1, lags + 1)]
    cols += [np.ones(rows.shape[0]), rows + 2.0][:det]
    X = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(X, dz[rows], rcond=None)
    resid = dz[rows] - X @ beta
    s2 = resid @ resid / (X.shape[0] - X.shape[1])
    r_inv = np.linalg.inv(np.linalg.qr(X, mode="r"))
    return beta[0], beta[0] / np.sqrt(s2 * (r_inv[0] @ r_inv[0]))


def lstsq_four(y, lags):
    """The four union components, each regression solved by lstsq."""
    T = y.shape[0]
    out = [lstsq_level_fit(y, 1, lags)[1], lstsq_level_fit(y, 2, lags)[1]]
    for cbar, Z in ((-7.0, np.ones((T, 1))),
                    (-13.5, np.column_stack([np.ones(T), np.arange(1.0, T + 1)]))):
        rho = 1.0 + cbar / T
        ya = np.concatenate([y[:1], y[1:] - rho * y[:-1]])
        Za = np.concatenate([Z[:1], Z[1:] - rho * Z[:-1]])
        psi, *_ = np.linalg.lstsq(Za, ya, rcond=None)
        out.append(lstsq_level_fit(y - Z @ psi, 0, lags)[1])
    return np.array(out)


def explicit_gram(y, lags):
    """X X' of the Dickey-Fuller design, X written out row by row.

    The rows of X are [1, t, y_{t-1}, dy_t, dy_{t-1}, ..., dy_{t-lags}],
    one column per usable period, with t counted from 1.
    """
    dy = np.diff(y, axis=1)
    rows = np.arange(lags, dy.shape[1])          # the index of y_{t-1}
    one = np.ones((y.shape[0], rows.size))
    X = np.stack([one, one * (rows + 2.0), y[:, rows]]
                 + [dy[:, rows - i] for i in range(lags + 1)], axis=1)
    return np.einsum("bkn,bln->bkl", X, X)


class TestGramKernel:
    """The shared-Gram kernel against per-series lstsq regressions."""

    T = 200

    def _batch(self, rng, order, lags):
        # one more series than a design block holds: the last block has one
        B = _BLOCK_BYTES // (8 * (lags + 4) * (self.T - lags - 1)) + 1
        e = rng.standard_normal((B, self.T))
        return np.cumsum(e, axis=1) if order == 1 else np.cumsum(
            np.cumsum(e, axis=1), axis=1)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    @pytest.mark.parametrize("jump", [None, "first", "last", "spike"])
    def test_grams_match_the_explicit_product(self, rng, order, scale, jump):
        # one row, one design block, and a block and a row.  Entry (i, j)
        # is held to 1e-13 of sqrt(M_ii M_jj), its largest possible size,
        # so the small lag block is checked as closely as the trend entries
        # that dwarf it at scale 1e-6.  Off the diagonal of the lag block
        # the recursion subtracts the products at the sample's end, so
        # there the scale is the largest sqrt(M_ii M_jj) on the line up to
        # the response row.  A first or a last difference 1e6 times the
        # others (a level shift at either end), or a last level off by as
        # much (two such differences), must not break these bounds
        for lags in (0, 1, 4, default_max_lags(self.T)):
            y = scale * self._batch(rng, order, lags)
            step = 1e6 * np.std(np.diff(y, axis=1))
            if jump == "first":
                y[:, 1:] += step
            elif jump == "last":
                y[:, -1] += step
            elif jump == "spike":
                y[:, -2] += step
            for B in (1, y.shape[0] - 1, y.shape[0]):
                got = unitroot._grams(y[:B], lags)
                want = explicit_gram(y[:B], lags)
                assert np.array_equal(got, got.transpose(0, 2, 1))
                norm = np.sqrt(np.einsum("bii->bi", want))
                size = norm[:, :, None] * norm[:, None]
                bound = size.copy()
                for i in range(4, lags + 4):
                    np.maximum(bound[:, i, 4:], bound[:, i - 1, 3:-1],
                               out=bound[:, i, 4:])
                np.maximum(bound, bound.transpose(0, 2, 1), out=bound)
                diag = np.arange(lags + 4)
                bound[:, diag, diag] = size[:, diag, diag]
                # _grams writes M in its factor order, [lags, 1, t, level,
                # response]: the product and its bound are permuted into it
                perm = np.r_[4:lags + 4, 0:4]
                pick = (slice(None), perm[:, None], perm)
                err = np.abs(got - want[pick]) / bound[pick]
                assert err.max() <= 1e-13, f"lags={lags}, B={B}"

    @pytest.mark.parametrize("order", [1, 2])
    def test_four_stats_match_lstsq(self, rng, order):
        for lags in (0, 1, default_max_lags(self.T)):
            y = self._batch(rng, order, lags)
            got = four_stats(y, lags)
            want = np.array([lstsq_four(row, lags) for row in y])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10,
                                       err_msg=f"lags={lags}")

    @pytest.mark.parametrize("order", [1, 2])
    def test_rows_do_not_depend_on_the_batch(self, rng, order):
        for lags in (0, default_max_lags(self.T)):
            y = self._batch(rng, order, lags)
            got = four_stats(y, lags)
            for i, row in enumerate(y):
                np.testing.assert_allclose(got[i], four_stats(row, lags)[0],
                                           rtol=0, atol=1e-12,
                                           err_msg=f"lags={lags}, row {i}")

    def test_singular_gram_falls_back_per_regression(self, rng, monkeypatch):
        # the last series is zero up to its final two values, so the
        # second lagged difference is a zero row of its Gram: its shared
        # factorization fails and each of its regressions falls back
        lags = 2
        y = self._batch(rng, 1, lags)[:5]
        zeros = np.zeros(self.T)
        zeros[-2:] = [1.5, -0.7]
        calls = []
        fit = unitroot._level_fit

        def counted(S, n):
            calls.append(S.shape)
            return fit(S, n)

        monkeypatch.setattr(unitroot, "_level_fit", counted)
        got = four_stats(np.vstack([y, zeros]), lags)
        assert len(calls) == 4                   # one per regression
        assert np.all(np.isfinite(got[-1]))
        want = np.array([lstsq_four(row, lags) for row in y])
        np.testing.assert_allclose(got[:-1], want, rtol=0, atol=1e-10)
        calls.clear()
        np.testing.assert_allclose(four_stats(y, lags), got[:-1], rtol=0,
                                   atol=1e-10)
        assert len(calls) == 1                   # DF-GLS trend alone

    def test_a_singular_row_leaves_its_batch_mates_alone(self, rng):
        # the zero-but-last-two series (see above) sits amid regular ones:
        # only its row falls back to the pseudo-inverse, and every row of
        # the batch keeps the bits of its own one-row call, in the four
        # statistics, in one level fit and in the lag choice
        lags, n = 2, self.T - 3
        y = self._batch(rng, 1, lags)[:5]
        y[2] = 0.0
        y[2, -2:] = [1.5, -0.7]
        rows = unitroot._rows(1, lags, lags)
        S = unitroot._grams(y - y[:, :1], lags)[:, rows[:, None], rows]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S[2])
        stats, fit = four_stats(y, lags), unitroot._level_fit(S, n)
        picks = select_lags(y)
        for i, row in enumerate(y):
            assert stats[i].tobytes() == four_stats(row, lags)[0].tobytes()
            one = unitroot._level_fit(S[i:i + 1], n)
            assert [f[i] for f in fit] == [f[0] for f in one]
            assert picks[i] == select_lags(row)

    def test_adf_rho_and_no_deterministics(self, rng):
        for _ in range(10):
            y = rng.standard_normal(self.T).cumsum()
            for lags in (0, 1, default_max_lags(self.T)):
                b_none, t_none = lstsq_level_fit(y, 0, lags)
                assert abs(adf_stat(y, "none", lags=lags) - t_none) < 1e-10
                assert abs(adf_rho(y, lags) - (1.0 + b_none)) < 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_four_stats_invariant_to_scale_and_shift(self, rng, scale):
        y = self._batch(rng, 1, 0)[:20]
        for lags in (0, 3):
            base = four_stats(y, lags)
            np.testing.assert_allclose(four_stats(scale * y, lags), base,
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(four_stats(scale * (y + 250.0), lags),
                                       base, rtol=0, atol=1e-9)


@pytest.mark.worker_processes
class TestRowBlocks:
    """``four_stats`` fits fixed row blocks; the bits do not depend on the
    block split or on the number of worker processes."""

    T = 150

    def _fits(self, y, lags):
        """Results in-process, and of two batches on two and on three
        worker processes."""
        return [four_stats(y, lags)] + [
            fit for workers in (2, 3)
            for fit in four_stats([y, y], [lags, lags], workers)]

    @pytest.mark.parametrize("B", [1, 255, 256, 257, 999])
    @pytest.mark.parametrize("lags", [0, 13])
    def test_blocks_match_one_block(self, rng, monkeypatch, B, lags):
        y = np.cumsum(rng.standard_normal((B, self.T)), axis=1)
        with monkeypatch.context() as m:
            m.setattr(unitroot, "_ROW_BLOCK", B)
            whole = four_stats(y, lags)
        for got in self._fits(y, lags):
            np.testing.assert_array_equal(got, whole)

    def test_a_singular_gram_falls_back_in_its_block_alone(self, rng,
                                                           monkeypatch):
        # the zero-but-last-two series makes its Gram singular (see
        # TestGramKernel); only its block takes the per-regression fallback
        lags, bad = 2, 300
        block = slice(256, 512)
        y = np.cumsum(rng.standard_normal((999, self.T)), axis=1)
        regular = four_stats(y, lags)
        y[bad] = 0.0
        y[bad, -2:] = [1.5, -0.7]
        with monkeypatch.context() as m:
            m.setattr(unitroot, "_ROW_BLOCK", 999)
            whole = four_stats(y, lags)
        others = np.ones(999, dtype=bool)
        others[block] = False
        for got in self._fits(y, lags):
            np.testing.assert_array_equal(got[block], whole[block])
            np.testing.assert_array_equal(got[others], regular[others])
            np.testing.assert_allclose(got[others], whole[others], rtol=0,
                                       atol=1e-10)

    def test_exact_fit_raises_alike_on_any_pool(self, rng):
        # the exact fit is in the second batch, fitted by a worker process
        # when there are workers; its error sits in the second place, the
        # one a call on that batch alone raises
        y = np.cumsum(rng.standard_normal((600, self.T)), axis=1)
        y[400] = 0.5 * np.arange(self.T)        # constant increments
        threads = threading.active_count()
        with pytest.raises(NumericalError) as info:
            four_stats(y, 3)
        first = four_stats(y[:100], 3)
        for workers in (1, 2, 3):
            got = four_stats([y[:100], y], [3, 3], workers)
            np.testing.assert_array_equal(got[0], first)
            assert (type(got[1]), str(got[1])) == (info.type, str(info.value))
            assert threading.active_count() == threads
            assert multiprocessing.active_children() == []

    def test_failing_batches_leave_every_batch_fitted(self, tmp_path,
                                                      monkeypatch):
        # eight one-block batches, of which 0, 3 and 6 fail: every batch
        # is fitted, each leaving a marker file, and each error sits in
        # its own place
        def block(batch, lo, lags, n):
            (tmp_path / f"{batch.j}-fitted").touch()
            if batch.j % 3 == 0:
                raise NumericalError(f"injected in {batch.j}")
            return np.full((1, 4), float(batch.j))

        monkeypatch.setattr(unitroot, "_four_stats_block", block)
        batches = [_Tagged(j, self.T) for j in range(8)]
        threads = threading.active_count()
        for workers in (1, 2, 3):
            for marker in tmp_path.iterdir():
                marker.unlink()
            got = four_stats(batches, [0] * 8, workers)
            for j, fit in enumerate(got):
                if j % 3 == 0:
                    assert type(fit) is NumericalError
                    assert str(fit) == f"injected in {j}"
                else:
                    np.testing.assert_array_equal(fit, np.full((1, 4), j))
            fitted = {int(m.name.split("-")[0]) for m in tmp_path.iterdir()}
            assert fitted == set(range(8))
            assert threading.active_count() == threads
            assert multiprocessing.active_children() == []

    def test_a_sequence_of_batches_is_one_call_each(self, rng):
        # the batches run one task each; each batch's result or error is
        # that of one call on the batch alone, and the check's error of a
        # batch too short for its lags sits in its place as well
        lags = [0, 3, 13]
        ys = [np.cumsum(rng.standard_normal((B, self.T)), axis=1)
              for B in (300, 1, 257)]
        want = [four_stats(y, p) for y, p in zip(ys, lags)]
        bad = [y.copy() for y in ys]
        for y in bad[1:]:
            y[0] = 0.5 * np.arange(self.T)      # an exact fit
        bad.append(ys[0][:, :20])
        errors = []
        for y, p in zip(bad[1:], lags[1:] + [13]):
            with pytest.raises(ToolkitError) as info:
                four_stats(y, p)
            errors.append((info.type, str(info.value)))
        assert [e[0] for e in errors] == [NumericalError] * 2 + [DataError]
        for workers in (1, 2, 3):
            got = four_stats(ys, lags, workers)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            got = four_stats(bad, lags + [13], workers)
            np.testing.assert_array_equal(got[0], want[0])
            assert [(type(e), str(e)) for e in got[1:]] == errors
            with pytest.raises(ParameterError):
                four_stats(ys, lags[:2], workers)

    @pytest.mark.parametrize("error", [DataError, NumericalError])
    def test_a_worker_error_keeps_its_type_message_and_batch(
            self, rng, monkeypatch, error):
        # raised in the third of four batches, in a worker process when
        # there are workers; the other batches keep their statistics
        real = unitroot._four_stats_block

        def block(batch, lo, lags, n):
            if lags == 2:
                raise error("injected at lag 2")
            return real(batch, lo, lags, n)

        monkeypatch.setattr(unitroot, "_four_stats_block", block)
        ys = [np.cumsum(rng.standard_normal((B, self.T)), axis=1)
              for B in (300, 40, 257, 20)]
        want = {j: four_stats(ys[j], j) for j in (0, 1, 3)}
        with pytest.raises(error, match="^injected at lag 2$"):
            four_stats(ys[2], 2)
        for workers in (1, 2, 3):
            got = four_stats(ys, [0, 1, 2, 3], workers)
            assert type(got[2]) is error
            assert str(got[2]) == "injected at lag 2"
            for j, fit in want.items():
                np.testing.assert_array_equal(got[j], fit)
            assert multiprocessing.active_children() == []

    def test_no_idle_workers(self, rng, monkeypatch):
        # a call forks at most one worker per batch, and none for one
        # batch or where the platform cannot fork; the bits stay the same
        sizes = []

        class Recorded(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, max_workers, *args):
                sizes.append(max_workers)
                super().__init__(max_workers, *args)

        monkeypatch.setattr(concurrent.futures.process,
                            "ProcessPoolExecutor", Recorded)
        ys = [np.cumsum(rng.standard_normal((B, self.T)), axis=1)
              for B in (30, 20, 10)]
        want = [four_stats(y, 1) for y in ys]
        for got in (four_stats(ys, [1] * 3, 8),
                    four_stats(ys[:2], [1] * 2, 8)):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        assert sizes == [3, 2]
        np.testing.assert_array_equal(four_stats(ys[0], 1, 8), want[0])
        np.testing.assert_array_equal(four_stats(ys[:1], [1], 8)[0], want[0])
        monkeypatch.delattr(os, "fork")
        for g, w in zip(four_stats(ys, [1] * 3, 8), want):
            np.testing.assert_array_equal(g, w)
        assert sizes == [3, 2]
        assert multiprocessing.active_children() == []


class _Tagged:
    """A batch of one row that only says its position ``j``."""

    def __init__(self, j, T):
        self.j, self.shape = j, (1, T)


class TestStatisticBehavior:
    def test_pure_trend_strongly_rejects(self):
        # an exact trend leaves no residual variance, a noisy one rejects
        with pytest.raises(NumericalError):
            adf_stat(np.arange(1.0, 41.0), "trend", lags=0)
        with pytest.raises(NumericalError):     # offset far above the slope
            adf_stat(np.arange(1.0, 301.0) * 2.5 + 1e6, "mean", lags=0)
        for T in (40, 100):     # GLS detrending leaves only rounding noise
            with pytest.raises(NumericalError):
                dfgls_stat(np.arange(1.0, T + 1.0), "trend", lags=0)
        rng = np.random.default_rng(3)
        y = np.arange(1.0, 201.0) + 0.01 * rng.standard_normal(200)
        assert adf_stat(y, "trend", lags=0) < -10

    def test_random_walk_null_range(self, rng):
        stats = [adf_stat(rng.standard_normal(500).cumsum(), "mean", lags=0)
                 for _ in range(40)]
        stats = np.array(stats)
        assert np.mean(stats < 0) > 0.8
        assert np.mean(stats > -3.0) > 0.8

    def test_adf_location_invariance(self, rng):
        y = rng.standard_normal(60).cumsum()
        assert abs(adf_stat(y, "mean", lags=1) -
                   adf_stat(y + 7.0, "mean", lags=1)) < 1e-8
        t = np.arange(60.0)
        assert abs(adf_stat(y, "trend", lags=1) -
                   adf_stat(y + 3.0 + 0.5 * t, "trend", lags=1)) < 1e-8
        # a large offset must not swamp the Gram
        for spec in ("mean", "trend"):
            assert abs(adf_stat(y, spec, lags=1) -
                       adf_stat(y + 1e6, spec, lags=1)) < 1e-8

    def test_dfgls_constant_invariance(self, rng):
        y = rng.standard_normal(60).cumsum()
        assert abs(dfgls_stat(y, "mean", lags=0) -
                   dfgls_stat(y + 11.0, "mean", lags=0)) < 1e-8


class TestLagSelection:
    def test_max_lags_zero(self, rng):
        assert select_lags(rng.standard_normal(100), max_lags=0) == 0

    def test_default_cap_rule(self):
        assert default_max_lags(100) == 12
        assert default_max_lags(50) == int(12 * (0.5 ** 0.25))

    def test_white_noise_differences_prefer_zero(self, rng):
        # random walk: the differences entering MAIC are white noise
        picks = [select_lags(rng.standard_normal(200).cumsum())
                 for _ in range(30)]
        assert np.mean(np.array(picks) == 0) > 0.5

    def test_degenerate_inputs_give_a_lag(self):
        # exact fits: every candidate reads the same Gram, whose singular
        # sub-Grams fall back to the pseudo-inverse instead of raising
        t = np.arange(1.0, 301.0)
        noise = 1e-9 * np.random.default_rng(0).standard_normal(300)
        for y in (t, 2.5 * t + 1e6, np.full(300, 3.0),
                  np.where(t > 150, 5.0, 1.0), 0.5 * t + noise):
            lag = select_lags(y)
            assert isinstance(lag, int)
            assert 0 <= lag <= default_max_lags(300)

    def test_the_choice_fits_the_four_statistics(self, rng):
        # the cap once kept only the lag regression's own sample, so on
        # short series the choice could leave four_stats' trend ADF
        # regression two rows short (19 of these 200 series at T = 16)
        for T in (16, 18, 20, 22):
            for y in rng.standard_normal((200, T)):
                assert np.isfinite(four_stats(y, select_lags(y))).all()

    @pytest.mark.xfail(strict=True, reason=(
        "MAIC defect: the tau term b0^2 sum(y_{t-1}^2) / sigma^2 is O(T) on "
        "a stationary series and falls as lags absorb the mean reversion, "
        "so the criterion picks 9-15 lags (median 12 of 15) here"))
    def test_white_noise_levels_prefer_few_lags(self):
        rng = np.random.default_rng(5)
        picks = [select_lags(rng.standard_normal(300)) for _ in range(20)]
        assert np.median(picks) <= 2

    def test_ar_in_differences_prefers_positive(self, rng):
        picks = []
        for _ in range(30):
            e = rng.standard_normal(300)
            d = np.zeros(300)
            for t in range(1, 300):
                d[t] = 0.6 * d[t - 1] + e[t]
            picks.append(select_lags(np.cumsum(d)))
        assert np.mean(np.array(picks) >= 1) > 0.8


class TestUnionStat:
    def _cv(self):
        return CriticalValueSet(-2.8, -3.4, -1.9, -2.8, 0.05)

    def test_stats_at_critical_values_give_minus_one(self):
        cv = self._cv()
        assert abs(union_stat(cv.as_array(), cv, x=-1.0) + 1.0) < 1e-12

    def test_min_attained_by_deep_rejection(self):
        cv = self._cv()
        stats = np.array([-2.8, -3.4, -10.0, -2.8])
        expect = (-1.0 / -1.9) * (-10.0)
        assert abs(union_stat(stats, cv) - expect) < 1e-12

    def test_brute_force_over_random_inputs(self, rng):
        for _ in range(50):
            cvals = -np.abs(rng.normal(3, 0.5, size=4))
            cv = CriticalValueSet(*cvals, 0.05)
            stats = rng.normal(-2, 2, size=4)
            brute = np.min((-1.0 / cvals) * stats)
            assert abs(union_stat(stats, cv) - brute) < 1e-12

    def test_scaling_sign_guard(self):
        with pytest.raises(ParameterError):
            union_stat(np.zeros(4), self._cv(), x=0.5)
        # alpha > 0.10 skips the left-tail sign check, reaching union_stat's
        # own zero-divisor guard
        loose = CriticalValueSet(0.0, -3.4, -1.9, -2.8, 0.5)
        with pytest.raises(ParameterError):
            union_stat(np.zeros(4), loose)
