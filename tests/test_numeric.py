"""Shared numeric kernels: the stacked coordinate sweep against the
plain-float sweep of one window, the fold edges of expanding-window
cross-validation, the singular-pivot rule, the column order of a
pivoted QR (against scipy's ``dgeqp3``), the column sign and scale
conventions, the positions of each key, the one rule for a stack of
matrices that a linear-algebra routine fails on, the one range rule of
a level, and the one map over windows, in this process or on forked
worker processes."""

import concurrent.futures.process
import multiprocessing
import os

import numpy as np
import pytest
import scipy.linalg

from hdcoint import (AwbConfig, ClassifyConfig, CriticalValueSet,
                     HarnessConfig, ParameterError, mcs)

from hdcoint._numeric import (column_scales, column_signs, expanding_folds,
                              key_positions, last_minimum, pivot_order,
                              singular_pivots, soft_threshold,
                              soft_threshold_sweep)
from hdcoint.errors import (DataError, NumericalError, per_matrix,
                            per_window)


def _scalar_soft_threshold(c, thr):
    """The plain-float soft-threshold the sweep ran on before it was
    stacked: a zero result is -0.0 for c < 0 and +0.0 otherwise."""
    if c > thr:
        return c - thr
    if c < -thr:
        return c + thr
    return -0.0 if c < 0.0 else abs(c) * 0.0


def _plain_sweep(x, grad, M, K, thr):
    """The plain-float sweep of one window that the stacked sweep
    replaced, kept as its oracle."""
    x, grad, M, K = (np.asarray(v).tolist() for v in (x, grad, M, K))
    for s, (row, g) in enumerate(zip(x, grad)):
        m_ss, dk = M[s][s], [0.0] * len(K)
        for t, k_t in enumerate(K):
            q = m_ss * k_t[t]
            if q <= 0.0:
                continue
            old = row[t]
            new = _scalar_soft_threshold(g[t] - m_ss * dk[t] + old * q,
                                         thr) / q
            if new != old:
                row[t] = new
                d = new - old
                dk = [a + d * k for a, k in zip(dk, k_t)]
        if any(dk):
            for u in range(s + 1, len(x)):
                m_us = M[u][s]
                grad[u] = [gi - m_us * a for gi, a in zip(grad[u], dk)]
    return np.array(x)


def _sweep_stack(rng, W, S, T, zero_rows=False):
    """Random sweep problems: x, grad, M, K stacks of W windows, some
    with zero curvature on a diagonal entry (q = 0) and some x entries
    zero."""
    A = rng.standard_normal((W, S + 2, S))
    B = rng.standard_normal((W, T + 3, T))
    M, K = np.swapaxes(A, 1, 2) @ A, np.swapaxes(B, 1, 2) @ B
    if zero_rows:
        # a zero row and column of M or K: q = 0 on a row or column
        for w in range(0, W, 2):
            s = int(rng.integers(S))
            M[w, s, :] = M[w, :, s] = 0.0
        for w in range(1, W, 3):
            t = int(rng.integers(T))
            K[w, t, :] = K[w, :, t] = 0.0
    x = rng.standard_normal((W, S, T))
    x[rng.random((W, S, T)) < 0.3] = 0.0
    grad = rng.standard_normal((W, S, T)) * 3.0
    return x, grad, M, K


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.blas_threads
class TestSoftThresholdSweep:
    def test_one_pass_equals_direct_coordinate_descent(self, rng):
        # smooth part 0.5 vec(x)'(M kron K)vec(x) - vec(g0)'vec(x), whose
        # residual correlation at x is g0 - M x K
        for _ in range(20):
            S, T = int(rng.integers(1, 7)), int(rng.integers(1, 10))
            A = rng.standard_normal((S + 2, S))
            B = rng.standard_normal((T + 3, T))
            M, K = A.T @ A, B.T @ B
            g0 = rng.standard_normal((S, T)) * 3.0
            x0 = rng.standard_normal((S, T))
            thr = float(rng.uniform(0.0, 2.0))
            H = np.kron(M, K)
            want = x0.ravel().copy()
            for i in range(S * T):
                q = H[i, i]
                c = g0.ravel()[i] - H[i] @ want + want[i] * q
                want[i] = float(soft_threshold(c, thr)) / q
            got = soft_threshold_sweep(x0[None], (g0 - M @ x0 @ K)[None],
                                       M[None], K[None], thr)
            assert got.shape == (1, S, T)
            assert np.allclose(got[0].ravel(), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("zero_rows", [False, True])
    def test_each_window_equals_the_plain_float_sweep(self, rng, zero_rows):
        for _ in range(30):
            W = int(rng.integers(1, 12))
            S, T = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            x, grad, M, K = _sweep_stack(rng, W, S, T, zero_rows)
            thr = float(rng.choice([0.0, rng.uniform(0.0, 4.0)]))
            got = soft_threshold_sweep(x, grad, M, K, thr)
            assert got.shape == (W, S, T) and got.flags.c_contiguous
            for w in range(W):
                want = _plain_sweep(x[w], grad[w], M[w], K[w], thr)
                assert np.array_equal(_bits(got[w]), _bits(want))

    def test_exact_zeros_keep_their_sign(self, rng):
        # a threshold above every |c| zeroes every coordinate with q > 0:
        # -0.0 where c < 0, +0.0 elsewhere, as the plain-float sweep gives
        x, grad, M, K = _sweep_stack(rng, 6, 3, 4, zero_rows=True)
        thr = 1e6
        got = soft_threshold_sweep(x, grad, M, K, thr)
        signs = set()
        for w in range(6):
            want = _plain_sweep(x[w], grad[w], M[w], K[w], thr)
            assert np.array_equal(_bits(got[w]), _bits(want))
            signs |= {np.signbit(v) for v in want[want == 0.0]}
        assert signs == {False, True}

    def test_nonpositive_curvature_is_skipped(self):
        got = soft_threshold_sweep([[[1.0, 2.0]]], [[[5.0, 5.0]]], [[[0.0]]],
                                   np.eye(2)[None], 0.1)
        assert got.tolist() == [[[1.0, 2.0]]]


def _edges_before(n_rows, first):
    """The edges of the five folds ``tscv_tune`` computed inline before
    they were shared."""
    if first is None:
        first = max(10, n_rows // 2)
    first = min(max(first, 2), n_rows - 1)
    edges = np.linspace(first, n_rows, 6).astype(int)
    out = []
    for f in range(5):
        lo, hi = int(edges[f]), int(edges[f + 1])
        if hi <= lo:
            continue
        out.append((lo, hi))
    return out


class TestExpandingFolds:
    def test_edges_equal_the_inline_rule(self):
        for n_rows in (3, 7, 12, 40, 61, 120, 121, 257):
            for first in (None, 0, 1, 5, n_rows // 3, n_rows - 1,
                          n_rows, n_rows + 5):
                assert expanding_folds(n_rows, first) \
                    == _edges_before(n_rows, first)

    def test_blocks_partition_the_validation_rows(self):
        blocks = expanding_folds(120, 61)
        assert blocks[0][0] == 61 and blocks[-1][1] == 120
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))

    def test_ties_go_to_the_later_entry(self):
        assert last_minimum([3.0, 1.0, 2.0, 1.0]) == 3
        assert last_minimum([np.nan, 2.0]) == 1
        assert last_minimum([np.nan, np.nan]) == 0


class TestColumnConventions:
    def test_sign_of_the_largest_entry(self):
        V = np.array([[0.2, -3.0, 1.0],
                      [-0.9, 2.0, -4.0],
                      [0.5, 0.1, 2.0]])
        assert column_signs(V).tolist() == [-1.0, -1.0, -1.0]
        assert (column_signs(V * column_signs(V)) == 1.0).all()

    def test_ties_take_the_first_entry(self):
        V = np.array([[2.0, -2.0],
                      [-2.0, 2.0]])
        assert column_signs(V).tolist() == [1.0, -1.0]

    def test_zero_and_empty_columns(self):
        assert column_signs(np.zeros((3, 2))).tolist() == [1.0, 1.0]
        assert column_signs(np.array([[0.0], [-0.0]])).tolist() == [1.0]
        assert column_signs(np.zeros((4, 0))).shape == (0,)

    def test_column_scales_guard_constant_columns(self, rng):
        x = np.column_stack([rng.standard_normal(30), np.full(30, 4.0),
                             rng.standard_normal(30) * 3.0])
        sd = column_scales(x)
        assert sd[1] == 1.0
        assert np.array_equal(sd[[0, 2]], x.std(axis=0)[[0, 2]])


class TestSingularPivots:
    def test_threshold_is_n_eps_times_the_column_norm(self):
        n, norms = 50, np.array([2.0, 3.0])
        tol = n * np.finfo(float).eps * norms
        F = np.diag(tol)
        assert singular_pivots(F, norms, n).all()
        F = np.diag(np.nextafter(tol, np.inf))
        assert not singular_pivots(F, norms, n).any()

    def test_exact_collinearity_is_singular_at_any_scale(self, rng):
        X = rng.standard_normal((80, 3))
        X = np.column_stack([X, X[:, 0] - 2.0 * X[:, 2], np.zeros(80)])
        for scale in [1e-8, 1.0, 1e8]:
            Xs = X * scale
            F = np.linalg.qr(Xs, mode="r")
            got = singular_pivots(F, np.linalg.norm(Xs, axis=0), 80)
            assert got.tolist() == [False, False, False, True, True]

    def test_missing_and_nan_pivots_are_singular(self):
        F = np.triu(np.ones((2, 4)))
        assert singular_pivots(F, np.ones(4), 10).tolist() == \
            [False, False, True, True]
        F = np.diag([1.0, np.nan])
        assert singular_pivots(F, np.ones(2), 10).tolist() == [False, True]

    def test_a_stack_of_factors_reads_one_norm_row_each(self):
        F = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        norms = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert singular_pivots(F, norms, 10).tolist() == \
            [[False, False], [False, True]]


def _pivot_stacks(rng, kind, count=120, S=6):
    """Stacks of S N x N matrices, N = 2-12, with columns scaled over
    1e-4 .. 1e4: 'random'; 'near' rank-deficient (rank r < N plus noise
    of 1e-10 to 1e-4); 'duplicated' (the largest column and a signed copy
    of it) and 'zero' (one zero column).  Copies tie in the first step;
    LAPACK breaks a tie between copies met later by the rounding of its
    BLAS kernels, which no order rule reproduces."""
    for _ in range(count):
        N = int(rng.integers(2, 13))
        if kind == "near":
            r = int(rng.integers(1, N))
            A = rng.standard_normal((S, N, r)) @ rng.standard_normal((S, r, N))
            A += 10.0 ** rng.uniform(-10, -4) * rng.standard_normal((S, N, N))
        else:
            A = rng.standard_normal((S, N, N))
        A *= 10.0 ** rng.uniform(-4, 4, (S, 1, N))
        if kind == "duplicated":
            for a in A:
                i = np.argmax(np.linalg.norm(a, axis=0))
                j = (i + 1 + rng.integers(N - 1)) % N
                a[:, j] = a[:, i] * rng.choice([-1.0, 1.0])
        elif kind == "zero":
            A[np.arange(S), :, rng.integers(N, size=S)] = 0.0
        yield A


@pytest.mark.blas_threads
class TestPivotOrder:
    """The column order of LAPACK's pivoted QR (``dgeqp3`` through
    ``scipy.linalg.qr(pivoting=True)``), and one stacked numpy QR of the
    permuted stack for its Q and R."""

    @pytest.mark.parametrize("kind", ["random", "near", "duplicated",
                                      "zero"])
    def test_matches_lapack(self, kind):
        rng = np.random.default_rng(["random", "near", "duplicated",
                                     "zero"].index(kind))
        for A in _pivot_stacks(rng, kind):
            piv = pivot_order(A)
            Q, R0 = np.linalg.qr(np.take_along_axis(A, piv[:, None], axis=2))
            for s, a in enumerate(A):
                q, r, want = scipy.linalg.qr(a, pivoting=True)
                assert piv[s].tolist() == want.tolist()
                scale = np.abs(r).max()
                assert np.abs(R0[s] - r).max() <= 1e-14 * scale
                # column j of Q is as well determined as the leading j + 1
                # columns are conditioned: eps |r00| / |rjj|
                diag = np.abs(np.diagonal(r))
                cond = np.maximum(1.0, diag[0] / np.maximum(diag, 1e-300))
                assert (np.abs(Q[s] - q).max(axis=0) <= 1e-14 * cond).all()

    def test_ties_go_to_the_first_in_the_working_order(self):
        # the largest column swaps into place 0 and sends column 0 to its
        # place, behind column 1: the tie between them goes to column 1
        A = np.diag([1.0, 1.0, 10.0])
        assert pivot_order(A).tolist() == [2, 1, 0]
        # the first of two largest copies; its swap puts the zero column 0
        # ahead of the copy left, whose residual is zero too
        B = np.array([[0.0, 3.0, 1.0, -3.0],
                      [0.0, 0.0, 2.0, 0.0],
                      [0.0, 4.0, 0.0, -4.0],
                      [0.0, 0.0, 0.0, 0.0]])
        assert pivot_order(B).tolist() == [1, 2, 0, 3]
        for a in (A, B):
            assert pivot_order(a).tolist() == \
                scipy.linalg.qr(a, pivoting=True)[2].tolist()

    def test_stack_shapes(self, rng):
        A = rng.standard_normal((2, 3, 5, 4))
        piv = pivot_order(A)
        assert piv.shape == (2, 3, 4)
        assert piv[1, 2].tolist() == pivot_order(A[1, 2]).tolist()
        assert pivot_order(np.ones((3, 1))).tolist() == [0]


def test_key_positions_in_order_of_first_appearance():
    got = key_positions([(0, 2), (3, 1), (0, 2), (1, 1), (3, 1)])
    assert list(got.items()) == [((0, 2), [0, 2]), ((3, 1), [1, 4]),
                                 ((1, 1), [3])]
    assert key_positions([]) == {}


@pytest.mark.blas_threads
class TestPerMatrix:
    """``errors.per_matrix``: a matrix that its own call fails on gets
    that LinAlgError in place and NaN, and the others come out as one
    call over them gives them."""

    @staticmethod
    def _args(fn, singular):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 9, 4))
        S = np.swapaxes(X, 1, 2) @ X          # positive definite
        for i in singular:
            # a zero row and column: an exact zero pivot, not positive
            # definite
            S[i, 1, :] = S[i, :, 1] = 0.0
        rhs = rng.standard_normal((6, 4, 2))
        return (S, rhs) if fn is np.linalg.solve else (S,)

    @pytest.mark.parametrize("fn", [np.linalg.solve, np.linalg.inv,
                                    np.linalg.cholesky])
    def test_a_singular_matrix_fails_alone(self, fn):
        args = self._args(fn, (2,))
        with pytest.raises(np.linalg.LinAlgError):
            fn(*args)
        out, failed = per_matrix(fn, *args)
        assert list(failed) == [2]
        assert isinstance(failed[2], np.linalg.LinAlgError)
        with pytest.raises(np.linalg.LinAlgError, match=str(failed[2])):
            fn(*(a[2] for a in args))
        assert np.isnan(out[2]).all()
        others = np.delete(out, 2, axis=0)
        assert others.tobytes() == fn(
            *(np.delete(a, 2, axis=0) for a in args)).tobytes()

    @pytest.mark.parametrize("fn", [np.linalg.solve, np.linalg.inv,
                                    np.linalg.cholesky])
    def test_one_call_when_every_matrix_succeeds(self, fn):
        args = self._args(fn, ())
        out, failed = per_matrix(fn, *args)
        assert failed == {}
        assert out.tobytes() == fn(*args).tobytes()

    @pytest.mark.parametrize("singular", [(0, 3), tuple(range(6))])
    def test_several_or_every_matrix_failing(self, singular):
        out, failed = per_matrix(np.linalg.inv,
                                 *self._args(np.linalg.inv, singular))
        assert list(failed) == list(singular)
        assert out.shape == (6, 4, 4)
        assert np.isnan(out[list(singular)]).all()
        assert np.isfinite(np.delete(out, singular, axis=0)).all()


def test_one_range_rule_for_every_level():
    # the classification, bootstrap, critical-value and MCS levels; the
    # harness's config names its command-line flag
    losses = np.random.default_rng(0).standard_normal((40, 2))
    checks = [lambda a: ClassifyConfig(alpha=a), lambda a: AwbConfig(alpha=a),
              lambda a: CriticalValueSet(-3.4, -3.9, -2.0, -2.9, alpha=a),
              lambda a: mcs(losses, alpha=a)]
    for alpha in (0.0, 1.0, -0.1, float("nan")):
        for check in checks:
            with pytest.raises(ParameterError,
                               match=r"^alpha must lie in \(0, 1\)$"):
                check(alpha)
        with pytest.raises(ParameterError, match=r"^the MCS level --alpha "
                           r"must lie in \(0, 1\)$"):
            HarnessConfig(mcs_level=alpha)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every worker pool that ``per_window`` starts."""
    sizes = []

    class Recorded(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, *args):
            sizes.append(max_workers)
            super().__init__(max_workers, *args)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        Recorded)
    return sizes


def _outcomes(results):
    """Each result as plain data: an array's bytes, an error's type and
    message."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r.tobytes()
            for r in results]


@pytest.mark.worker_processes
class TestPerWindow:
    """``errors.per_window`` on worker processes gives what it gives in
    this process: each window's result or window error, in order, with a
    window that is already an error kept as the same object in this
    process."""

    def test_a_closure_gives_the_same_on_any_pool(self, pool_sizes):
        # a closure cannot be pickled: the workers inherit it
        scale = np.arange(3.0)

        def fit(x, k):
            if k == 2:
                raise NumericalError(f"injected at {k}")
            return np.sqrt(x) * scale + k

        xs, ks = [1.0, 2.0, 3.0, 4.0, 5.0], range(5)
        here = per_window(fit, xs, ks)
        assert type(here[2]) is NumericalError and pool_sizes == []
        for workers in (2, 3):
            assert _outcomes(per_window(fit, xs, ks, workers=workers)) == \
                _outcomes(here)
        assert pool_sizes == [2, 3]
        assert multiprocessing.active_children() == []

    def test_an_error_stays_the_same_object_and_forks_nothing(
            self, pool_sizes, tmp_path):
        # fn leaves a marker per window it runs on; the error windows
        # leave none, and the pool counts only the windows to attempt
        def fit(x, k):
            (tmp_path / str(k)).touch()
            return x * k

        errors = [DataError("short"), np.linalg.LinAlgError("singular")]
        results = [2.0, errors[0], 3.0, errors[1], 4.0]
        for workers in (1, 2, 3):
            for marker in tmp_path.iterdir():
                marker.unlink()
            out = per_window(fit, results, range(5), workers=workers)
            assert out[1] is errors[0] and out[3] is errors[1]
            assert [out[0], out[2], out[4]] == [0.0, 6.0, 16.0]
            assert sorted(m.name for m in tmp_path.iterdir()) == \
                ["0", "2", "4"]
        assert pool_sizes == [2, 3]
        # one window to attempt, or none: no pool at all
        for results in ([errors[0], 5.0, errors[1]], errors):
            out = per_window(fit, results, [1, 2, 3][:len(results)],
                             workers=3)
            assert [r for r in out if isinstance(r, Exception)] == errors
            assert all(a is b for a, b in zip(out, results)
                       if isinstance(b, Exception))
        assert pool_sizes == [2, 3]
        assert multiprocessing.active_children() == []

    def test_none_means_every_usable_cpu(self, pool_sizes, monkeypatch):
        xs = [float(j) for j in range(6)]
        want = per_window(np.sqrt, xs)
        for cpus in ({0, 1, 2}, {0}, {0, 1, 2, 3, 4, 5, 6, 7}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            assert per_window(np.sqrt, xs, workers=None) == want
        # one CPU forks nothing; eight CPUs fork one worker per window
        assert pool_sizes == [3, 6]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count in (2, None, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert per_window(np.sqrt, xs, workers=None) == want
        assert pool_sizes == [3, 6, 2, 4]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_another_error_in_a_worker_reaches_the_caller(self, workers):
        def fit(x):
            if x == 3:
                raise KeyError("not a window error")
            return x

        with pytest.raises(KeyError, match="not a window error"):
            per_window(fit, range(6), workers=workers)
        assert multiprocessing.active_children() == []
