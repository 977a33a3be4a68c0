"""Shared numeric kernels: the scalar soft-threshold of the coordinate
sweep, the fold edges of expanding-window cross-validation, the
singular-pivot rule, and the column sign and scale conventions."""

import numpy as np
import pytest

from hdcoint import ParameterError
from hdcoint._numeric import (column_scales, column_signs, expanding_folds,
                              last_minimum, singular_pivots, soft_threshold,
                              soft_threshold_scalar, soft_threshold_sweep)


def _bits(x):
    return np.array([x], dtype=float).view(np.uint64)[0]


class TestSoftThresholdScalar:
    def test_matches_the_array_threshold_bit_for_bit(self, rng):
        thresholds = [0.0, 0.3, 1e-300, float(rng.uniform(0.0, 5.0))]
        for t in thresholds:
            values = [t, -t, 0.0, -0.0, np.nextafter(t, np.inf),
                      np.nextafter(-t, -np.inf), np.nextafter(t, 0.0),
                      np.nextafter(-t, 0.0)]
            values += list(rng.standard_normal(200) * 3.0)
            for c in values:
                want = soft_threshold(np.float64(c), t)
                got = soft_threshold_scalar(float(c), t)
                assert type(got) is float
                assert _bits(got) == _bits(want), (c, t)

    def test_nan_stays_nan(self):
        assert np.isnan(soft_threshold_scalar(float("nan"), 0.5))
        assert np.isnan(soft_threshold(np.float64("nan"), 0.5))


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
            got = soft_threshold_sweep(x0, g0 - M @ x0 @ K, M, K, thr)
            assert np.allclose(got.ravel(), want, rtol=1e-12, atol=1e-12)

    def test_nonpositive_curvature_is_skipped(self):
        got = soft_threshold_sweep([[1.0, 2.0]], [[5.0, 5.0]], [[0.0]],
                                   np.eye(2), 0.1)
        assert got.tolist() == [[1.0, 2.0]]


def _edges_before(n_rows, folds, first):
    """The fold edges ``tscv_tune`` computed inline before they were shared."""
    if first is None:
        first = max(10, n_rows // 2)
    first = min(max(first, 2), n_rows - 1)
    edges = np.linspace(first, n_rows, folds + 1).astype(int)
    out = []
    for f in range(folds):
        lo, hi = int(edges[f]), int(edges[f + 1])
        if hi <= lo:
            continue
        out.append((lo, hi))
    return out


class TestExpandingFolds:
    def test_edges_equal_the_inline_rule(self):
        for n_rows in (3, 7, 12, 40, 61, 120, 121, 257):
            for folds in (2, 3, 5, 7, 10, 50):
                for first in (None, 0, 1, 5, n_rows // 3, n_rows - 1,
                              n_rows, n_rows + 5):
                    assert expanding_folds(n_rows, folds, first) \
                        == _edges_before(n_rows, folds, first)

    def test_blocks_partition_the_validation_rows(self):
        blocks = expanding_folds(120, 5, 61)
        assert blocks[0][0] == 61 and blocks[-1][1] == 120
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))

    def test_fewer_than_two_folds_rejected(self):
        with pytest.raises(ParameterError):
            expanding_folds(100, 1)

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
