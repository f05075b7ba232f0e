import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import adaridge.baselines as baselines
from adaridge import Dataset, fit_ols, fit_ridge_gcv, standardize
from adaridge.errors import RankDeficient
from conftest import same_bits, toeplitz_design
from oracles import ridge_gcv_loop


def ridge_gcv_on_grid(monkeypatch, data, grid):
    """``fit_ridge_gcv`` searching ``grid`` in place of ``LAMBDA_GRID``."""

    monkeypatch.setattr(baselines, "LAMBDA_GRID", np.asarray(grid, dtype=float))
    return fit_ridge_gcv(data)


class TestOls:
    def test_orthonormal_projection(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((15, 4)))
        y = rng.standard_normal(15)
        data = Dataset(q, y)
        np.testing.assert_allclose(fit_ols(data), q.T @ y, atol=1e-12)

    def test_noiseless_recovery(self, rng):
        x = rng.standard_normal((30, 3))
        beta0 = np.array([1.0, -2.0, 0.5])
        data = Dataset(x, x @ beta0)
        np.testing.assert_allclose(fit_ols(data), beta0, atol=1e-10)

    def test_residual_orthogonality(self, rng):
        for _ in range(10):
            x = rng.standard_normal((40, 5))
            y = rng.standard_normal(40)
            data = Dataset(x, y)
            beta = fit_ols(data)
            assert np.max(np.abs(x.T @ (y - x @ beta))) < 1e-8

    def test_rank_deficient(self, rng):
        col = rng.standard_normal(10)
        data = Dataset(np.column_stack([col, col]), rng.standard_normal(10))
        with pytest.raises(RankDeficient):
            fit_ols(data)


class TestRidgeGcv:
    def test_huge_penalty_kills_coefficients(self, rng, monkeypatch):
        x, y = toeplitz_design(40, [2.0, 1.0], 1.0, rng)
        data, _ = standardize(x, y)
        rf = ridge_gcv_on_grid(monkeypatch, data, [1e9])
        assert np.max(np.abs(rf.beta)) < 1e-6
        rss = float((data.y - data.x @ rf.beta) @ (data.y - data.x @ rf.beta))
        assert rss == pytest.approx(float(data.y @ data.y), rel=1e-5)

    def test_zero_penalty_limit_is_ols(self, rng, monkeypatch):
        x, y = toeplitz_design(40, [2.0, 1.0, -0.5], 1.0, rng)
        data, _ = standardize(x, y)
        rf = ridge_gcv_on_grid(monkeypatch, data, [1e-12])
        np.testing.assert_allclose(rf.beta, fit_ols(data), atol=1e-8)

    def test_shrinkage_monotone_in_penalty(self, rng, monkeypatch):
        x, y = toeplitz_design(50, [1.0, 2.0, 0.0, -1.0], 1.5, rng)
        data, _ = standardize(x, y)
        norms = [
            float(np.linalg.norm(ridge_gcv_on_grid(monkeypatch, data, [lam]).beta))
            for lam in np.logspace(-4, 3, 12)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_argmin_matches_bruteforce_gcv(self, rng, monkeypatch):
        x, y = toeplitz_design(30, [1.0, 0.5, 0.0], 1.0, rng)
        data, _ = standardize(x, y)
        grid = np.logspace(-3, 2, 20)
        rf = ridge_gcv_on_grid(monkeypatch, data, grid)
        # brute force with explicit hat matrices
        scores = []
        for lam in grid:
            hat = data.x @ np.linalg.solve(
                data.x.T @ data.x + lam * np.eye(data.p), data.x.T)
            resid = data.y - hat @ data.y
            scores.append(
                data.n * float(resid @ resid) / (data.n - np.trace(hat)) ** 2)
        best = grid[int(np.argmin(scores))]
        assert rf.lam == pytest.approx(best)
        assert rf.gcv_score == pytest.approx(min(scores), rel=1e-10)

    def test_tie_goes_to_the_smaller_penalty(self, rng, monkeypatch):
        # a penalty one ulp above 1e-6 vanishes in every s^2 + lambda, so
        # both score the same
        x, y = toeplitz_design(40, [1.0, 0.5, 0.0], 1.0, rng)
        data, _ = standardize(x, y)
        low, high = 1e-6, np.nextafter(1e-6, 1.0)
        assert (ridge_gcv_on_grid(monkeypatch, data, [low]).gcv_score
                == ridge_gcv_on_grid(monkeypatch, data, [high]).gcv_score)
        assert ridge_gcv_on_grid(monkeypatch, data, [low, high]).lam == low

    def test_deterministic(self, rng):
        x, y = toeplitz_design(30, [1.0, 0.5], 1.0, rng)
        data, _ = standardize(x, y)
        a = fit_ridge_gcv(data)
        b = fit_ridge_gcv(data)
        assert a.lam == b.lam and a.gcv_score == b.gcv_score
        np.testing.assert_array_equal(a.beta, b.beta)

    @given(n=st.integers(3, 60), p=st.integers(1, 80), seed=st.integers(0, 2**16))
    def test_one_pass_is_the_loop_bit_for_bit(self, n, p, seed):
        # p >= n among them, where tr H comes close to n at small penalties
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        y = x[:, :3] @ np.ones(min(p, 3)) + rng.standard_normal(n)
        data, _ = standardize(x, y)
        a, b = fit_ridge_gcv(data), ridge_gcv_loop(data)
        assert a.lam == b.lam
        assert same_bits(a.beta, b.beta)
        # the loop squares (n - tr H) with the C library's pow, which can
        # miss the correctly rounded square by one unit in the last place
        assert abs(a.gcv_score - b.gcv_score) <= np.spacing(b.gcv_score)
