"""Reference estimators: least squares and ridge with a GCV-chosen penalty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .model import Dataset

__all__ = ["RidgeFit", "fit_ols", "fit_ridge_gcv"]

# Candidate ridge penalties of the GCV search.
LAMBDA_GRID = np.logspace(-6, 3, 50)


@dataclass(frozen=True)
class RidgeFit:
    beta: np.ndarray
    lam: float
    gcv_score: float


def fit_ols(data: Dataset) -> np.ndarray:
    """Least-squares coefficients via orthogonal factorization."""

    beta, _, rank, _ = np.linalg.lstsq(data.x, data.y, rcond=None)
    if rank < data.p:
        raise RankDeficient(f"rank {rank} < p = {data.p}")
    return beta


def fit_ridge_gcv(data: Dataset) -> RidgeFit:
    """Ridge regression with the penalty chosen by generalized
    cross-validation.

    For each penalty in ``LAMBDA_GRID`` computes ``GCV = n RSS / (n - tr
    H)^2`` with ``H`` the ridge hat matrix, and returns the minimizer (ties
    go to the smaller penalty).  A single SVD serves the whole grid, which
    is scored in one pass.
    """

    u, s, vt = np.linalg.svd(data.x, full_matrices=False)
    uty = u.T @ data.y
    n = data.n
    yty = data.yty

    shrink = s**2 / (s**2 + LAMBDA_GRID[:, None])   # hat-matrix diagonals in U-space
    fitted_norm2 = np.sum((shrink * uty) ** 2, axis=1)
    cross = np.sum(shrink * uty**2, axis=1)
    rss = yty - 2.0 * cross + fitted_norm2
    scores = n * rss / (n - np.sum(shrink, axis=1)) ** 2
    best = int(np.argmin(scores))
    lam = LAMBDA_GRID[best]
    beta = vt.T @ ((s / (s**2 + lam)) * uty)
    return RidgeFit(beta=beta, lam=float(lam), gcv_score=float(scores[best]))
