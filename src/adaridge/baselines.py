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
    go to the smaller penalty).  A single SVD serves the whole grid.
    """

    u, s, vt = np.linalg.svd(data.x, full_matrices=False)
    uty = u.T @ data.y
    n = data.n
    yty = float(data.y @ data.y)

    best = None
    for lam in LAMBDA_GRID:
        shrink = s**2 / (s**2 + lam)          # diagonal of the hat matrix in U-space
        fitted_norm2 = float(np.sum((shrink * uty) ** 2))
        cross = float(np.sum(shrink * uty**2))
        rss = yty - 2.0 * cross + fitted_norm2
        tr_h = float(np.sum(shrink))
        score = n * rss / (n - tr_h) ** 2
        if best is None or score < best[0]:
            best = (score, lam)
    score, lam = best
    beta = vt.T @ ((s / (s**2 + lam)) * uty)
    return RidgeFit(beta=beta, lam=float(lam), gcv_score=float(score))
