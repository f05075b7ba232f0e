"""Evaluation quantities for the simulation studies: test mean squared
error, support-recovery counts, solution-path recovery, and the bootstrap
standard error of a median."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyInput
from .model import Dataset, _check_count

__all__ = [
    "test_mse",
    "support_metrics",
    "path_contains_truth",
    "median_and_bootstrap_se",
]


def test_mse(beta_hat_raw, intercept: float, test: Dataset) -> float:
    """Mean of ``(y_i - intercept - x_i . beta)^2`` over a raw-scale test set."""

    beta = np.asarray(beta_hat_raw, dtype=float)
    if len(beta) != test.p:
        raise DimensionMismatch(
            f"beta has length {len(beta)}, test set has {test.p} predictors"
        )
    resid = test.y - intercept - test.x @ beta
    return float(np.mean(resid**2))


def support_metrics(active, support_true) -> tuple[int, int, bool]:
    """Counts of correctly and incorrectly selected predictors, and
    whether the selected set is exactly the true support."""

    act = np.asarray(active, dtype=bool)
    sup = np.asarray(support_true, dtype=bool)
    if act.shape != sup.shape:
        raise DimensionMismatch("masks must have equal length")
    c = int(np.sum(act & sup))
    i = int(np.sum(act & ~sup))
    correct = bool(c == int(sup.sum()) and i == 0)
    return c, i, correct


def path_contains_truth(fits_over_grid, support_true) -> bool:
    """True when some fit along the grid selects exactly the true support."""

    sup = np.asarray(support_true, dtype=bool)
    masks = list(fits_over_grid)
    if not masks:
        raise EmptyInput("need at least one grid fit")
    for mask in masks:
        act = np.asarray(mask, dtype=bool)
        if act.shape != sup.shape:
            raise DimensionMismatch("masks must have equal length")
        if (act == sup).all():
            return True
    return False


def median_and_bootstrap_se(values, n_boot: int = 500, seed: int = 0) -> tuple[float, float]:
    """Sample median (mean of the middle two for even counts) and the
    standard deviation of ``n_boot`` bootstrap medians."""

    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise EmptyInput("no values to summarize")
    _check_count(n_boot, "n_boot", 2)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, vals.size, size=(n_boot, vals.size))
    boot_medians = np.median(vals[idx], axis=1)
    return float(np.median(vals)), float(np.std(boot_medians, ddof=1))
