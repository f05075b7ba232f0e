"""Seeded generators for the four simulation designs used in the
experiment suite.

Model 0 has four predictors: a correlated signal block ``{1,2,3}``
(pairwise correlation -0.39) plus one null predictor correlated 0.23 with
each signal, and coefficients (5.6, 5.6, 5.6, 0).  Models 1-3 share an
8-predictor Gaussian design with correlation ``0.5^|j-k|`` and differ
only in the coefficient vector.

All randomness flows from ``(seed, stream)`` pairs so a spec draws the
same bits regardless of call order; train and test sets use disjoint
streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Dataset, _check_count, _check_number

__all__ = [
    "DgpSpec",
    "TruthRecord",
    "MODEL_BETAS",
    "make_covariance",
    "draw_dataset",
    "draw_test_set",
    "dataset_to_csv",
]

MODEL_BETAS = {
    0: np.array([5.6, 5.6, 5.6, 0.0]),
    1: np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
    2: np.full(8, 0.85),
    3: np.array([5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
}

_TRAIN_STREAM = 0
_TEST_STREAM = 1


@dataclass(frozen=True)
class DgpSpec:
    model_id: int
    n: int
    sigma: float
    seed: int

    def __post_init__(self):
        if _check_count(self.model_id, "model_id", 0) not in MODEL_BETAS:
            raise ValueError(f"model_id must be one of {sorted(MODEL_BETAS)}")
        _check_count(self.n, "n")
        _check_number(self.sigma, "sigma", 0.0, strict=False)
        _check_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class TruthRecord:
    beta_true: np.ndarray
    support_true: np.ndarray
    covariance: np.ndarray


def make_covariance(model_id: int) -> np.ndarray:
    """Predictor correlation matrix for the given design."""

    if (model_id := _check_count(model_id, "model_id", 0)) not in MODEL_BETAS:
        raise ValueError(f"model_id must be one of {sorted(MODEL_BETAS)}")
    if model_id == 0:
        c = np.full((4, 4), -0.39)
        c[3, :3] = c[:3, 3] = 0.23
        np.fill_diagonal(c, 1.0)
    else:
        c = 0.5 ** np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
    return c


def _truth(model_id: int) -> TruthRecord:
    beta = MODEL_BETAS[model_id].copy()
    return TruthRecord(beta_true=beta, support_true=beta != 0,
                       covariance=make_covariance(model_id))


def _draw(spec: DgpSpec, truth: TruthRecord, n: int, stream: int) -> Dataset:
    rng = np.random.default_rng([spec.seed, stream])
    chol = np.linalg.cholesky(truth.covariance)
    x = rng.standard_normal((n, len(truth.beta_true))) @ chol.T
    y = x @ truth.beta_true + spec.sigma * rng.standard_normal(n)
    return Dataset(x, y)


def draw_dataset(spec: DgpSpec) -> tuple[Dataset, TruthRecord]:
    """Training draw: rows iid Gaussian with the design covariance,
    response linear plus Gaussian noise.  Fully determined by the seed."""

    truth = _truth(spec.model_id)
    return _draw(spec, truth, spec.n, _TRAIN_STREAM), truth


def draw_test_set(spec: DgpSpec, truth: TruthRecord, m: int = 10_000) -> Dataset:
    """Fresh rows from the same process on an independent seed stream."""

    _check_count(m, "m")
    return _draw(spec, truth, m, _TEST_STREAM)


def dataset_to_csv(data: Dataset, path: str | Path) -> None:
    """Write ``x1..xp,y`` rows for interchange with external tools."""

    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.p)] + ["y"])
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.x[i]]
                            + [repr(float(data.y[i]))])
