"""Marginal-mode fitting of the coefficients by EM-style iterations.

Two variants mirror the two prior constructions: ``independent-prior``
(coefficients a priori independent of the noise variance, variance
profiled out through the residual sum) and ``explicit-sigma`` (the noise
variance kept as an explicit iterate).  Both run through the joint-mode
solver's loop, ``solver._cycle``, with a step of their own.

The independent-prior weights use the conditional-mode variance plug-in
``S^2 / (n + 2)`` rather than the raw ``S^2 / n`` moment: with it, the
fixed point at ``eta = -1`` coincides exactly with the joint posterior
mode at ``eta = 0`` for every n, which is the correspondence the two
solvers are held to in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .baselines import fit_ols
from .errors import ExactFit
from .model import Dataset, FitOptions, Hyper, _one_blas_thread, _rss
from .solver import _cycle

__all__ = ["EmFit", "fit_em"]

# The variants, each with its least ``eta``: the flat-prior boundary.
VARIANTS = {"independent-prior": -1.5, "explicit-sigma": -0.5}


@dataclass(frozen=True)
class EmFit:
    """Converged marginal-mode estimate with its residual-sum trace."""

    beta: np.ndarray
    s2_trace: np.ndarray
    iterations: int
    converged: bool
    variant: str
    active: np.ndarray


@_one_blas_thread()
def fit_em(
    data: Dataset,
    h: Hyper,
    opts: FitOptions = FitOptions(),
    variant: str = "independent-prior",
) -> EmFit:
    """Iterate the chosen step to convergence with pruning.

    Each iteration solves ``(X'X + D) beta = X'y`` on the live
    coordinates, with weights from the previous iterate and its residual
    sum ``S^2``: ``D_j = (2 eta + 3) S^2 / ((n + 2) beta_j^2)``
    (independent-prior) or ``D_j = (2 eta + 1) sigma2 / beta_j^2`` with
    ``sigma2 = S^2 / (n + 2)`` (explicit-sigma; the weight is
    ``(2 eta + 1) / t_j^2`` for the t-statistic ``beta_j / sigma``).

    A coordinate whose implied prior-variance scale ``1 / D_j`` falls
    below ``opts.prune_tol`` is pruned permanently, so a coordinate that
    is exactly zero in the initializer goes in iteration 1.  ``s2_trace``
    holds each iteration's ``S^2`` before pruning; the independent-prior
    weights take it after pruning.  Pruning every coordinate in iteration
    ``k`` converges after ``k`` iterations.  At the flat prior
    boundary (``eta = -3/2`` independent-prior, ``eta = -1/2``
    explicit-sigma) the estimator is least squares (:func:`fit_ols`) in
    one step, so a design without full column rank raises
    ``RankDeficient`` there.  The fit runs its BLAS on one thread (see
    ``model._one_blas_thread``).
    """

    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    boundary = VARIANTS[variant]
    if h.eta < boundary:
        raise ValueError(f"{variant} needs eta >= {boundary}, got {h.eta}")

    p = data.p
    if h.eta == boundary:
        beta = fit_ols(data)
        return EmFit(beta=beta, s2_trace=np.array([_rss(data.y, data.x, beta)]),
                     iterations=1, converged=True, variant=variant,
                     active=np.ones(p, dtype=bool))

    independent = variant == "independent-prior"
    a = 2.0 * h.eta + (3.0 if independent else 1.0)
    # c = a S^2 / d, and D_j = c / (g beta_j^2).
    d, g = (1.0, data.n + 2.0) if independent else (data.n + 2.0, 1.0)
    idx, beta_live, _, iterations, converged, trace, _ = _cycle(
        data, np.arange(p), data.initial_beta, partial(_em_step, a, d, g),
        opts.max_iter, opts.conv_tol, opts.prune_tol,
        weights=lambda c, vtilde, b: c / (g * b**2), reweight=independent)
    beta = np.zeros(p)
    beta[idx] = beta_live
    return EmFit(beta=beta, s2_trace=np.array([s2 for s2, _, _ in trace]),
                 iterations=iterations, converged=converged, variant=variant,
                 active=np.isin(np.arange(p), idx))


def _em_step(a: float, d: float, g: float, s2: float, beta: np.ndarray, w):
    """EM's step for ``solver._cycle`` at the residual sum ``S^2 = s2``:
    ``(S^2, c, 1 / D_j)`` for the weights ``D_j = c / (g beta_j^2)`` of
    :func:`fit_em`, with ``c = a (S^2 / d)``."""

    if s2 == 0.0:
        raise ExactFit("zero residual: the coefficients interpolate y exactly")
    c = a * (s2 / d)
    return s2, c, g * beta**2 / c
