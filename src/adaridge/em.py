"""Marginal-mode fitting of the coefficients by EM-style iterations.

Two variants mirror the two prior constructions: ``independent-prior``
(coefficients a priori independent of the noise variance, variance
profiled out through the residual sum) and ``explicit-sigma`` (the noise
variance kept as an explicit iterate).  Both reduce to a sequence of
ridge solves with coordinate weights built from the previous iterate, and
both share the pruning and stopping rules of the joint-mode solver.

The independent-prior weights use the conditional-mode variance plug-in
``S^2 / (n + 2)`` rather than the raw ``S^2 / n`` moment: with it, the
fixed point at ``eta = -1`` coincides exactly with the joint posterior
mode at ``eta = 0`` for every n, which is the correspondence the two
solvers are held to in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ExactFit, ZeroCoordinate
from .model import Dataset, FitOptions, Hyper, _ridge_solve

__all__ = ["EmFit", "em_step", "em_step_explicit_sigma", "fit_em"]

VARIANTS = ("independent-prior", "explicit-sigma")


@dataclass(frozen=True)
class EmFit:
    """Converged marginal-mode estimate with its residual-sum trace."""

    beta: np.ndarray
    s2_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: int = 0
    converged: bool = False
    variant: str = "independent-prior"
    active: np.ndarray | None = None


def _check_nonzero(beta: np.ndarray):
    zero = np.where(beta == 0.0)[0]
    if zero.size:
        raise ZeroCoordinate(int(zero[0]))


def em_step(data: Dataset, beta_prev: np.ndarray, h: Hyper) -> np.ndarray:
    """One independent-prior step: solve ``(X'X + D) beta = X'y`` with
    ``D_j = (2 eta + 3) S^2 / ((n + 2) beta_j^2)`` and ``S^2`` the residual
    sum at ``beta_prev``.

    ``eta = -3/2`` zeroes the weights (flat prior) and returns least
    squares in a single step.
    """

    if h.eta < -1.5:
        raise ValueError(f"independent-prior step needs eta >= -3/2, got {h.eta}")
    beta_prev = np.asarray(beta_prev, dtype=float)
    _check_nonzero(beta_prev)
    r = data.y - data.x @ beta_prev
    s2 = float(r @ r)
    if s2 == 0.0:
        raise ExactFit("zero residual at the current iterate")
    d = (2.0 * h.eta + 3.0) * s2 / ((data.n + 2.0) * beta_prev**2)
    return _ridge_solve(data.xtx, d, data.xty)


def em_step_explicit_sigma(
    data: Dataset, beta_prev: np.ndarray, sigma2_prev: float, h: Hyper
) -> tuple[np.ndarray, float]:
    """One explicit-sigma step: ridge weights
    ``D_j = (2 eta + 1) sigma2 / beta_j^2`` followed by the variance
    update ``sigma2 = rss / (n + 2)``.

    The weight equals ``(2 eta + 1) / t_j^2`` for the t-statistic
    ``t_j = beta_j / sigma``; conventional testing intuition, with
    ``eta = -1/2`` giving least squares outright.
    """

    if h.eta < -0.5:
        raise ValueError(f"explicit-sigma step needs eta >= -1/2, got {h.eta}")
    beta_prev = np.asarray(beta_prev, dtype=float)
    _check_nonzero(beta_prev)
    if sigma2_prev <= 0:
        raise ValueError(f"sigma2_prev must be > 0, got {sigma2_prev}")
    d = (2.0 * h.eta + 1.0) * sigma2_prev / beta_prev**2
    beta = _ridge_solve(data.xtx, d, data.xty)
    r = data.y - data.x @ beta
    s2 = float(r @ r)
    if s2 == 0.0:
        raise ExactFit("zero residual after the step")
    return beta, s2 / (data.n + 2.0)


def fit_em(
    data: Dataset,
    h: Hyper,
    opts: FitOptions = FitOptions(),
    variant: str = "independent-prior",
) -> EmFit:
    """Iterate the chosen step to convergence with pruning.

    Coordinates that are exactly zero in the initializer stay zero
    (zero-absorption); a coordinate whose implied prior-variance scale
    falls below ``opts.prune_tol`` is pruned permanently.  At the flat
    prior boundary (``eta = -3/2`` independent-prior, ``eta = -1/2``
    explicit-sigma) the estimator is least squares in one step.
    """

    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    boundary = -1.5 if variant == "independent-prior" else -0.5
    if h.eta < boundary:
        raise ValueError(f"{variant} needs eta >= {boundary}, got {h.eta}")

    n, p = data.n, data.p
    beta = data.initial_beta.copy()

    r = data.y - data.x @ beta
    s2 = float(r @ r)
    if s2 == 0.0:
        raise ExactFit("initializer interpolates y exactly")

    if h.eta == boundary:
        return EmFit(beta=beta, s2_trace=np.array([s2]), iterations=1,
                     converged=True, variant=variant,
                     active=np.ones(p, dtype=bool))

    active = beta != 0.0
    beta[~active] = 0.0
    trace: list[float] = []
    sigma2 = s2 / (n + 2.0)
    a = 2.0 * h.eta + 3.0 if variant == "independent-prior" else 2.0 * h.eta + 1.0

    # The data restricted to the live coordinates ``idx``, rebuilt only
    # when pruning shrinks them, so its cached X'X and X'y carry over.
    idx = np.where(active)[0]
    sub = Dataset(data.x[:, idx], data.y) if idx.size else None
    for it in range(1, opts.max_iter + 1):
        if idx.size == 0:
            return EmFit(beta=np.zeros(p), s2_trace=np.asarray(trace),
                         iterations=it, converged=True, variant=variant,
                         active=active)
        r = data.y - sub.x @ beta[idx]
        s2 = float(r @ r)
        if s2 == 0.0:
            raise ExactFit("zero residual encountered during fitting")
        trace.append(s2)

        # implied prior-variance scale; same knob as the joint solver
        if variant == "independent-prior":
            vtilde = (n + 2.0) * beta[idx] ** 2 / (a * s2)
        else:
            sigma2 = s2 / (n + 2.0)
            vtilde = beta[idx] ** 2 / (a * sigma2)
        dead = vtilde < opts.prune_tol
        if dead.any():
            gone = idx[dead]
            active[gone] = False
            beta[gone] = 0.0
            idx = idx[~dead]
            if idx.size == 0:
                continue
            sub = Dataset(data.x[:, idx], data.y)

        if variant == "independent-prior":
            beta_new = em_step(sub, beta[idx], h)
        else:
            beta_new, sigma2 = em_step_explicit_sigma(sub, beta[idx], sigma2, h)

        delta = float(np.max(np.abs(beta_new - beta[idx]) / (1.0 + np.abs(beta[idx]))))
        beta[idx] = beta_new
        if delta < opts.conv_tol:
            return EmFit(beta=beta, s2_trace=np.asarray(trace), iterations=it,
                         converged=True, variant=variant, active=active)

    return EmFit(beta=beta, s2_trace=np.asarray(trace), iterations=opts.max_iter,
                 converged=False, variant=variant, active=active)
