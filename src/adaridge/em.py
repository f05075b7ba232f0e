"""Marginal-mode fitting of the coefficients by EM-style iterations.

Two variants mirror the two prior constructions: ``independent-prior``
(coefficients a priori independent of the noise variance, variance
profiled out through the residual sum) and ``explicit-sigma`` (the noise
variance kept as an explicit iterate).  Both share the pruning and
stopping rules of the joint-mode solver, and its view ``model._live``.

The independent-prior weights use the conditional-mode variance plug-in
``S^2 / (n + 2)`` rather than the raw ``S^2 / n`` moment: with it, the
fixed point at ``eta = -1`` coincides exactly with the joint posterior
mode at ``eta = 0`` for every n, which is the correspondence the two
solvers are held to in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import fit_ols
from .model import Dataset, FitOptions, Hyper, _live, _one_blas_thread, _ridge_solve, _rss

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
    below ``opts.prune_tol`` is pruned permanently, and coordinates that
    are exactly zero in the initializer stay zero (zero-absorption).
    ``s2_trace`` holds each iteration's ``S^2`` before pruning; the
    independent-prior weights take it after pruning.  At the flat prior
    boundary (``eta = -3/2`` independent-prior, ``eta = -1/2``
    explicit-sigma) the estimator is least squares (:func:`fit_ols`) in
    one step, so a design without full column rank raises
    ``RankDeficient`` there.  The fit runs its BLAS on one thread (see
    ``model._one_blas_thread``).
    """

    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    independent = variant == "independent-prior"
    boundary = VARIANTS[variant]
    if h.eta < boundary:
        raise ValueError(f"{variant} needs eta >= {boundary}, got {h.eta}")

    n, p = data.n, data.p
    if h.eta == boundary:
        beta = fit_ols(data)
        return EmFit(beta=beta, s2_trace=np.array([_rss(data.y, data.x, beta)]),
                     iterations=1, converged=True, variant=variant,
                     active=np.ones(p, dtype=bool))

    beta = data.initial_beta.copy()
    # On a constant response the start is 0 and this is the only ExactFit check.
    _rss(data.y, data.x, beta)

    active = beta != 0.0
    beta[~active] = 0.0
    trace: list[float] = []
    a = 2.0 * h.eta + (3.0 if independent else 1.0)
    converged = False

    # The live coordinates ``idx``, re-sliced only when pruning shrinks them.
    idx = np.flatnonzero(active)
    x, xtx, xty = _live(data, idx)
    for it in range(1, opts.max_iter + 1):
        if idx.size == 0:
            converged = True
            break
        b = beta[idx]
        s2 = _rss(data.y, x, b)
        trace.append(s2)

        # D = c / den, so den / c is the implied prior-variance scale
        c = a * s2 if independent else a * (s2 / (n + 2.0))
        den = (n + 2.0) * b**2 if independent else b**2
        dead = den / c < opts.prune_tol
        if dead.any():
            active[idx[dead]] = False
            beta[idx[dead]] = 0.0
            keep = ~dead
            idx, b, den = idx[keep], b[keep], den[keep]
            if idx.size == 0:
                continue
            # Release the old live arrays first, so no two copies coexist.
            del x, xtx, xty
            x, xtx, xty = _live(data, idx)
            if independent:
                c = a * _rss(data.y, x, b)

        beta_new = _ridge_solve(xtx, c / den, xty)
        delta = (np.abs(beta_new - b) / (1.0 + np.abs(b))).max()
        beta[idx] = beta_new
        if delta < opts.conv_tol:
            converged = True
            break

    return EmFit(beta=beta, s2_trace=np.asarray(trace), iterations=it,
                 converged=converged, variant=variant, active=active)
