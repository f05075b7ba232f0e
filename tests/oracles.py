"""Test oracles: independently coded routes to the library's results.

:func:`log_joint_posterior` evaluates the joint log density of a
:class:`~adaridge.PosteriorState` from the data, and
:func:`conditional_marginal` the conditional log marginal at one precision
vector.  The package evaluates both only inside ``model._log_joint_density``
and ``evidence._conditional_marginal_core``, from terms its callers hold.

The reweighted-ridge path reaches the fixed point of
:func:`adaridge.fit_joint_mode` by rescaling columns and solving standard
ridge problems.  It shares only the least-squares boundary and the
assembly of the result with the solver, so agreement between the two
checks the solver's conditional-update cycle.

:func:`em_step` and :func:`em_step_explicit_sigma` are single steps of
the two :func:`adaridge.fit_em` variants, written out on their own:
iterating them from ``Dataset.initial_beta`` reproduces the EM loop.

:func:`assemble_hessian` lays the negative Hessian blocks that
``adaridge.solver._derivatives`` returns, and the Newton step factors, out
as one dense matrix, for comparison with finite differences.

:func:`ridge_gcv_loop` scores the GCV penalties one at a time, as
:func:`adaridge.fit_ridge_gcv` did before it scored the grid in one pass.

:func:`explicit_residual_cycle` is ``adaridge.solver._cycle`` as it took
every residual sum as ``||y - X beta||^2`` from the live columns, before
it took them from the Gram slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adaridge.baselines import LAMBDA_GRID, RidgeFit
from adaridge.errors import AdaRidgeError, DimensionMismatch, ExactFit
from adaridge.evidence import _conditional_marginal_core
from adaridge.model import (
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    PosteriorState,
    _live_columns,
    _live_gram,
    _log_joint_density,
    _ridge_solve,
)
from adaridge.solver import _finish, _ols_boundary_fit


class InfinitePrecision(AdaRidgeError):
    """A pruned coordinate (infinite prior precision) reached
    :func:`log_joint_posterior`; restrict to the active set first."""


def log_joint_posterior(state: PosteriorState, data: Dataset, h: Hyper) -> float:
    """Log of the unnormalized joint posterior density, all constants kept.

    Evaluates, on the (already reduced) model::

        log N(y; X beta, sigma2 I) + log N(beta; 0, sigma2 V)
        + log(1/sigma2) + sum_j log Gamma(v_inv_j; eta + 1, mu)

    All precisions must be finite: callers evaluate a pruned model on its
    active coordinates, keeping only those entries of the state and those
    columns of ``X``.
    """

    if not np.isfinite(state.v_inv).all():
        raise InfinitePrecision("restrict to the active set before evaluating")
    if len(state.beta) != data.p:
        raise DimensionMismatch(
            f"state has {len(state.beta)} coordinates, data has {data.p} columns"
        )
    r = data.y - data.x @ state.beta
    quad = float(r @ r + state.beta @ (state.v_inv * state.beta))
    return _log_joint_density(quad, state.sigma2, state.v_inv, data.n, h)


def conditional_marginal(data: Dataset, v_inv) -> float:
    """Log marginal ``p(y | v^{-1})`` at one precision vector: the MC
    kernel ``_conditional_marginal_core`` on a batch of one."""

    v = np.asarray(v_inv, dtype=float)
    yty = float(data.y @ data.y)
    return float(_conditional_marginal_core(data.xtx, data.xty, yty, data.n,
                                            v[None, :])[0])


def assemble_hessian(blocks) -> np.ndarray:
    """The dense ``(2p+1, 2p+1)`` negative Hessian from its blocks
    ``(bb, ss, vv, bv, sb, sv)``, in the parameter order (coefficients,
    noise variance, precisions)."""

    bb, ss, vv, bv, sb, sv = blocks
    p = len(vv)
    h = np.zeros((2 * p + 1, 2 * p + 1))
    h[:p, :p] = bb
    h[p, p] = ss
    h[p + 1:, p + 1:] = np.diag(vv)
    h[:p, p + 1:] = np.diag(bv)
    h[p + 1:, :p] = np.diag(bv)
    h[p, :p] = h[:p, p] = sb
    h[p, p + 1:] = h[p + 1:, p] = sv
    return h


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
    if sigma2_prev <= 0:
        raise ValueError(f"sigma2_prev must be > 0, got {sigma2_prev}")
    d = (2.0 * h.eta + 1.0) * sigma2_prev / beta_prev**2
    beta = _ridge_solve(data.xtx, d, data.xty)
    r = data.y - data.x @ beta
    s2 = float(r @ r)
    if s2 == 0.0:
        raise ExactFit("zero residual after the step")
    return beta, s2 / (data.n + 2.0)


@dataclass(frozen=True)
class RidgeWeights:
    """Cumulative column-reweighting factors of the ridge path.

    ``omega[j]`` is the product of the per-iteration rescalings applied to
    column ``j``; the ridge-coordinate solution times ``omega`` recovers
    the original-scale coefficients, and ``omega[j]**2 / (1 + 2 eta)`` is
    the implied prior-variance mode.
    """

    omega: np.ndarray
    eta: float

    def __post_init__(self):
        if not (np.asarray(self.omega) > 0).all():
            raise ValueError("cumulative weights must be positive")


def fit_reweighted_ridge(data: Dataset, h: Hyper,
                         opts: FitOptions = FitOptions()) -> ModeFit:
    """Reach the same mode as :func:`fit_joint_mode` through reweighted
    ridge regressions.

    Each iteration rescales the active columns by
    ``omega_j = sqrt(beta_j^2 / sigma2)`` (coefficients taken in the
    current rescaled coordinates, so the cumulative products recover the
    original scale), solves a ridge problem with fixed penalty
    ``1 + 2 eta``, and maps the solution back through the accumulated
    weights.  At ``eta = -1/2`` the fit is least squares; below it the
    path is undefined and raises ``ValueError``.
    """

    if h.eta < -0.5:
        raise ValueError(f"reweighted ridge needs eta >= -1/2, got {h.eta}")
    if h.eta == -0.5:
        return _ols_boundary_fit(data, h)

    n, p = data.n, data.p
    a = 1.0 + 2.0 * h.eta

    beta = data.initial_beta.copy()
    active = np.ones(p, dtype=bool)
    xstar = data.x.copy()
    cum = np.ones(p)
    beta_star = beta.copy()
    pen = 0.0
    trace: list[tuple] = []

    for it in range(1, opts.max_iter + 1):
        idx = np.where(active)[0]
        r = data.y - xstar[:, idx] @ beta_star[idx]
        rss = float(r @ r)
        if rss + pen == 0.0:
            raise ExactFit("zero residual encountered during fitting")
        sigma2 = (rss + pen) / (n + idx.size + 2)

        omega = np.sqrt(beta_star[idx] ** 2 / sigma2)
        cum[idx] *= omega
        # cum_j^2 now equals beta_j^2 / sigma2 on the original scale, so
        # cum_j^2 / (1 + 2 eta) is the implied prior-variance mode.
        vtilde = cum[idx] ** 2 / a
        dead = vtilde < opts.prune_tol
        if dead.any():
            gone = idx[dead]
            active[gone] = False
            beta[gone] = 0.0
            idx = idx[~dead]
            omega = omega[~dead]
        if idx.size == 0:
            null_sigma2 = float(data.y @ data.y) / (n + 2)
            return _finish(data, h, idx, beta[idx], null_sigma2, np.empty(0),
                           it, True, trace)

        xstar[:, idx] = xstar[:, idx] * omega
        # one gather, so that xs.T @ xs is exactly symmetric, as
        # _ridge_solve requires
        xs = xstar[:, idx]
        bs = _ridge_solve(xs.T @ xs, a, xs.T @ data.y)
        beta_star[idx] = bs
        beta_orig = cum[idx] * bs
        delta = float(np.max(np.abs(beta_orig - beta[idx]) / (1.0 + np.abs(beta[idx]))))
        beta[idx] = beta_orig
        pen = a * float(bs @ bs)

        # the terms of log_joint_posterior on the live submodel
        v_inv_idx = a / cum[idx] ** 2
        r = data.y - data.x[:, idx] @ beta[idx]
        quad = float(r @ r + beta[idx] @ (v_inv_idx * beta[idx]))
        trace.append((quad, sigma2, v_inv_idx))

        if delta < opts.conv_tol:
            weights = RidgeWeights(omega=cum[idx], eta=h.eta)
            return _finish(data, h, idx, beta[idx], sigma2, a / weights.omega**2,
                           it, True, trace)

    idx = np.where(active)[0]
    weights = RidgeWeights(omega=cum[idx], eta=h.eta)
    return _finish(data, h, idx, beta[idx], sigma2, a / weights.omega**2,
                   opts.max_iter, False, trace)


def ridge_gcv_loop(data: Dataset) -> RidgeFit:
    """:func:`adaridge.fit_ridge_gcv` with one Python iteration per penalty
    of ``LAMBDA_GRID``; a strictly smaller score replaces the best, so ties
    go to the smaller penalty."""

    u, s, vt = np.linalg.svd(data.x, full_matrices=False)
    uty = u.T @ data.y
    n = data.n
    yty = float(data.y @ data.y)

    best = None
    for lam in LAMBDA_GRID:
        shrink = s**2 / (s**2 + lam)
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


def explicit_residual_cycle(data: Dataset, idx, beta, step, max_iter, conv_tol,
                            prune_tol, *, weights=lambda scale, vtilde, b: 1.0 / vtilde,
                            reweight=False):
    """``adaridge.solver._cycle`` with each residual sum taken explicitly,
    ``||y - X beta||^2`` on the live columns: the same signature and the
    same ``(idx, beta, w, iterations, converged, trace, rss)``."""

    y = data.y
    x, (xtx, xty) = _live_columns(data, idx), _live_gram(data, idx)
    w = np.zeros(idx.size)
    trace = []
    it, converged = 0, False
    while True:
        r = y - x @ beta
        rss = float(r @ r)
        if converged or it == max_iter:
            return idx, beta, w, it, converged, trace, rss
        it += 1
        quad, scale, vtilde = step(rss, beta, w)
        if prune_tol and (dead := vtilde < prune_tol).any():
            keep = ~dead
            idx, beta, vtilde = idx[keep], beta[keep], vtilde[keep]
            if idx.size == 0:
                trace.append((quad, scale, vtilde))
                return idx, beta, vtilde, it, True, trace, float(y @ y)
            x, (xtx, xty) = _live_columns(data, idx), _live_gram(data, idx)
            if reweight:
                r = y - x @ beta
                scale = step(float(r @ r), beta, w[keep])[1]
        w = weights(scale, vtilde, beta)
        trace.append((quad, scale, w))
        beta_new = _ridge_solve(xtx, w, xty)
        converged = float((abs(beta_new - beta) / (1.0 + abs(beta))).max()) < conv_tol
        beta = beta_new
