"""Joint posterior-mode solver.

Cycles the closed-form conditional maximizers of the hierarchical model
(noise variance, prior precisions, coefficients), pruning coordinates
whose prior variance collapses.  A second, independently coded path
reaches the same fixed point by rescaling columns and solving standard
ridge problems; it exists as an equivalence oracle.

On unit-norm columns the dynamics implement a soft |t|-threshold: a
coordinate survives roughly when its t-statistic exceeds
``2 * sqrt(1 + 2 eta)``, which is what makes ``eta`` the sparsity dial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateResidual,
    EtaAtOlsBoundary,
    ExactFit,
    NonPositiveSigma2,
)
from .model import (
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    PosteriorState,
    _log_joint_density,
    _ridge_solve,
    log_joint_posterior,
)

__all__ = [
    "RidgeWeights",
    "update_beta",
    "update_sigma2",
    "update_v",
    "fit_joint_mode",
    "fit_reweighted_ridge",
]


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


def update_beta(data: Dataset, v_inv: np.ndarray) -> np.ndarray:
    """Conditional mode of the coefficients: solve
    ``(X'X + diag(v_inv)) beta = X'y`` by Cholesky factorization."""

    return _ridge_solve(data.xtx, np.asarray(v_inv, dtype=float), data.xty)


def update_sigma2(data: Dataset, beta: np.ndarray, v_inv: np.ndarray) -> float:
    """Conditional mode of the noise variance:
    ``[rss + beta' V^{-1} beta] / (n + p + 2)`` with p the live dimension."""

    r = data.y - data.x @ beta
    num = float(r @ r + beta @ (v_inv * beta))
    if num == 0.0:
        raise DegenerateResidual("zero residual: the model interpolates y exactly")
    return num / (data.n + len(beta) + 2)


def update_v(beta: np.ndarray, sigma2: float, h: Hyper, mu: float | None = None) -> np.ndarray:
    """Conditional mode of the prior precisions, reported as ``v_inv``.

    The underlying variance mode is
    ``(beta_j^2 + 2 sigma2 mu) / ((1 + 2 eta) sigma2)``; larger |beta_j|
    means smaller precision.  Undefined at the OLS boundary eta <= -1/2.
    """

    if sigma2 <= 0:
        raise NonPositiveSigma2(str(sigma2))
    if h.eta <= -0.5:
        raise EtaAtOlsBoundary(
            f"eta={h.eta}: the precision mode is on the boundary; the fit is OLS"
        )
    m = h.mu if mu is None else mu
    beta = np.asarray(beta, dtype=float)
    vtilde = (beta**2 + 2.0 * sigma2 * m) / ((1.0 + 2.0 * h.eta) * sigma2)
    return 1.0 / vtilde


def _ols_boundary_fit(data: Dataset) -> ModeFit:
    # For eta <= -1/2 the precision conditional peaks at zero precision,
    # so the mode is plain least squares with a flat trace.
    beta = data.initial_beta.copy()
    r = data.y - data.x @ beta
    rss = float(r @ r)
    if rss == 0.0:
        raise ExactFit("least squares interpolates y exactly")
    state = PosteriorState(
        beta=beta,
        sigma2=rss / (data.n + data.p + 2),
        v_inv=np.zeros(data.p),
        active=np.ones(data.p, dtype=bool),
    )
    return ModeFit(state, iterations=0, converged=True,
                   log_joint_trace=np.empty(0),
                   active_count_trace=np.empty(0, dtype=int))


def _finish(p, idx, beta_live, sigma2, v_inv_live, iters, converged, trace,
            counts):
    # Scatter the live coordinates ``idx`` back into length-p arrays;
    # pruned coordinates get beta 0 and infinite precision.
    beta = np.zeros(p)
    beta[idx] = beta_live
    v_inv = np.full(p, np.inf)
    v_inv[idx] = v_inv_live
    active = np.zeros(p, dtype=bool)
    active[idx] = True
    state = PosteriorState(beta=beta, sigma2=sigma2, v_inv=v_inv, active=active)
    return ModeFit(state, iterations=iters, converged=converged,
                   log_joint_trace=np.asarray(trace),
                   active_count_trace=np.asarray(counts, dtype=int))


def _live(data: Dataset, idx: np.ndarray):
    """``X``, ``X'X`` and ``X'y`` restricted to the coordinates ``idx``."""

    return data.x[:, idx], data.xtx[np.ix_(idx, idx)], data.xty[idx]


def fit_joint_mode(data: Dataset, h: Hyper,
                   opts: FitOptions = FitOptions()) -> ModeFit:
    """Maximize the joint posterior by iterated conditional maximization.

    Starting from least squares, each iteration updates the noise
    variance, then the precisions (using the previous coefficients), then
    the coefficients.  A coordinate whose prior-variance mode falls below
    ``opts.prune_tol`` is zeroed permanently.  Stops when the relative
    coefficient change drops below ``opts.conv_tol`` or after
    ``opts.max_iter`` cycles.

    For ``eta <= -1/2`` the precision conditional peaks at zero precision
    and the procedure is exactly least squares, returned directly.
    Pruning every variable is not an error; the result is the empty model.

    ``X'X``, ``X'y`` and the least-squares start are computed once per
    :class:`Dataset` object and shared by every fit on it.  So is the fit
    itself: a second call with an equal ``(h, opts)`` on the same dataset
    object returns the same :class:`ModeFit`, whose arrays are read-only.
    A failed fit is not kept and raises again on the next call.  Each
    ``log_joint_trace`` entry is :func:`log_joint_posterior` on the live
    submodel, with its quadratic term ``rss + beta' V^{-1} beta`` taken
    from the residual the next iteration computes anyway (one extra
    residual after the last iteration).

    Parameters
    ----------
    data : Dataset
        Standardized data (unit-norm columns, centered response).
    h : Hyper
        Requires ``eta > -1`` for prior propriety.
    """

    key = (h, opts)
    fit = data._memo.get(key)
    if fit is None:
        fit = data._memo[key] = _fit_joint_mode(data, h, opts)
    return fit


def _fit_joint_mode(data: Dataset, h: Hyper, opts: FitOptions) -> ModeFit:
    if h.eta <= -1:
        raise ValueError(f"joint-mode fitting needs eta > -1, got {h.eta}")
    if h.eta <= -0.5:
        return _ols_boundary_fit(data)

    mu = opts.solver_mu(h)
    h_eff = h if mu == h.mu else Hyper(h.eta, mu=mu)
    n, p = data.n, data.p

    # Live coordinates and their coefficients and precisions; the data
    # restricted to them is re-sliced only when pruning shrinks the set.
    idx = np.arange(p)
    beta = data.initial_beta
    v_inv = np.zeros(p)
    x_live, xtx_live, xty_live = _live(data, idx)
    trace: list[float] = []
    counts: list[int] = []
    pending = None  # (sigma2, v_inv) of the last update, awaiting its trace entry
    converged = False
    a = 1.0 + 2.0 * h.eta

    for it in range(1, opts.max_iter + 1):
        r = data.y - x_live @ beta
        quad = float(r @ r + beta @ (v_inv * beta))
        if pending is not None:
            trace.append(_log_joint_density(quad, *pending, n, h_eff))
        if quad == 0.0:
            raise ExactFit("zero residual encountered during fitting")
        sigma2 = quad / (n + idx.size + 2)

        vtilde = (beta**2 + 2.0 * sigma2 * mu) / (a * sigma2)
        dead = vtilde < opts.prune_tol
        if dead.any():
            keep = ~dead
            idx, beta, vtilde = idx[keep], beta[keep], vtilde[keep]
            if idx.size == 0:
                null_sigma2 = float(data.y @ data.y) / (n + 2)
                return _finish(p, idx, beta, null_sigma2, vtilde, it, True,
                               trace, counts)
            x_live, xtx_live, xty_live = _live(data, idx)
        v_inv = 1.0 / vtilde

        beta_new = _ridge_solve(xtx_live, v_inv, xty_live)
        delta = float(np.max(np.abs(beta_new - beta) / (1.0 + np.abs(beta))))
        beta = beta_new
        pending = (sigma2, v_inv)
        counts.append(idx.size)
        if delta < opts.conv_tol:
            converged = True
            break

    r = data.y - x_live @ beta
    trace.append(_log_joint_density(
        float(r @ r + beta @ (v_inv * beta)), sigma2, v_inv, n, h_eff))
    return _finish(p, idx, beta, sigma2, v_inv, it, converged, trace, counts)


def fit_reweighted_ridge(data: Dataset, h: Hyper,
                         opts: FitOptions = FitOptions()) -> ModeFit:
    """Reach the same mode as :func:`fit_joint_mode` through reweighted
    ridge regressions.

    Each iteration rescales the active columns by
    ``omega_j = sqrt(beta_j^2 / sigma2)`` (coefficients taken in the
    current rescaled coordinates, so the cumulative products recover the
    original scale), solves a ridge problem with fixed penalty
    ``1 + 2 eta``, and maps the solution back through the accumulated
    weights.  Kept as an independently coded equivalence oracle for the
    direct conditional-update path.
    """

    if h.eta < -0.5:
        raise EtaAtOlsBoundary(f"reweighted ridge needs eta >= -1/2, got {h.eta}")
    if h.eta == -0.5:
        return _ols_boundary_fit(data)

    n, p = data.n, data.p
    a = 1.0 + 2.0 * h.eta

    beta = data.initial_beta.copy()
    active = np.ones(p, dtype=bool)
    xstar = data.x.copy()
    cum = np.ones(p)
    beta_star = beta.copy()
    pen = 0.0
    trace: list[float] = []
    counts: list[int] = []

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
            return _finish(p, idx, beta[idx], null_sigma2, np.empty(0),
                           it, True, trace, counts)

        xstar[:, idx] = xstar[:, idx] * omega
        bs = _ridge_solve(xstar[:, idx].T @ xstar[:, idx], a,
                          xstar[:, idx].T @ data.y)
        beta_star[idx] = bs
        beta_orig = cum[idx] * bs
        delta = float(np.max(np.abs(beta_orig - beta[idx]) / (1.0 + np.abs(beta[idx]))))
        beta[idx] = beta_orig
        pen = a * float(bs @ bs)

        v_inv_idx = a / cum[idx] ** 2
        sub_state = PosteriorState(
            beta=beta[idx], sigma2=sigma2, v_inv=v_inv_idx,
            active=np.ones(idx.size, dtype=bool),
        )
        trace.append(log_joint_posterior(
            sub_state, Dataset(data.x[:, idx], data.y), h))
        counts.append(idx.size)

        if delta < opts.conv_tol:
            weights = RidgeWeights(omega=cum[idx], eta=h.eta)
            return _finish(p, idx, beta[idx], sigma2, a / weights.omega**2,
                           it, True, trace, counts)

    idx = np.where(active)[0]
    weights = RidgeWeights(omega=cum[idx], eta=h.eta)
    return _finish(p, idx, beta[idx], sigma2, a / weights.omega**2,
                   opts.max_iter, False, trace, counts)
