"""Test oracles: an independently coded route to the joint mode.

The reweighted-ridge path reaches the fixed point of
:func:`adaridge.fit_joint_mode` by rescaling columns and solving standard
ridge problems.  It shares only the least-squares boundary and the
assembly of the result with the solver, so agreement between the two
checks the solver's conditional-update cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adaridge.errors import ExactFit
from adaridge.model import (
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    PosteriorState,
    _ridge_solve,
    log_joint_posterior,
)
from adaridge.solver import _finish, _ols_boundary_fit


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
