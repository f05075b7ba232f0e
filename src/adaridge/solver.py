"""Joint posterior-mode solver.

Cycles the closed-form conditional maximizers of the hierarchical model
(noise variance, prior precisions, coefficients), pruning coordinates
whose prior variance collapses.  The same cycle, without pruning,
re-polishes the reduced-model modes at which the evidence approximations
are evaluated.

On unit-norm columns the dynamics implement a soft |t|-threshold: a
coordinate survives roughly when its t-statistic exceeds
``2 * sqrt(1 + 2 eta)``, which is what makes ``eta`` the sparsity dial.
"""

from __future__ import annotations

import numpy as np

from .errors import ExactFit
from .model import (
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    PosteriorState,
    _ridge_solve,
)

__all__ = ["fit_joint_mode"]


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
                   active_count_trace=np.empty(0, dtype=int))


def _finish(data, h, idx, beta_live, sigma2, v_inv_live, iters, converged,
            trace, counts):
    # Scatter the live coordinates ``idx`` back into length-p arrays;
    # pruned coordinates get beta 0 and infinite precision.  ``trace``
    # holds the per-iteration terms of ``ModeFit.log_joint_trace``.
    p = data.p
    beta = np.zeros(p)
    beta[idx] = beta_live
    v_inv = np.full(p, np.inf)
    v_inv[idx] = v_inv_live
    active = np.zeros(p, dtype=bool)
    active[idx] = True
    state = PosteriorState(beta=beta, sigma2=sigma2, v_inv=v_inv, active=active)
    return ModeFit(state, iterations=iters, converged=converged,
                   active_count_trace=np.asarray(counts, dtype=int),
                   log_joint_terms=(data.n, h, trace))


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
    residual after the last iteration).  The loop keeps only those terms;
    the trace is evaluated when it is first read.

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
    trace: list[tuple] = []
    counts: list[int] = []
    idx, beta, sigma2, v_inv, _, iters, converged = _cycle(
        data, h, data.initial_beta, opts.max_iter, opts.conv_tol,
        opts.prune_tol, trace, counts)
    return _finish(data, h, idx, beta, sigma2, v_inv, iters, converged, trace,
                   counts)


def _cycle(data: Dataset, h: Hyper, beta: np.ndarray, max_iter: int,
           conv_tol: float, prune_tol: float, trace: list | None = None,
           counts: list | None = None):
    """Iterated conditional maximization under ``h``, starting from
    ``beta`` with zero precisions.

    Each iteration updates the noise variance, then the precisions (using
    the previous coefficients), then the coefficients.  A coordinate whose
    prior-variance mode falls below ``prune_tol`` is dropped for good, so
    ``prune_tol = 0`` never prunes.  Stops once the relative coefficient
    change ``max |d beta| / (1 + |beta|)`` is below ``conv_tol``, or after
    ``max_iter`` iterations.  When ``trace`` and ``counts`` are lists,
    each iteration appends the terms ``(quad, sigma2, v_inv)`` of its log
    joint density and its live count (see :class:`ModeFit`).

    Returns ``(idx, beta, sigma2, v_inv, exit_sigma2, iterations,
    converged)``: the live coordinates with their coefficients and
    precisions, the noise variance of the last iteration, and the
    conditional mode of the noise variance at the final coefficients.
    Pruning every coordinate ends the cycle in the empty model, whose noise
    variance is ``y'y / (n + 2)``.
    """

    n = data.n
    a = 1.0 + 2.0 * h.eta
    # Live coordinates and their precisions; the data restricted to them
    # is re-sliced only when pruning shrinks the set.
    idx = np.arange(data.p)
    v_inv = np.zeros(data.p)
    x_live, xtx_live, xty_live = _live(data, idx)
    converged = False

    # Pass ``it`` first closes iteration ``it``: its residual gives that
    # iteration's trace entry and the noise-variance mode at its
    # coefficients.  Unless the cycle has stopped, it then runs iteration
    # ``it + 1``.
    for it in range(max_iter + 1):
        r = data.y - x_live @ beta
        quad = float(r @ r + beta @ (v_inv * beta))
        if trace is not None and it:
            trace.append((quad, sigma2, v_inv))
        mode = quad / (n + idx.size + 2)
        if converged or it == max_iter:
            break
        if quad == 0.0:
            raise ExactFit("zero residual encountered during fitting")
        sigma2 = mode

        vtilde = (beta**2 + 2.0 * sigma2 * h.mu) / (a * sigma2)
        if prune_tol and (dead := vtilde < prune_tol).any():
            keep = ~dead
            idx, beta, vtilde = idx[keep], beta[keep], vtilde[keep]
            if idx.size == 0:
                null_sigma2 = float(data.y @ data.y) / (n + 2)
                return idx, beta, null_sigma2, vtilde, null_sigma2, it + 1, True
            x_live, xtx_live, xty_live = _live(data, idx)
        v_inv = 1.0 / vtilde

        beta_new = _ridge_solve(xtx_live, v_inv, xty_live)
        delta = float((abs(beta_new - beta) / (1.0 + abs(beta))).max())
        beta = beta_new
        if counts is not None:
            counts.append(idx.size)
        converged = delta < conv_tol

    return idx, beta, sigma2, v_inv, mode, it, converged
