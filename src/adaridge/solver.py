"""Joint posterior-mode solver.

Cycles the closed-form conditional maximizers of the hierarchical model
(noise variance, prior precisions, coefficients), pruning coordinates
whose prior variance collapses, in ``_cycle``: the one reweighted-ridge
loop, which ``em.fit_em`` runs with a step of its own.

Every :class:`ModeFit` is assembled by ``_finish`` from the live
coordinates and the per-iteration trace.  This module alone reads and
writes ``Dataset._memo``, which holds the fits of :func:`fit_joint_mode`
and the modes that ``_polished_mode`` re-polishes for evidence.  The
polish runs on the fit's live view (``model._live``): Newton steps on the
exact Hessian of the log joint density.  The same cycle, without pruning,
only warms Newton up; no Newton mode means ``NonInteriorMode``.

On unit-norm columns the dynamics implement a soft |t|-threshold: a
coordinate survives roughly when its t-statistic exceeds
``2 * sqrt(1 + 2 eta)``, which is what makes ``eta`` the sparsity dial.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .baselines import fit_ols
from .errors import ExactFit, NonFiniteInput, NonInteriorMode, SingularSystem
from .model import (
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    PosteriorState,
    _chol_solve,
    _live,
    _one_blas_thread,
    _read_only,
    _ridge_solve,
    _rss,
)

__all__ = ["fit_joint_mode"]

# Relative coefficient change at which a polish has converged, and the
# iteration caps of its Newton steps and of the conditional-update cycle
# that warms Newton up.
POLISH_CONV_TOL = 1e-13
POLISH_NEWTON_MAX_STEPS = 20
POLISH_MAX_ITER = 200
# Halvings of one Newton step before the polish gives up on Newton.
POLISH_MAX_HALVINGS = 40


def _ols_boundary_fit(data: Dataset, h: Hyper) -> ModeFit:
    # For eta <= -1/2 the precision conditional peaks at zero precision,
    # so the mode is plain least squares with an empty trace; without full
    # column rank ``fit_ols`` raises RankDeficient.
    n, p = data.n, data.p
    beta = fit_ols(data)
    rss = _rss(data.y, data.x, beta)
    return _finish(data, h, np.arange(p), beta, rss / (n + p + 2), np.zeros(p),
                   0, True, [])


def _finish(data, h, idx, beta_live, sigma2, v_inv_live, iters, converged,
            trace):
    # Scatter the live coordinates ``idx`` back into length-p arrays;
    # pruned coordinates get beta 0 and infinite precision.  ``trace``
    # holds the per-iteration terms of ``ModeFit.log_joint_trace``, whose
    # precision vectors give each iteration's live count.
    p = data.p
    beta = np.zeros(p)
    beta[idx] = beta_live
    v_inv = np.full(p, np.inf)
    v_inv[idx] = v_inv_live
    active = np.zeros(p, dtype=bool)
    active[idx] = True
    state = PosteriorState(beta=beta, sigma2=sigma2, v_inv=v_inv, active=active)
    return ModeFit(state, iterations=iters, converged=converged,
                   active_count_trace=np.array([len(v) for _, _, v in trace],
                                               dtype=int),
                   log_joint_terms=(data.n, h, trace))


def fit_joint_mode(data: Dataset, h: Hyper,
                   opts: FitOptions = FitOptions()) -> ModeFit:
    """Maximize the joint posterior by iterated conditional maximization.

    Starting from ``data.initial_beta`` (least squares, or a lightly
    ridged solve on an ill-conditioned ``X'X``), each iteration updates
    the noise variance, then the precisions (using the previous
    coefficients), then the coefficients.  A coordinate whose
    prior-variance mode falls below ``opts.prune_tol`` is zeroed
    permanently.  Stops when the relative coefficient change drops below
    ``opts.conv_tol`` or after ``opts.max_iter`` cycles.

    For ``eta <= -1/2`` the precision conditional peaks at zero precision
    and the procedure is exactly least squares, returned directly; a
    design without full column rank raises ``RankDeficient`` there.
    Pruning every variable is not an error; the result is the empty model.
    A coefficient too large to square (above about 1.3e154) would leave a
    zero precision, and raises ``NonFiniteInput`` instead.

    ``X'X``, ``X'y`` and the start are computed once per :class:`Dataset`
    object and shared by every fit on it.  So is the fit
    itself: a second call with an equal ``(h, opts)`` on the same dataset
    object returns the same :class:`ModeFit`, whose arrays are read-only.
    A failed fit is not kept and raises again on the next call.  Each
    ``log_joint_trace`` entry is the joint log density on the live
    submodel::

        log N(y; X beta, sigma2 I) + log N(beta; 0, sigma2 V)
        + log(1/sigma2) + sum_j log Gamma(v_inv_j; eta + 1, mu)

    with its quadratic term ``rss + beta' V^{-1} beta`` taken
    from the residual the next iteration computes anyway (one extra
    residual after the last iteration).  The loop keeps only those terms;
    the trace is evaluated when it is first read.  A fit that is not in
    the memo runs its BLAS on one thread (see ``model._one_blas_thread``);
    a memo hit leaves the thread counts alone.

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
        with _one_blas_thread():
            fit = data._memo[key] = _fit_joint_mode(data, h, opts)
    return fit


def _fit_joint_mode(data: Dataset, h: Hyper, opts: FitOptions) -> ModeFit:
    if h.eta <= -1:
        raise ValueError(f"joint-mode fitting needs eta > -1, got {h.eta}")
    if h.eta <= -0.5:
        return _ols_boundary_fit(data, h)
    idx, beta, v_inv, iters, converged, trace, rss = _cycle(
        data, np.arange(data.p), data.initial_beta, partial(_joint_step, data.n, h),
        opts.max_iter, opts.conv_tol, opts.prune_tol)
    # A coefficient whose square overflows is left with a zero precision.
    if not (v_inv > 0).all():
        raise NonFiniteInput("the precision update overflows: a coefficient is too large")
    # Iteration i's quadratic term is the next one's, taken at the
    # coefficients it produced; the step at the exit residual gives the
    # last.  The empty model's noise variance is y'y / (n + 2).
    if idx.size:
        sigma2 = trace[-1][1]
        trace.append(_joint_step(data.n, h, rss, beta, v_inv))
    else:
        sigma2 = rss / (data.n + 2)
    terms = [(quad, s2, w) for (quad, _, _), (_, s2, w) in zip(trace[1:], trace)]
    return _finish(data, h, idx, beta, sigma2, v_inv, iters, converged, terms)


def _joint_step(n: int, h: Hyper, rss: float, beta: np.ndarray, w: np.ndarray):
    """The joint step for :func:`_cycle` under ``h``: ``(quad, sigma2,
    vtilde)``, with ``sigma2 = quad / (n + p_live + 2)`` the noise
    variance's conditional mode and ``vtilde`` the prior variances'; the
    precisions are ``1 / vtilde``."""

    quad = rss + float(beta @ (w * beta))
    if quad == 0.0:
        raise ExactFit("zero residual encountered during fitting")
    sigma2 = quad / (n + beta.size + 2)
    return quad, sigma2, (beta**2 + 2.0 * sigma2 * h.mu) / ((1.0 + 2.0 * h.eta) * sigma2)


def _cycle(data: Dataset, idx: np.ndarray, beta: np.ndarray, step,
           max_iter: int, conv_tol: float, prune_tol: float, *,
           weights=lambda scale, vtilde, b: 1.0 / vtilde, reweight: bool = False):
    """The reweighted-ridge loop of both solvers on the coordinates
    ``idx``, from their coefficients ``beta`` and zero weights ``w``.

    Each iteration computes the live residual sum ``rss`` once and calls
    the stateless ``step(rss, beta, w)``, which returns ``(quad, scale,
    vtilde)``: the iteration's quadratic term and scale, and each
    coordinate's prior variance.  A coordinate whose prior variance is
    below ``prune_tol`` is dropped for good (``prune_tol = 0`` never
    prunes); with ``reweight`` the scale is then the step's at the
    survivors' own residual sum.  The survivors' weights are ``w =
    weights(scale, vtilde, beta)`` (by default ``1 / vtilde``), and their
    next coefficients solve ``(X'X + diag(w)) beta = X'y``.  The loop
    stops once ``max |d beta| / (1 + |beta|) < conv_tol`` or after
    ``max_iter`` iterations; pruning every coordinate in iteration ``k``
    stops at once, as converged after ``k``.

    Returns ``(idx, beta, w, iterations, converged, trace, rss)``:
    ``trace`` holds each iteration's ``(quad, scale, w)``, with empty
    weights in an iteration that prunes every coordinate, and ``rss`` is
    the residual sum at the final coefficients (``y'y`` for none).
    """

    # The data restricted to the live coordinates is re-sliced only when
    # pruning shrinks them.
    y = data.y
    x, xtx, xty = _live(data, idx)
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
            # Release the old live arrays first, so no two copies coexist.
            del x, xtx, xty
            x, xtx, xty = _live(data, idx)
            if reweight:
                r = y - x @ beta
                scale = step(float(r @ r), beta, w[keep])[1]
        w = weights(scale, vtilde, beta)
        trace.append((quad, scale, w))
        beta_new = _ridge_solve(xtx, w, xty)
        converged = float((abs(beta_new - beta) / (1.0 + abs(beta))).max()) < conv_tol
        beta = beta_new


def _derivatives(beta, s2, v_inv, x, y, xtx, h: Hyper):
    """Gradient ``(g_beta, g_sigma2, g_v_inv)``, negative Hessian blocks
    and quadratic term ``quad = ||y - X beta||^2 + beta' V^{-1} beta`` of
    the log joint density at an interior point, on live columns ``x``.

    The blocks are ``(bb, ss, vv, bv, sb, sv)`` in the parameter order
    (coefficients, noise variance, precisions): the ``(p, p)`` coefficient
    block, the scalar noise-variance block, the diagonals of the
    precision block and of the coefficient-precision coupling, and the
    noise-variance rows against coefficients and precisions.  The
    precision block is stated in the precision parameterization,
    ``v_j^2 (1/2 + eta)``.
    """

    n, p = x.shape
    r = y - x @ beta
    vb = v_inv * beta
    quad = float(r @ r + beta @ vb)
    g_beta = (x.T @ r - vb) / s2
    c = (n + p) / 2.0 + 1.0
    v = 1.0 / v_inv
    half_b2 = beta * beta / (2.0 * s2)
    grad = (g_beta,
            -c / s2 + quad / (2.0 * s2 * s2),
            (h.eta + 0.5) * v - h.mu - half_b2)
    bb = xtx.copy()
    bb.flat[:: p + 1] += v_inv
    bb /= s2
    blocks = (bb,
              -c / (s2 * s2) + quad / (s2 * s2 * s2),
              (0.5 + h.eta) * v * v,
              beta / s2,
              g_beta / s2,
              -half_b2 / s2)
    return grad, blocks, quad


def _newton_step(beta, s2, v_inv, x, y, xtx, h: Hyper):
    """Solve ``H d = g`` for the Newton step on the log joint density at
    an interior point.

    The diagonal precision block ``D = diag(vv)`` is eliminated, leaving
    the ``(p+1)`` Schur complement ``S`` of the (coefficients, noise
    variance) block, which one Cholesky factor solves.  Returns
    ``(d_beta, d_sigma2, d_v_inv, logdet, quad)`` with ``logdet = log det
    H = sum log vv + log det S`` and ``quad`` the quadratic term of
    :func:`_derivatives` at the point, or ``None`` when ``S`` is not
    positive definite.
    """

    (gb, gs, gv), (bb, ss, vv, bv, sb, sv), quad = _derivatives(
        beta, s2, v_inv, x, y, xtx, h)
    p = len(vv)
    wb, ws = bv / vv, sv / vv
    s = np.empty((p + 1, p + 1), order="F")
    s[:p, :p] = bb
    s.flat[: p * (p + 2) : p + 2] -= bv * wb
    s[:p, p] = s[p, :p] = sb - bv * ws
    s[p, p] = ss - sv @ ws
    rhs = np.empty(p + 1)
    rhs[:p] = gb - wb * gv
    rhs[p] = gs - ws @ gv
    try:
        d, pivots = _chol_solve(s, rhs)
    except SingularSystem:
        return None
    db, ds = d[:p], d[p]
    dv = (gv - bv * db - sv * ds) / vv
    logdet = np.log(vv).sum() + 2.0 * np.log(pivots).sum()
    return db, ds, dv, float(logdet), quad


def _newton_polish(x, y, xtx, h: Hyper, beta, sigma2, v_inv):
    """Newton's method for the joint mode under ``h`` on the live columns
    ``x`` (with ``xtx = x'x``), from an interior start.

    A step is halved until it lands inside ``sigma2 > 0``, ``v_inv > 0``
    at a point where the Schur complement is positive definite.  The
    polish has converged after a full step whose relative coefficient
    change ``max |d beta| / (1 + |beta|)`` is below ``POLISH_CONV_TOL``,
    and returns ``(beta, sigma2, v_inv, logdet, quad)``, arrays read-only,
    with ``logdet`` the negative Hessian's log determinant and ``quad``
    the log joint density's quadratic term at that final point.  Returns
    ``None`` when the Schur complement at the start is not positive
    definite, a step cannot be damped, or no step converges within
    ``POLISH_NEWTON_MAX_STEPS``.
    """

    step = _newton_step(beta, sigma2, v_inv, x, y, xtx, h)
    if step is None:
        return None
    for _ in range(POLISH_NEWTON_MAX_STEPS):
        db, ds, dv, _, _ = step
        t = 1.0
        for _ in range(POLISH_MAX_HALVINGS):
            trial = beta + t * db, sigma2 + t * ds, v_inv + t * dv
            if trial[1] > 0 and (trial[2] > 0).all():
                step = _newton_step(*trial, x, y, xtx, h)
                if step is not None:
                    break
            t *= 0.5
        else:
            return None
        delta = float((abs(trial[0] - beta) / (1.0 + abs(beta))).max())
        beta, sigma2, v_inv = trial
        if t == 1.0 and delta < POLISH_CONV_TOL:
            return (_read_only(beta), sigma2, _read_only(v_inv)) + step[3:]
    return None


def _polished_mode(fit: ModeFit, data: Dataset, h: Hyper):
    """The joint mode under ``h`` on the surviving coordinates of ``fit``,
    polished from the fit's own ``(beta, sigma2, v_inv)`` on them:
    ``(beta, sigma2, v_inv, logdet, quad)`` as :func:`_newton_polish`
    returns them.

    The start is an interior mode under the fit's ``mu``, which differs
    from ``h`` only through ``mu``, so Newton typically converges in two
    or three steps.  Where Newton fails, the conditional-update cycle runs
    from the fit's ``beta`` without pruning (at most ``POLISH_MAX_ITER``
    iterations) as a warm start, and Newton tries once more from its end
    point, with the cycle's last noise variance as a fit takes it.  If
    that fails too, the polish raises ``NonInteriorMode``: every value it
    returns is a converged Newton point.

    The polished values, or the failure, are memoized on ``data`` by the
    fit object itself and ``h``, so scoring one grid fit again, as the
    Monte-Carlo k-sweep does, polishes it once; a failed polish raises
    ``NonInteriorMode`` again, with the same message, on every call.
    """

    key = (fit, h)
    hit = data._memo.get(key)
    if hit is None:
        state = fit.state
        idx = np.flatnonzero(state.active)
        beta, sigma2, v_inv = state.beta[idx], state.sigma2, state.v_inv[idx]
        x, xtx, _ = _live(data, idx)
        polished = _newton_polish(x, data.y, xtx, h, beta, sigma2, v_inv)
        if polished is None:
            # A prune tolerance of 0 turns pruning off, so the vectors keep
            # their length.
            _, beta, v_inv, _, _, trace, _ = _cycle(
                data, idx, beta, partial(_joint_step, data.n, h),
                POLISH_MAX_ITER, POLISH_CONV_TOL, 0.0)
            polished = _newton_polish(x, data.y, xtx, h, beta, trace[-1][1], v_inv)
        # A failed polish is kept as ``()``.
        hit = data._memo[key] = polished or ()
    if not hit:
        raise NonInteriorMode(
            "Newton finds no joint mode from the fit or from the cycle")
    return hit
