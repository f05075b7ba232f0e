"""Log marginal likelihood approximations and empirical-Bayes selection
of the shrinkage hyper-parameter.

Two approximations are provided, both evaluated on the reduced model
(pruned coordinates removed, mirroring how the mode is reported):

* :func:`laplace_log_evidence` - second-order expansion of the joint
  density around the posterior mode, normalizing constants included.
* :func:`mc_log_evidence` - uniform Monte-Carlo sampling of the
  precisions over a hypercube around their modal values, scoring the
  closed-form marginal obtained by integrating coefficients and noise
  variance analytically.

Both are centred on the fit's mode re-polished under the evidence
hyper-parameters, by Newton steps on the exact Hessian of the log joint
density (the precision block eliminated by a Schur complement), with the
solver's conditional-update cycle as the fallback.  The last Newton
step gives the Laplace log determinant and log joint density.

Two conventions here are deliberate and documented:

* The prior's inverse-scale entering *evidence* formulas defaults to
  ``EVIDENCE_MU = 1e-6`` rather than the solver's machine epsilon.  The
  ``(eta + 1) log mu`` normalization is the per-coordinate parsimony
  force; at machine epsilon it is so strong that every retained variable
  costs ~36 log-units and the empty model dominates small samples, while
  without it a coordinate is nearly free and selection collapses to the
  weakest shrinkage on the grid.  ``1e-6`` keeps the documented
  selection behaviour of the method across sample sizes.
* The Monte-Carlo estimator reports the box *average* of the integrand
  (the integral divided by the hypercube volume).  The box width ``k``
  then acts as the parsimony dial: each retained coordinate dilutes the
  average by roughly ``log(2k / sqrt(2 pi))``.  Adding the estimate's
  ``log_box_volume`` gives the plain integral over the box.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdaRidgeError,
    AllZeroIntegrand,
    EmptyBox,
    NonFiniteEvidence,
    NonInteriorMode,
    SingularSystem,
)
from .model import (
    _POTRF,
    _POTRS,
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    PosteriorState,
    _log_joint_density,
    _read_only,
)
from .solver import _cycle, fit_joint_mode

__all__ = [
    "EVIDENCE_MU",
    "DEFAULT_ETA_GRID",
    "DEFAULT_K_SWEEP",
    "HessianBlocks",
    "EvidenceEstimate",
    "EbSelection",
    "negative_hessian",
    "laplace_log_evidence",
    "conditional_marginal",
    "mc_log_evidence",
    "select_eta",
]

# Inverse scale of the precision prior used inside evidence formulas.
EVIDENCE_MU = 1e-6

# Declared, overridable defaults for empirical-Bayes selection.
DEFAULT_ETA_GRID = (-0.45, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_K_SWEEP = (3.0, 10.0, 100.0, 1000.0)
DEFAULT_K = 1000.0

# Relative coefficient change at which a polish has converged, and the
# iteration caps of its Newton steps and of the conditional-update cycle
# it falls back to.
POLISH_CONV_TOL = 1e-13
POLISH_NEWTON_MAX_STEPS = 20
POLISH_MAX_ITER = 200
# Halvings of one Newton step before the polish gives up on Newton.
POLISH_MAX_HALVINGS = 40


@dataclass(frozen=True)
class HessianBlocks:
    """Blocks of the negative Hessian of the log joint density, in the
    parameter order (coefficients, noise variance, precisions)."""

    bb: np.ndarray   # (p, p)
    ss: float        # scalar
    vv: np.ndarray   # (p,) diagonal
    bv: np.ndarray   # (p,) diagonal coupling
    sb: np.ndarray   # (p,)
    sv: np.ndarray   # (p,)


@dataclass(frozen=True)
class EvidenceEstimate:
    """One log-evidence value with its method tag; Monte-Carlo estimates
    carry their box width, draw count, standard error and the log volume
    of their sampling hypercube (0 for the empty model), which turns a box
    average into the box integral."""

    log_value: float
    method: str
    k: float | None = None
    mc_draws: int | None = None
    mc_se: float | None = None
    log_box_volume: float | None = None

    def __post_init__(self):
        mc = self.method == "hypercube-mc"
        mc_fields = (self.k, self.mc_draws, self.mc_se, self.log_box_volume)
        if any((f is not None) != mc for f in mc_fields):
            raise ValueError("mc fields must be present exactly for hypercube-mc")
        if self.mc_se is not None and self.mc_se < 0:
            raise ValueError("mc_se must be non-negative")


@dataclass(frozen=True)
class EbSelection:
    """Grid of candidate shrinkage levels with their evidence values
    (``None`` where a point failed), the winner, and its fit.  The other
    grid fits stay in the dataset's memo: ``fit_joint_mode(data,
    Hyper(eta), opts)`` on the same ``data`` returns them without refitting.
    """

    grid: tuple[float, ...]
    estimates: tuple[EvidenceEstimate | None, ...]
    best_eta: float
    refit: ModeFit


def negative_hessian(state: PosteriorState, data: Dataset, h: Hyper) -> HessianBlocks:
    """Negative Hessian of the log joint density, block by block.

    Requires an interior point: every precision finite and positive,
    positive noise variance, and ``eta > -1/2`` so the precision block is
    positive.  The precision block is stated in the precision
    parameterization, ``v_j^2 (1/2 + eta)``.
    """

    if h.eta <= -0.5:
        raise NonInteriorMode(f"eta={h.eta}: precision block is not positive")
    v_inv = state.v_inv
    if not (np.isfinite(v_inv).all() and (v_inv > 0).all()):
        raise NonInteriorMode("precisions must be finite and positive")
    return _derivatives(state.beta, state.sigma2, v_inv, data, h)[1]


def _derivatives(beta, s2, v_inv, data: Dataset, h: Hyper):
    """Gradient ``(g_beta, g_sigma2, g_v_inv)``, negative Hessian blocks
    and quadratic term ``quad = ||y - X beta||^2 + beta' V^{-1} beta`` of
    the log joint density at an interior point."""

    n, p = data.n, data.p
    r = data.y - data.x @ beta
    vb = v_inv * beta
    quad = float(r @ r + beta @ vb)
    g_beta = (data.x.T @ r - vb) / s2
    c = (n + p) / 2.0 + 1.0
    v = 1.0 / v_inv
    half_b2 = beta * beta / (2.0 * s2)
    grad = (g_beta,
            -c / s2 + quad / (2.0 * s2 * s2),
            (h.eta + 0.5) * v - h.mu - half_b2)
    bb = data.xtx + np.diag(v_inv)
    bb /= s2
    blocks = HessianBlocks(
        bb=bb,
        ss=-c / (s2 * s2) + quad / (s2 * s2 * s2),
        vv=(0.5 + h.eta) * v * v,
        bv=beta / s2,
        sb=g_beta / s2,
        sv=-half_b2 / s2,
    )
    return grad, blocks, quad


def _newton_step(beta, s2, v_inv, data: Dataset, h: Hyper):
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

    (gb, gs, gv), blocks, quad = _derivatives(beta, s2, v_inv, data, h)
    vv, bv, sv = blocks.vv, blocks.bv, blocks.sv
    p = len(vv)
    wb, ws = bv / vv, sv / vv
    s = np.empty((p + 1, p + 1), order="F")
    s[:p, :p] = blocks.bb
    s.flat[: p * (p + 2) : p + 2] -= bv * wb
    s[:p, p] = s[p, :p] = blocks.sb - bv * ws
    s[p, p] = blocks.ss - sv @ ws
    chol, info = _POTRF(s, lower=1, overwrite_a=1, clean=0)
    if info:
        return None
    rhs = np.empty(p + 1)
    rhs[:p] = gb - wb * gv
    rhs[p] = gs - ws @ gv
    d, _ = _POTRS(chol, rhs, lower=1)
    db, ds = d[:p], d[p]
    dv = (gv - bv * db - sv * ds) / vv
    logdet = np.log(vv).sum() + 2.0 * np.log(chol.diagonal()).sum()
    return db, ds, dv, float(logdet), quad


def _newton_polish(data: Dataset, h: Hyper, beta, sigma2, v_inv):
    """Newton's method for the joint mode under ``h`` on all of
    ``data``'s coordinates, from an interior start.

    A step is halved until it lands inside ``sigma2 > 0``, ``v_inv > 0``
    at a point where the Schur complement is positive definite.  The
    polish has converged after a full step whose relative coefficient
    change ``max |d beta| / (1 + |beta|)`` is below ``POLISH_CONV_TOL``,
    and returns ``(beta, sigma2, v_inv, logdet, quad)`` with ``logdet``
    the negative Hessian's log determinant and ``quad`` the log joint
    density's quadratic term at that final point.  Returns
    ``None`` when the Schur complement at the start is not positive
    definite, a step cannot be damped, or no step converges within
    ``POLISH_NEWTON_MAX_STEPS``.
    """

    step = _newton_step(beta, sigma2, v_inv, data, h)
    if step is None:
        return None
    for _ in range(POLISH_NEWTON_MAX_STEPS):
        db, ds, dv, _, _ = step
        t = 1.0
        for _ in range(POLISH_MAX_HALVINGS):
            trial = beta + t * db, sigma2 + t * ds, v_inv + t * dv
            if trial[1] > 0 and (trial[2] > 0).all():
                step = _newton_step(*trial, data, h)
                if step is not None:
                    break
            t *= 0.5
        else:
            return None
        delta = float((abs(trial[0] - beta) / (1.0 + abs(beta))).max())
        beta, sigma2, v_inv = trial
        if t == 1.0 and delta < POLISH_CONV_TOL:
            return (beta, sigma2, v_inv) + step[3:]
    return None


def _polished_mode(fit: ModeFit, data: Dataset, h: Hyper):
    """The fit's surviving coordinates and their mode re-polished under
    ``h``: ``(beta, sigma2, v_inv, logdet, quad, reduced)``, with ``logdet``
    and ``quad`` those of :func:`_newton_step` there (both ``None`` when the
    negative Hessian is not positive definite) and ``reduced`` the data
    restricted to those coordinates.

    The polish runs Newton steps on the exact Hessian (:func:`_newton_polish`)
    from the fit's own ``(beta, sigma2, v_inv)``, so curvature is
    evaluated at an interior mode under ``h.mu``.  The fit's mode differs
    from the polished one only through ``mu``, so Newton typically
    converges in two or three steps.  Where Newton fails, the polish is
    the solver's conditional-update cycle run on ``reduced`` from the
    fit's coefficients, without pruning; its ``sigma2`` is then the
    noise-variance mode at the final coefficients.
    The polished values (arrays read-only) are memoized on ``data`` by fit
    and ``h``, so scoring one grid fit again, as the Monte-Carlo k-sweep
    does, polishes it once.  ``reduced`` is rebuilt on each call rather
    than kept, since it holds a copy of the active columns.
    """

    # ``data`` itself when nothing was pruned: its cached products keep the bits
    mask = fit.state.active
    reduced = data if mask.all() else Dataset(data.x[:, mask], data.y)
    key = (id(fit), h)
    hit = data._memo.get(key)
    if hit is None:
        state = fit.state
        polished = _newton_polish(reduced, h, state.beta[mask], state.sigma2,
                                  state.v_inv[mask])
        if polished is None:
            # A prune tolerance of 0 turns pruning off, so the vectors keep
            # the fit's active length.
            _, beta, _, v_inv, sigma2, _, _ = _cycle(
                reduced, h, state.beta[mask], POLISH_MAX_ITER, POLISH_CONV_TOL,
                0.0)
            step = _newton_step(beta, sigma2, v_inv, reduced, h)
            polished = (beta, sigma2, v_inv) + (step[3:] if step else (None, None))
        beta, sigma2, v_inv, logdet, quad = polished
        # The entry keeps the fit alive, so its id cannot be reused while
        # the entry exists.
        hit = data._memo[key] = (fit, _read_only(beta), sigma2,
                                 _read_only(v_inv), logdet, quad)
    return hit[1:] + (reduced,)


def _null_model_log_marginal(data: Dataset) -> float:
    yty = float(data.y @ data.y)
    n = data.n
    return math.lgamma(n / 2.0) - (n / 2.0) * math.log(math.pi) - (n / 2.0) * math.log(yty)


def laplace_log_evidence(fit: ModeFit, data: Dataset, h: Hyper) -> EvidenceEstimate:
    """Laplace approximation of the log marginal likelihood at the
    reduced-model mode.

    Evaluates the joint log density at the (re-polished) mode of the
    surviving coordinates, adds ``(p*/2) log 2 pi`` with ``p* = 2 p + 1``
    the dimension of the integrated space, and subtracts half the log
    determinant of the negative Hessian.  An empty model reduces to the
    one-dimensional noise-variance integral, at its mode
    ``y'y / (n + 2)``.
    """

    p_active = int(fit.state.active.sum())
    n = data.n
    if p_active and h.eta <= -0.5:
        raise NonInteriorMode(
            f"eta={h.eta}: no interior mode exists at or below the "
            "least-squares boundary")

    if p_active == 0:
        yty = float(data.y @ data.y)
        s2 = yty / (n + 2)
        lj = _log_joint_density(yty, s2, np.empty(0), n, h)
        curv = -(n / 2.0 + 1.0) / s2**2 + yty / s2**3
        logdet = math.log(curv)
    else:
        _, sigma2, v_inv, logdet, quad, _ = _polished_mode(fit, data, h)
        if logdet is None:
            raise NonInteriorMode("negative Hessian not positive definite")
        lj = _log_joint_density(quad, sigma2, v_inv, n, h)
    value = lj + ((2 * p_active + 1) / 2.0) * math.log(2.0 * math.pi) - 0.5 * logdet
    if not math.isfinite(value):
        raise NonFiniteEvidence(f"laplace value {value}")
    return EvidenceEstimate(log_value=value, method="laplace")


def conditional_marginal(data: Dataset, v_inv) -> float:
    """Log marginal ``p(y | v^{-1})`` with coefficients and noise variance
    integrated out analytically (Jeffreys prior on the variance), all
    constants included::

        lgamma(n/2) - (n/2) log pi - (n/2) log S^2
        + (1/2) sum log v_inv - (1/2) log |X'X + V^{-1}|
    """

    v = np.asarray(v_inv, dtype=float)
    yty = float(data.y @ data.y)
    return float(_conditional_marginal_core(data.xtx, data.xty, yty, data.n,
                                            v[None, :])[0])


def _conditional_marginal_core(xtx, xty, yty, n, v_batch) -> np.ndarray:
    """Batched evaluation of the conditional log marginal; ``v_batch`` has
    one precision vector per row.

    One Cholesky factor of the bordered matrix
    ``[[X'X + V^{-1}, X'y], [X'y', 2 y'y]]`` gives both terms: its first
    ``p`` pivots are those of ``X'X + V^{-1}``, and its last pivot squared
    is ``2 y'y - y'X (X'X + V^{-1})^{-1} X'y = y'y + S^2``.  The ``2 y'y``
    corner keeps that pivot at least ``y'y``, so the bordered matrix is
    positive definite exactly when ``X'X + V^{-1}`` is (for ``y'y > 0``).
    """

    m, p = v_batch.shape
    a = np.empty((m, p + 1, p + 1))
    a[:, :p, :p] = xtx
    ii = np.arange(p)
    a[:, ii, ii] += v_batch
    a[:, :p, p] = xty
    a[:, p, :p] = xty
    a[:, p, p] = 2.0 * yty
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    s2 = pivots[:, p] ** 2 - yty
    floor = 1e-12 * yty
    if (s2 <= floor).any():
        warnings.warn(
            "conditional marginal: residual quadratic clamped at 1e-12 * y'y",
            RuntimeWarning,
            stacklevel=2,
        )
        s2 = np.maximum(s2, floor)
    logdet = 2.0 * np.sum(np.log(pivots[:, :p]), axis=1)
    return (
        math.lgamma(n / 2.0)
        - (n / 2.0) * math.log(math.pi)
        - (n / 2.0) * np.log(s2)
        + 0.5 * np.sum(np.log(v_batch), axis=1)
        - 0.5 * logdet
    )


def mc_log_evidence(
    fit: ModeFit,
    data: Dataset,
    h: Hyper,
    k: float,
    draws: int = 1000,
    seed=0,
) -> EvidenceEstimate:
    """Monte-Carlo evidence over a hypercube of precisions around the mode.

    The box for coordinate ``j`` is ``[max(0, c_j - k s_j), c_j + k s_j]``
    with center ``c_j`` the modal precision and ``s_j`` the square root of
    the inverse curvature there, ``c_j / sqrt(1/2 + eta)``.  Uniform draws
    score ``p(y | v^{-1})`` times the prior kernel
    ``prod_j v_inv_j^eta exp(-mu v_inv_j) / Gamma(eta+1)`` (the prior's
    ``mu^{eta+1}`` scale factor is deliberately not applied; see the
    module docstring).  The estimate is the box average in log space with
    a delta-method standard error; adding the reported ``log_box_volume``
    gives the integral itself.

    An empty reduced model has nothing to integrate: the exact closed
    form is returned with zero standard error.  A ``k`` not finite and
    positive, or ``draws`` not an integer >= 1, raises ``ValueError``.
    """

    _check_mc(k, draws)
    state = fit.state
    p_active = int(state.active.sum())
    n = data.n

    if p_active == 0:
        return EvidenceEstimate(
            log_value=_null_model_log_marginal(data), method="hypercube-mc",
            k=float(k), mc_draws=draws, mc_se=0.0, log_box_volume=0.0,
        )
    if h.eta <= -0.5:
        raise EmptyBox("box width requires eta > -1/2 (finite curvature)")

    _, _, v_inv, _, _, reduced = _polished_mode(fit, data, h)
    sig = v_inv / math.sqrt(0.5 + h.eta)
    lo = np.maximum(0.0, v_inv - k * sig)
    hi = v_inv + k * sig
    if not ((hi - lo) > 0).all():
        raise EmptyBox("degenerate box bounds")
    log_volume = float(np.sum(np.log(hi - lo)))

    rng = np.random.default_rng(seed)
    u = rng.uniform(lo, hi, size=(draws, p_active))
    yty = float(reduced.y @ reduced.y)

    logs = np.full(draws, -np.inf)
    ok = (u > 0).all(axis=1)
    if ok.any():
        vals = _conditional_marginal_core(reduced.xtx, reduced.xty, yty, n, u[ok])
        vals += np.sum(h.eta * np.log(u[ok]) - h.mu * u[ok], axis=1)
        vals -= p_active * math.lgamma(h.eta + 1.0)
        logs[ok] = vals

    m = float(np.max(logs))
    if not math.isfinite(m):
        raise AllZeroIntegrand("every draw underflowed to zero")
    w = np.exp(logs - m)
    mean_w = float(np.mean(w))
    value = m + math.log(mean_w)
    if draws > 1:
        se = float(np.std(w, ddof=1) / (math.sqrt(draws) * mean_w))
    else:
        se = 0.0
    if not math.isfinite(value):
        raise NonFiniteEvidence(f"mc value {value}")
    return EvidenceEstimate(
        log_value=value, method="hypercube-mc",
        k=float(k), mc_draws=draws, mc_se=se, log_box_volume=log_volume,
    )


def _check_grid(grid, name: str = "grid") -> tuple[float, ...]:
    """``grid`` as floats, checked to be non-empty and ascending, with
    finite values above -1 (a proper prior); errors call it ``name``."""

    grid = tuple(float(g) for g in grid)
    bad = [g for g in grid if not -1 < g < math.inf]
    if bad:
        raise ValueError(f"{name} values must be finite and > -1, got {bad[0]:g}")
    if not grid or sorted(grid) != list(grid):
        raise ValueError(f"{name} must be non-empty and ascending")
    return grid


def _check_mc(k, draws, names: tuple[str, str] = ("k", "draws")) -> None:
    """Check a Monte-Carlo box width and draw count; errors use ``names``."""

    if not 0 < k < math.inf:
        raise ValueError(f"{names[0]} must be finite and > 0, got {k:g}")
    if not isinstance(draws, numbers.Integral) or draws < 1:
        raise ValueError(f"{names[1]} must be an integer >= 1, got {draws}")


def _score(fit, data, eta, method, k, draws, seed) -> EvidenceEstimate:
    """Evidence of ``fit`` under ``Hyper(eta, mu=EVIDENCE_MU)`` by ``method``,
    ``"laplace"`` or ``"mc"`` (which alone reads ``k``, ``draws``, ``seed``)."""

    h = Hyper(eta, mu=EVIDENCE_MU)
    if method == "laplace":
        return laplace_log_evidence(fit, data, h)
    return mc_log_evidence(fit, data, h, k=k, draws=draws, seed=seed)


def select_eta(
    data: Dataset,
    grid=DEFAULT_ETA_GRID,
    method: str = "laplace",
    opts: FitOptions = FitOptions(),
    *,
    k: float | None = None,
    draws: int = 1000,
    seed: int = 0,
) -> EbSelection:
    """Empirical-Bayes choice of the shrinkage level: fit the joint mode
    at every grid value, score each fit with the chosen evidence method
    (``"laplace"`` or ``"mc"``) under ``Hyper(eta, mu=EVIDENCE_MU)``, and
    return the argmax (ties to the smaller value) and its fit.

    A bad method, grid, ``k`` or ``draws`` raises ``ValueError`` before
    any fit, for either method; ``k=None`` is ``DEFAULT_K``.  Grid points
    may fail (solver or evidence errors); the selection fails only if
    every point does, with a message that names each point's error.
    Monte-Carlo scoring draws from a per-point stream derived from
    ``(seed, grid index, k)`` so results do not depend on evaluation order.
    """

    grid = _check_grid(grid)
    if method not in ("laplace", "mc"):
        raise ValueError(f"unknown evidence method {method!r}")
    k = DEFAULT_K if k is None else k
    _check_mc(k, draws)

    estimates: list[EvidenceEstimate | None] = []
    best = None
    errors: list[str] = []
    for gi, eta in enumerate(grid):
        try:
            fit = fit_joint_mode(data, Hyper(eta), opts)
            est = _score(fit, data, eta, method, k, draws,
                         [int(seed), gi, int(round(k))])
        except AdaRidgeError as exc:
            errors.append(f"eta={eta:g}: {type(exc).__name__}: {exc}")
            estimates.append(None)
            continue
        estimates.append(est)
        if best is None or est.log_value > estimates[best[0]].log_value + 1e-12:
            best = gi, fit
    if best is None:
        raise NonFiniteEvidence(
            "every grid point failed; " + "; ".join(errors))
    return EbSelection(
        grid=grid,
        estimates=tuple(estimates),
        best_eta=grid[best[0]],
        refit=best[1],
    )
