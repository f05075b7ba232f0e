"""Log marginal likelihood approximations and empirical-Bayes selection
of the shrinkage hyper-parameter.

Two approximations are provided, both evaluated on the reduced model
(pruned coordinates removed, mirroring how the mode is reported):

* :func:`laplace_log_evidence` - second-order expansion of the joint
  density around the posterior mode, normalizing constants included.
* :func:`mc_log_evidence` - uniform Monte-Carlo sampling of the
  precisions over a hypercube around their modal values, scoring the
  closed-form marginal obtained by integrating coefficients and noise
  variance analytically.  One pass scores every draw: the kernel
  ``_conditional_marginal_core`` eliminates the bordered matrix of
  ``X'X + V^{-1}`` and ``X'y`` column by column with the draws on its
  last axis, for any number of coordinates.

Both are centred on the fit's mode re-polished under the evidence
hyper-parameters by ``solver._polished_mode``: Newton steps on the exact
Hessian of the log joint density (the precision block eliminated by a
Schur complement), which the solver's conditional-update cycle only warms
up.  A mode Newton cannot reach raises ``NonInteriorMode``, so both
methods fail on the same fits.  The last Newton step gives the Laplace log
determinant and log joint density.  The reduced model is the fit's live
coordinates (``model._live_gram`` and ``model._live_columns``), and the
solver memoizes each polished mode on the dataset, so this module keeps
no state of its own.

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

Both methods integrate the mode's basin only.  On a one-coordinate
instance at n = 60 and eta >= 4, a second basin near ``v_inv = eta /
EVIDENCE_MU`` outweighs it, by a median of 18 log units at eta 4 and 96
at eta 8; at eta <= 2, or at n = 400, it adds nothing measurable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdaRidgeError,
    EmptyBox,
    NonFiniteEvidence,
    NonFiniteInput,
    NonInteriorMode,
    SingularSystem,
)
from .model import (
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    _check_count,
    _check_number,
    _live_gram,
    _log_joint_density,
    _one_blas_thread,
)
from .solver import _polished_mode, fit_joint_mode

__all__ = [
    "EVIDENCE_MU",
    "DEFAULT_ETA_GRID",
    "DEFAULT_K_SWEEP",
    "EvidenceEstimate",
    "EbSelection",
    "laplace_log_evidence",
    "mc_log_evidence",
    "select_eta",
]

# Inverse scale of the precision prior used inside evidence formulas.
EVIDENCE_MU = 1e-6

# Declared, overridable defaults for empirical-Bayes selection.
DEFAULT_ETA_GRID = (-0.45, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_K_SWEEP = (3.0, 10.0, 100.0, 1000.0)
DEFAULT_K = 1000.0

EVIDENCE_METHODS = ("laplace", "mc")
EVIDENCE_TIE = 1e-12  # a value must beat the best so far by this to replace it

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


def laplace_log_evidence(fit: ModeFit, data: Dataset, h: Hyper) -> EvidenceEstimate:
    """Laplace approximation of the log marginal likelihood at the
    reduced-model mode.

    Evaluates the joint log density at the (re-polished) mode of the
    surviving coordinates, adds ``(p*/2) log 2 pi`` with ``p* = 2 p + 1``
    the dimension of the integrated space, and subtracts half the log
    determinant of the negative Hessian.  An empty model reduces to the
    one-dimensional noise-variance integral, at its mode
    ``y'y / (n + 2)``.  A mode the polish cannot reach raises
    ``NonInteriorMode``, as it does for :func:`mc_log_evidence`.
    """

    p_active = int(fit.state.active.sum())
    n = data.n
    if p_active and h.eta <= -0.5:
        raise NonInteriorMode(
            f"eta={h.eta}: no interior mode exists at or below the "
            "least-squares boundary")

    if p_active == 0:
        yty = data.yty
        s2 = yty / (n + 2)
        lj = _log_joint_density(yty, s2, np.empty(0), n, h)
        curv = -(n / 2.0 + 1.0) / s2**2 + yty / s2**3
        logdet = math.log(curv)
    else:
        _, sigma2, v_inv, logdet, quad = _polished_mode(fit, data, h)
        lj = _log_joint_density(quad, sigma2, v_inv, n, h)
    value = lj + ((2 * p_active + 1) / 2.0) * math.log(2.0 * math.pi) - 0.5 * logdet
    if not math.isfinite(value):
        raise NonFiniteEvidence(f"laplace value {value}")
    return EvidenceEstimate(log_value=value, method="laplace")


def _conditional_marginal_core(xtx, xty, yty, n, v_batch) -> np.ndarray:
    """Log marginal ``p(y | v^{-1})`` with coefficients and noise variance
    integrated out analytically (Jeffreys prior on the variance), all
    constants included, for each row of precisions in ``v_batch``::

        lgamma(n/2) - (n/2) log pi - (n/2) log S^2
        + (1/2) sum log v_inv - (1/2) log |X'X + V^{-1}|

    The bordered matrix ``[[X'X + V^{-1}, X'y], [X'y', y'y]]`` is reduced
    by symmetric elimination, one column at a time, with the draws on its
    last axis, so every numpy operation covers all of them.  The ``p``
    pivots multiply to ``|X'X + V^{-1}|``, and the corner left at the end
    is ``S^2 = y'y - y'X (X'X + V^{-1})^{-1} X'y``.  A pivot ``<= 0`` (no
    positive definite ``X'X + V^{-1}``) raises ``SingularSystem``; an
    ``S^2`` at or below ``1e-12 y'y`` is clamped there with a
    ``RuntimeWarning``.
    """

    m, p = v_batch.shape
    a = np.empty((p + 1, p + 1, m))
    a[:p, :p] = xtx[:, :, None]
    a[:p, p] = a[p, :p] = xty[:, None]
    a[p, p] = yty
    ii = np.arange(p)
    a[ii, ii] += v_batch.T
    pivots = np.empty((p, m))
    for j in range(p):
        d = pivots[j] = a[j, j]
        if not (d > 0).all():
            raise SingularSystem(
                f"{j + 1}-th leading minor is not positive definite")
        col = a[j + 1:, j]
        a[j + 1:, j + 1:] -= col[:, None] * (col / d)
    s2 = a[p, p]
    floor = 1e-12 * yty
    if (s2 <= floor).any():
        warnings.warn(
            "conditional marginal: residual quadratic clamped at 1e-12 * y'y",
            RuntimeWarning,
            stacklevel=2,
        )
        s2 = np.maximum(s2, floor)
    return (
        math.lgamma(n / 2.0)
        - (n / 2.0) * math.log(math.pi)
        - (n / 2.0) * np.log(s2)
        + 0.5 * np.log(v_batch).sum(axis=1)
        - 0.5 * np.log(pivots).sum(axis=0)
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
    gives the integral itself.  The draws are those of
    ``default_rng(seed).uniform(lo, hi, (draws, p))``, bit for bit; ``seed``
    is an integer >= 0 or a list of them, as ``select_eta`` passes.

    An empty reduced model has nothing to integrate: the exact closed
    form is returned with zero standard error.  A ``k`` that is not a
    finite real number > 0, ``draws`` not an integer >= 1, or a seed not
    an integer >= 0 raises ``ValueError``.
    """

    k = _check_number(k, "k", 0.0)
    draws = _check_count(draws, "draws")
    for s in seed if isinstance(seed, (list, tuple)) else [seed]:
        _check_count(s, "seed", 0)
    state = fit.state
    p_active = int(state.active.sum())
    n = data.n
    yty = data.yty

    if p_active == 0:
        value = (math.lgamma(n / 2.0) - (n / 2.0) * math.log(math.pi)
                 - (n / 2.0) * math.log(yty))
        return EvidenceEstimate(
            log_value=value, method="hypercube-mc",
            k=k, mc_draws=draws, mc_se=0.0, log_box_volume=0.0,
        )
    if h.eta <= -0.5:
        raise EmptyBox("box width requires eta > -1/2 (finite curvature)")

    _, _, v_inv, _, _ = _polished_mode(fit, data, h)
    sig = v_inv / math.sqrt(0.5 + h.eta)
    lo = np.maximum(0.0, v_inv - k * sig)
    width = v_inv + k * sig - lo
    if not (width > 0).all():
        raise EmptyBox("degenerate box bounds")
    log_volume = float(np.log(width).sum())

    # Generator.uniform(lo, hi, (draws, p)) computes exactly this.
    u = lo + width * np.random.default_rng(seed).random((draws, p_active))
    xtx, xty = _live_gram(data, np.flatnonzero(state.active))

    # A draw with a zero precision (possible only where lo is 0) has zero
    # prior density; when there is none, the draws are scored uncopied.
    ok = slice(None) if (u > 0).all() else (u > 0).all(axis=1)
    v = u[ok]
    logs = np.full(draws, -np.inf)
    if v.size:
        vals = _conditional_marginal_core(xtx, xty, yty, n, v)
        vals += (h.eta * np.log(v) - h.mu * v).sum(axis=1)
        vals -= p_active * math.lgamma(h.eta + 1.0)
        logs[ok] = vals

    m = float(logs.max())
    if not math.isfinite(m):
        raise NonFiniteEvidence(f"mc log integrand max {m}")
    # The box average of exp(logs) and its delta-method standard error:
    # np.mean and np.std(ddof=1) in their own arithmetic.
    w = np.exp(logs - m)
    mean_w = float(w.sum()) / draws
    value = m + math.log(mean_w)
    se = 0.0
    if draws > 1:
        w -= mean_w
        se = math.sqrt(float((w * w).sum()) / (draws - 1)) / (math.sqrt(draws) * mean_w)
    return EvidenceEstimate(
        log_value=value, method="hypercube-mc",
        k=k, mc_draws=draws, mc_se=se, log_box_volume=log_volume,
    )


def _check_grid(grid, name: str = "grid") -> tuple[float, ...]:
    """``grid`` as a tuple of floats, checked to be a non-empty, strictly
    ascending sequence of real numbers, finite and above -1 (a proper
    prior); errors call it ``name``."""

    try:
        grid = tuple(grid)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of numbers, got {grid!r}") from None
    grid = tuple(_check_number(g, f"{name} values", -1.0) for g in grid)
    if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be non-empty and strictly ascending")
    return grid


def select_eta(data: Dataset, grid=DEFAULT_ETA_GRID, method: str = "laplace",
               opts: FitOptions = FitOptions(), *, k: float | None = None,
               draws: int = 1000, seed: int = 0) -> EbSelection:
    """Empirical-Bayes choice of the shrinkage level: fit the joint mode
    at every grid value, score each fit with the chosen evidence method
    (``"laplace"`` or ``"mc"``) under ``Hyper(eta, mu=EVIDENCE_MU)``, and
    return the argmax (ties to the smaller value) and its fit.

    A bad method, grid, ``k``, ``draws`` or ``seed`` raises ``ValueError``
    before any fit, for either method; ``k=None`` is ``DEFAULT_K``.  Grid
    points may fail (solver or evidence errors); the selection fails only
    if every point does, with a message that names each point's error.
    Data whose ``X'X`` or ``X'y`` overflows raise ``NonFiniteInput``.
    Monte-Carlo draws for grid point ``gi`` come from ``default_rng([seed,
    gi, round(k)])``: they depend on its grid position, not on evaluation
    order.  The whole selection runs its BLAS on one thread (see
    ``model._one_blas_thread``); it is the one-width case of ``_select_sweep``.
    """

    k = DEFAULT_K if k is None else k
    return _select_sweep(data, grid, method, opts, [k], draws, seed)[0][0]


def _argmax(values) -> int | None:
    """Index of the largest value that is not ``None`` (``None`` if there
    is none); a tie within ``EVIDENCE_TIE`` goes to the earlier index."""

    best = None
    for i, value in enumerate(values):
        if value is not None and (best is None or value > values[best] + EVIDENCE_TIE):
            best = i
    return best


@_one_blas_thread()
def _select_sweep(data, grid, method, opts, ks, draws, seed):
    """``select_eta`` at each box width in ``ks`` in one pass over the
    grid, fitting each point once; a failed fit fails it at every width.
    Returns one ``EbSelection`` per width and the index of the width whose
    winner has the largest integral, ``log_value + log_box_volume`` (a
    Laplace value is one already): the experiment's ``aris-eb-best``."""

    grid = _check_grid(grid)
    if method not in EVIDENCE_METHODS:
        raise ValueError(f"unknown evidence method {method!r}")
    ks = [_check_number(k, "k", 0.0) for k in ks]
    draws = _check_count(draws, "draws")
    seed = _check_count(seed, "seed", 0)

    fits, estimates, errors = [], [[] for _ in ks], [[] for _ in ks]
    for gi, eta in enumerate(grid):
        try:
            fit = fit_joint_mode(data, Hyper(eta), opts)
            h = Hyper(eta, mu=EVIDENCE_MU)
        except NonFiniteInput:
            raise  # the data, not this grid point, are at fault
        except AdaRidgeError as exc:
            fit = exc  # raised again at every width
        fits.append(fit)
        for w, k in enumerate(ks):
            try:
                if isinstance(fit, AdaRidgeError):
                    raise fit
                est = (laplace_log_evidence(fit, data, h) if method == "laplace"
                       else mc_log_evidence(fit, data, h, k=k, draws=draws,
                                            seed=[seed, gi, round(k)]))
            except AdaRidgeError as exc:
                errors[w].append(f"eta={eta:g}: {type(exc).__name__}: {exc}")
                est = None
            estimates[w].append(est)

    selections, integrals = [], []
    for ests, errs in zip(estimates, errors):
        gi = _argmax([None if est is None else est.log_value for est in ests])
        if gi is None:
            raise NonFiniteEvidence("every grid point failed; " + "; ".join(errs))
        selections.append(EbSelection(grid, tuple(ests), grid[gi], fits[gi]))
        integrals.append(ests[gi].log_value + (ests[gi].log_box_volume or 0.0))
    return tuple(selections), _argmax(integrals)
