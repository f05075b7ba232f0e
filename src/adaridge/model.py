"""Core domain types, the standardization protocol, and the joint
log density of the hierarchical model.

The hierarchical model is a Gaussian linear likelihood with a conjugate
normal prior on the coefficients, a Jeffreys prior on the noise variance,
and independent gamma priors (shape ``eta + 1``, rate ``mu``) on the
per-coefficient prior precisions.  Everything downstream (solvers,
evidence, experiments) works on data standardized so predictor columns
have unit 2-norm and the response has zero mean.

``_one_blas_thread`` is the package's one pin of the BLAS thread count:
``select_eta``, a joint-mode fit that misses the memo, ``fit_em`` and the
replications of ``run_experiment`` run their BLAS on one OpenBLAS thread,
and the caller's count comes back when they end.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy

from .errors import (
    DimensionMismatch,
    ExactFit,
    NoInitializer,
    NonFiniteInput,
    NonPositiveSigma2,
    SingularSystem,
    ZeroNormColumn,
)

# Machine epsilon of the working float type; the default inverse-scale of
# the precision prior.  Must stay far below prune_tol for pruning to fire.
MACHINE_EPS = float(np.finfo(np.float64).eps)

# The start's bound on its factor's squared pivot ratio, and the ridge of
# its fallback solve (see ``Dataset.initial_beta``).
START_PIVOT_RATIO = 1e-8
FALLBACK_RIDGE = 1e-6


def _lapack_extension(directory: str):
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded
    from its file in ``directory``; ``ImportError`` naming ``directory``
    where it holds no such file."""

    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no scipy LAPACK extension _flapack in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The LAPACK routine dposv, Cholesky factor and solve in one call, the
# very object scipy.linalg's own lookup of "posv" returns, taken from
# scipy's LAPACK extension loaded from its file.  The package never
# imports the scipy.linalg package: in scipy 1.17 it pulls in numpy.f2py,
# numpy.testing and unittest, and with it importing adaridge took
# 0.38-0.61 s and 57.5 MB of RSS, without it 0.21-0.32 s and 34.3 MB
# (fresh processes on a 2-core machine).  Top-level scipy comes first; on
# Windows it sets up the wheel's library path.
_FLAPACK = _lapack_extension(os.path.join(os.path.dirname(scipy.__file__), "linalg"))
_POSV = _FLAPACK.dposv

# numpy's core extension module under its 2.x and 1.x names; it links
# numpy's BLAS as _FLAPACK links scipy's, and a symbol lookup through
# either's handle searches the libraries it depends on.
_BLAS_LINKED_MODULES = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")

# OpenBLAS thread-control symbols, ``{}`` being ``set`` or ``get``: the
# prefixed names of the scipy-openblas wheels (ILP64 and LP64), then the
# plain ones.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
)

__all__ = [
    "MACHINE_EPS",
    "Dataset",
    "Standardization",
    "Hyper",
    "FitOptions",
    "PosteriorState",
    "ModeFit",
    "standardize",
    "destandardize_beta",
]


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d design matrix, got ndim={arr.ndim}")
    return arr


def _as_vector(y) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got ndim={arr.ndim}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _blas_linked_libraries():
    """ctypes handles of numpy's core extension module, linked against
    numpy's BLAS, and of ``_FLAPACK``, linked against scipy's."""

    for name in _BLAS_LINKED_MODULES:
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
        except (ImportError, OSError):
            continue
        yield lib
        break
    yield ctypes.CDLL(_FLAPACK.__file__)


@cache
def _openblas_thread_controls() -> tuple:
    """``(set, get)`` thread-count functions of every OpenBLAS copy that
    numpy and scipy have loaded (their wheels bundle one each); empty
    where none resolves."""

    controls = []
    for lib in _blas_linked_libraries():
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, symbol.format("set"), None)
            getter = getattr(lib, symbol.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS copy on one thread.

    On the fits' matrices a second BLAS thread costs more in
    synchronisation than it saves (README, "BLAS threads").  Only the
    copies whose count is not already 1 are set, and exactly those are
    restored on exit, also when the body raises.  A copy that reads 1 is
    never set, because a set call in a forked process starts an OpenBLAS
    thread pool whose helpers busy-wait; so nested pins and pool workers,
    which inherit the pin through fork, make no set call.  The count is
    process-wide: Python threads that fit at the same time may see each
    other's pin.  That changes their speed, and can change the rounding of
    a BLAS sum that is split across threads.
    """

    changed = []
    try:
        for set_threads, get_threads in _openblas_thread_controls():
            count = get_threads()
            if count != 1:
                set_threads(1)
                changed.append((set_threads, count))
        yield
    finally:
        for set_threads, count in changed:
            set_threads(count)


def _check_count(value, name: str, low: int = 1) -> int:
    """``value`` as an ``int``, checked to be an integer >= ``low`` (a
    size, a draw count, a seed) and not a ``bool``; errors call it
    ``name``.  The package's one integer rule."""

    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return int(value)


def _check_number(value, name: str, low: float, strict: bool = True) -> float:
    """``value`` as a ``float``, checked to be a finite real number above
    ``low``, or at least ``low`` when not ``strict``, and not a ``bool``;
    errors call it ``name``.  The package's one real-number rule."""

    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not (value > low if strict else value >= low)):
        bound = f"> {low:g}" if strict else f">= {low:g}"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return float(value)


def _finite_product(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, read-only, where it is finite; else ``NonFiniteInput``
    naming the product ``name`` (finite inputs can overflow in it)."""

    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} has non-finite entries: the data overflow it")
    return _read_only(arr)


def _rss(y: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Residual sum of squares ``||y - X b||^2``; zero raises ``ExactFit``."""

    r = y - x @ b
    s2 = float(r @ r)
    if s2 == 0.0:
        raise ExactFit("zero residual: the coefficients interpolate y exactly")
    return s2


def _chol_solve(a: np.ndarray, rhs: np.ndarray):
    """Solve ``a x = rhs`` by Cholesky factorization, the package's one
    LAPACK call, and return ``(x, pivots)``, the diagonal of the lower
    factor; ``SingularSystem`` where ``a`` is not positive definite.

    ``a`` must be a symmetric, F-ordered float64 array; the factor
    overwrites it.  The factor and solve are those of
    ``scipy.linalg.cho_factor``/``cho_solve``, without their wrapper
    overhead or finiteness checks.
    """

    c, x, info = _POSV(a, rhs, lower=1, overwrite_a=1)
    # info > 0 is the order of the failing leading minor; info < 0, a
    # malformed argument, a square float64 array cannot be.
    if info > 0:
        raise SingularSystem(
            f"{info}-th leading minor of the array is not positive definite")
    return x, c.diagonal()


def _ridge_solve(gram: np.ndarray, d, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(gram + diag(d)) x = rhs`` by :func:`_chol_solve`, which
    raises ``SingularSystem`` where the matrix is not positive definite.

    ``d`` is a vector or a scalar added to the diagonal of a copy of
    ``gram``; ``gram`` itself is left unchanged.  ``gram`` must be exactly
    symmetric, as ``X'X`` and its ``_live_gram`` slices are: the copy is taken
    of ``gram.T``, which for a C-ordered ``gram`` is already in the
    F order LAPACK wants.
    """

    a = np.array(gram.T, order="F")
    a.flat[:: a.shape[0] + 1] += d
    return _chol_solve(a, rhs)[0]


@dataclass(frozen=True)
class Dataset:
    """A design matrix and response, either raw or standardized.

    Attributes
    ----------
    x : ndarray, shape (n, p)
    y : ndarray, shape (n,)
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_matrix(self.x)
        y = _as_vector(self.y)
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise DimensionMismatch("need at least one row and one column")
        if not np.isfinite(x).all():
            raise NonFiniteInput("design matrix contains non-finite entries")
        if not np.isfinite(y).all():
            raise NonFiniteInput("response contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    # The products, the transposed copy ``_xt`` and the memo below are
    # computed on first use and kept for the life of the dataset, so every
    # fit on it shares them.  They are read-only; ``x`` and ``y`` must not
    # be modified once any of them exists.

    @cached_property
    def _xt(self) -> np.ndarray:
        """``X'`` as a C-contiguous (p, n) copy, whose rows
        ``_live_columns`` copies as contiguous blocks."""
        return _read_only(np.ascontiguousarray(self.x.T))

    @cached_property
    def xtx(self) -> np.ndarray:
        """``X'X``, shape (p, p); ``NonFiniteInput`` where it overflows."""
        return _finite_product(self.x.T @ self.x, "X'X")

    @cached_property
    def xty(self) -> np.ndarray:
        """``X'y``, shape (p,); ``NonFiniteInput`` where it overflows."""
        return _finite_product(self.x.T @ self.y, "X'y")

    @cached_property
    def yty(self) -> float:
        """``y'y``, the residual sum of the empty model."""
        return float(self.y @ self.y)

    @cached_property
    def _memo(self) -> dict:
        """Fits and polished evidence modes on this dataset, keyed by
        what determines them; ``solver.py`` alone reads and writes it (see
        :func:`~adaridge.solver.fit_joint_mode` and
        ``solver._polished_mode``)."""
        return {}

    @cached_property
    def initial_beta(self) -> np.ndarray:
        """Start of the iterative solvers, solved from the cached ``X'X``:
        least squares by Cholesky when the factor's squared
        smallest-to-largest pivot ratio is above ``START_PIVOT_RATIO``, else
        (p >= n, duplicated columns: a failed factor or ratio) the solve
        ridged by ``FALLBACK_RIDGE``.

        Raises
        ------
        NoInitializer
            If the ridged solve fails too, or the start is not finite.
        """

        try:
            beta, pivots = _chol_solve(np.array(self.xtx.T, order="F"), self.xty)
            well_posed = (pivots.min() / pivots.max()) ** 2 > START_PIVOT_RATIO
        except SingularSystem:
            well_posed = False
        if not well_posed:
            try:
                beta = _ridge_solve(self.xtx, FALLBACK_RIDGE, self.xty)
            except SingularSystem as exc:
                raise NoInitializer(str(exc)) from None
        if not np.isfinite(beta).all():
            raise NoInitializer("the start has non-finite coefficients")
        return _read_only(beta)


def _live_gram(data: Dataset, idx: np.ndarray):
    """``X'X`` and ``X'y`` restricted to the coordinates ``idx``: all that
    the solver's cycle and the Monte-Carlo evidence read of the data
    besides ``y'y``.

    ``idx`` must be ascending and free of duplicates.  The slices are
    taken from the cached ``X'X`` and ``X'y``; when ``idx`` is every
    coordinate, they are read-only views of the cache, not copies.
    """

    if idx.size == data.p:
        return data.xtx, data.xty
    return data.xtx.take(idx, 0).take(idx, 1), data.xty[idx]


def _live_columns(data: Dataset, idx: np.ndarray) -> np.ndarray:
    """The columns of ``X`` at the coordinates ``idx``, for the residuals
    that the Gram slices of :func:`_live_gram` cannot give to full
    precision: the evidence polish's Newton gradient and the cycle's
    residual sums on near-exact fits.

    ``idx`` must be ascending and free of duplicates.  The columns are
    copied from contiguous rows of the cached ``X'`` into an F-ordered
    ``(n, idx.size)`` array, the layout numpy gives a column gather of
    ``x``, so BLAS products on it round as they would on that gather.
    When ``idx`` is every coordinate, the result is a read-only view of
    the cache, not a copy.
    """

    if idx.size == data.p:
        return data._xt.T
    return data._xt.take(idx, 0).T


@dataclass(frozen=True)
class Standardization:
    """Record of the scaling applied by :func:`standardize`.

    ``column_norms[j]`` is the original 2-norm of predictor ``j`` and
    ``y_mean`` the original response mean; together they map fitted
    coefficients back to the raw scale.  The first norm that is not finite
    raises ``NonFiniteInput``, else the first zero one ``ZeroNormColumn``.
    """

    column_norms: np.ndarray
    y_mean: float

    def __post_init__(self):
        norms = _as_vector(self.column_norms)
        if not np.isfinite(norms).all():
            j = int(np.argmin(np.isfinite(norms)))
            raise NonFiniteInput(f"predictor column {j} has norm {norms[j]}")
        if (norms <= 0).any():
            raise ZeroNormColumn(int(np.argmax(norms <= 0)))
        object.__setattr__(self, "column_norms", norms)
        object.__setattr__(self, "y_mean", float(self.y_mean))


@dataclass(frozen=True)
class Hyper:
    """Shrinkage hyper-parameters: shape ``eta`` and inverse scale ``mu``
    of the gamma prior on the precisions.

    The joint-mode solver family requires ``eta > -1`` (prior propriety);
    the EM solver additionally admits ``eta >= -3/2``, so that is the
    loosest bound enforced here.  ``mu`` defaults to machine epsilon: any
    strictly positive value keeps the posterior proper while being
    numerically indistinguishable from the zero limit in the updates.
    Either one not a finite real number in range raises ``ValueError``
    naming it.
    """

    eta: float
    mu: float = MACHINE_EPS

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_number(self.eta, "eta", -1.5, strict=False))
        object.__setattr__(self, "mu", _check_number(self.mu, "mu", 0.0))


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls shared by all solvers: the iteration cap, the
    relative coefficient change below which a fit has converged, and the
    prior-variance mode below which a coordinate is pruned.  The prior's
    inverse scale is ``Hyper.mu``.  A tolerance that is not a finite real
    number > 0 raises ``ValueError`` naming it."""

    max_iter: int = 500
    conv_tol: float = 1e-8
    prune_tol: float = 1e-8

    def __post_init__(self):
        _check_count(self.max_iter, "max_iter")
        _check_number(self.conv_tol, "conv_tol", 0.0)
        _check_number(self.prune_tol, "prune_tol", 0.0)


@dataclass(frozen=True)
class PosteriorState:
    """Posterior-mode state on the standardized scale.

    ``v_inv[j] = +inf`` encodes a pruned coordinate; pruned coordinates
    have ``beta[j] == 0`` exactly and ``active[j]`` False.
    """

    beta: np.ndarray
    sigma2: float
    v_inv: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        beta = _as_vector(self.beta)
        v_inv = _as_vector(self.v_inv)
        active = np.asarray(self.active, dtype=bool)
        if not (len(beta) == len(v_inv) == len(active)):
            raise DimensionMismatch("beta, v_inv and active must share length")
        if not (self.sigma2 > 0):
            raise NonPositiveSigma2(f"sigma2 must be > 0, got {self.sigma2}")
        if (v_inv < 0).any():
            raise ValueError("prior precisions must be non-negative")
        finite = np.isfinite(v_inv)
        if not (finite == active).all():
            raise ValueError("active[j] must hold exactly when v_inv[j] is finite")
        if (beta[~active] != 0).any():
            raise ValueError("pruned coordinates must have beta exactly 0")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "v_inv", v_inv)
        object.__setattr__(self, "active", active)


@dataclass(frozen=True, eq=False)
class ModeFit:
    """Result of a joint-mode fit.

    ``log_joint_trace[i]`` is the joint log density under the fit's
    ``Hyper``, all constants kept::

        log N(y; X beta, sigma2 I) + log N(beta; 0, sigma2 V)
        + log(1/sigma2) + sum_j log Gamma(v_inv_j; eta + 1, mu)

    on the surviving submodel after iteration ``i+1``: the noise variance
    and precisions of that iteration with the coefficients it produced.
    ``active_count_trace[i]`` records how many coordinates were live then.
    Trace values are comparable only between iterations with the same
    live count, since pruning changes the density's dimension.

    The trace is computed on first access, from ``log_joint_terms``: the
    sample size, the ``Hyper`` and one ``(quad, sigma2, v_inv)`` triple per
    iteration, with ``quad = rss + beta' V^{-1} beta`` (empty when the fit
    keeps no trace).  A fit that nobody inspects never evaluates it.

    Every array of a fit, those of ``state`` and the trace included, is
    read-only: :func:`~adaridge.solver.fit_joint_mode` hands the same fit
    to every caller that asks for it on one dataset.  A fit equals only
    itself and hashes by identity, so it can key a memo.
    """

    state: PosteriorState
    iterations: int
    converged: bool
    active_count_trace: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    log_joint_terms: tuple = field(default=(), repr=False)

    def __post_init__(self):
        for arr in (self.state.beta, self.state.v_inv, self.state.active,
                    self.active_count_trace):
            _read_only(arr)

    @cached_property
    def log_joint_trace(self) -> np.ndarray:
        """Joint log density after each iteration (see the class notes)."""
        n, h, parts = self.log_joint_terms or (0, None, ())
        return _read_only(np.array(
            [_log_joint_density(quad, s2, v_inv, n, h) for quad, s2, v_inv in parts],
            dtype=float))


def standardize(raw_x, raw_y) -> tuple[Dataset, Standardization]:
    """Scale predictor columns to unit 2-norm and center the response.

    Returns the standardized :class:`Dataset` together with the
    :class:`Standardization` that undoes the transform.  No intercept
    column is ever added; centering the response plays that role.

    Raises
    ------
    ZeroNormColumn
        If some column of ``raw_x`` has zero norm.
    NonFiniteInput
        On a non-finite entry, or a column whose norm overflows.
    DimensionMismatch
        On malformed input.
    """

    raw = Dataset(raw_x, raw_y)
    std = Standardization(np.linalg.norm(raw.x, axis=0), raw.y.mean())
    return Dataset(raw.x / std.column_norms, raw.y - std.y_mean), std


def destandardize_beta(beta_std, s: Standardization) -> np.ndarray:
    """Map coefficients from the standardized scale back to the raw
    predictor scale (the intercept is ``s.y_mean`` by construction)."""

    beta = _as_vector(beta_std)
    if len(beta) != len(s.column_norms):
        raise DimensionMismatch(
            f"beta has length {len(beta)}, standardization has {len(s.column_norms)}"
        )
    return beta / s.column_norms


def _log_joint_density(quad: float, s2: float, v_inv: np.ndarray, n: int,
                       h: Hyper) -> float:
    """The joint log density (see :class:`ModeFit`) of a submodel with
    finite precisions ``v_inv``, given its quadratic term ``quad = rss +
    beta' V^{-1} beta``; the solver's trace and the Laplace evidence supply
    ``quad`` from residuals they already hold.  The eta- and mu-dependent
    normalization (``(eta+1) log mu`` and ``-log Gamma(eta+1)`` per
    coordinate) is kept because evidence values are compared across eta."""

    p = len(v_inv)
    lj = -(n + p) / 2.0 * math.log(2.0 * math.pi * s2) - math.log(s2) - quad / (2.0 * s2)
    if p:
        # eta = -1/2 makes the exponent on each precision vanish; guard the
        # 0 * log(0) corner so the OLS boundary evaluates finitely.
        if h.eta != -0.5:
            lj += float((h.eta + 0.5) * np.sum(np.log(v_inv)))
        lj += float(-h.mu * np.sum(v_inv))
        lj += p * ((h.eta + 1.0) * math.log(h.mu) - math.lgamma(h.eta + 1.0))
    return lj
