"""Shared helpers: seeded problem generators and finite-difference oracles."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from adaridge import Dataset, Hyper, PosteriorState, standardize
from adaridge.model import _live_columns, _live_gram
from adaridge.solver import _cycle, _joint_step
from oracles import log_joint_posterior


# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline on a loaded machine.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("deterministic")


def toeplitz_design(n, beta, sigma, rng, rho=0.5):
    """Gaussian design with correlation rho^|j-k| and linear response."""

    beta = np.asarray(beta, dtype=float)
    p = len(beta)
    idx = np.arange(p)
    cov = rho ** np.abs(np.subtract.outer(idx, idx))
    chol = np.linalg.cholesky(cov)
    x = rng.standard_normal((n, p)) @ chol.T
    y = x @ beta + sigma * rng.standard_normal(n)
    return x, y


def random_instance(seed, n_range=(40, 150), p_range=(3, 8)):
    """A standardized random sparse-regression instance."""

    rng = np.random.default_rng(seed)
    n = int(rng.integers(*n_range))
    p = int(rng.integers(p_range[0], p_range[1] + 1))
    beta = np.zeros(p)
    k = int(rng.integers(1, max(2, p // 2 + 1)))
    beta[rng.choice(p, size=k, replace=False)] = rng.uniform(1.0, 5.0, size=k)
    sigma = float(rng.uniform(0.5, 3.0))
    x, y = toeplitz_design(n, beta, sigma, rng)
    data, std = standardize(x, y)
    return data, std, beta


def wide_design(seed=3, n=50, p=200):
    """A raw p > n design: rows iid N(0, I), the first five coefficients 2,
    the rest 0, unit noise."""

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:5] = 2.0
    return x, x @ beta + rng.standard_normal(n)


def near_collinear_design(seed, noise, n=35):
    """A raw design with 8 columns, the last ``-2`` times the second plus
    ``noise`` times N(0, 1): rows iid N(0, I) otherwise, coefficients
    (3, 1.5, 0, 0, 2, 0, 0, 0), unit noise."""

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 8))
    x[:, 7] = -2.0 * x[:, 1] + noise * rng.standard_normal(n)
    beta = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    return x, x @ beta + rng.standard_normal(n)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def live_view(data: Dataset, idx):
    """``data`` restricted to the coordinates ``idx`` by
    ``model._live_columns`` and ``model._live_gram``, the view the solver,
    the polish, MC evidence and EM work on: the live columns and the
    slices of the cached ``X'X`` and ``X'y``, with the ``y``, ``n`` and
    ``p`` that the reference formulas read."""

    idx = np.asarray(idx)
    x, (xtx, xty) = _live_columns(data, idx), _live_gram(data, idx)
    return SimpleNamespace(x=x, y=data.y, xtx=xtx, xty=xty, n=data.n, p=x.shape[1])


def joint_cycle(data: Dataset, h: Hyper, idx, beta, max_iter, conv_tol, prune_tol):
    """``solver._cycle`` with the joint solver's step under ``h``:
    ``(idx, beta, sigma2, v_inv, exit_sigma2, iterations, converged)``,
    where ``sigma2`` is the noise variance of the last iteration, as a fit
    and the polish's warm start take it, and ``exit_sigma2`` the noise
    variance's conditional mode at the final coefficients."""

    idx, beta, v_inv, iters, converged, trace, rss = _cycle(
        data, np.asarray(idx), np.asarray(beta, dtype=float),
        partial(_joint_step, data.n, h), max_iter, conv_tol, prune_tol)
    exit_sigma2 = _joint_step(data.n, h, rss, beta, v_inv)[1]
    return idx, beta, trace[-1][1], v_inv, exit_sigma2, iters, converged


def fd_gradient(f, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        step = h * (1.0 + abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2.0 * step)
    return g


# Step near eps**(1/4): the roundoff floor of a second difference is
# ~eps |f| / h^2, so steps much below ~3e-4 cannot resolve 1e-5 accuracy.
def fd_hessian(f, theta, h=3e-4):
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    steps = h * (1.0 + np.abs(theta))
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            hi, hj = steps[i], steps[j]
            if i == j:
                up, dn = theta.copy(), theta.copy()
                up[i] += hi
                dn[i] -= hi
                out[i, i] = (f(up) - 2.0 * f(theta) + f(dn)) / hi**2
            else:
                pp, pm, mp, mm = (theta.copy() for _ in range(4))
                pp[i] += hi; pp[j] += hj
                pm[i] += hi; pm[j] -= hj
                mp[i] -= hi; mp[j] += hj
                mm[i] -= hi; mm[j] -= hj
                out[i, j] = out[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * hi * hj)
    return out


def log_joint_of_theta(data: Dataset, h: Hyper):
    """Joint log density as a function of the flat vector
    (beta, sigma2, v_inv) for finite-difference checks."""

    p = data.p

    def f(theta):
        state = PosteriorState(
            beta=theta[:p],
            sigma2=float(theta[p]),
            v_inv=theta[p + 1:],
            active=np.ones(p, dtype=bool),
        )
        return log_joint_posterior(state, data, h)

    return f


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
