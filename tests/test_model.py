import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adaridge import (
    Dataset,
    FitOptions,
    Hyper,
    PosteriorState,
    Standardization,
    destandardize_beta,
    fit_em,
    fit_joint_mode,
    fit_ols,
    select_eta,
    standardize,
)
from adaridge import evidence, solver
from adaridge.errors import (
    DimensionMismatch,
    NoInitializer,
    NonFiniteInput,
    NonPositiveSigma2,
    ZeroNormColumn,
)
from adaridge.model import (
    FALLBACK_RIDGE,
    START_PIVOT_RATIO,
    _chol_solve,
    _live_columns,
    _live_gram,
    _ridge_solve,
)
from adaridge.simulate import DgpSpec, draw_dataset
from conftest import random_instance, same_bits, toeplitz_design, wide_design
from oracles import InfinitePrecision, log_joint_posterior


class TestStandardize:
    def test_three_four_five_column(self):
        data, s = standardize([[3.0], [4.0]], [1.0, 3.0])
        np.testing.assert_allclose(data.x[:, 0], [0.6, 0.8])
        np.testing.assert_allclose(data.y, [-1.0, 1.0])
        np.testing.assert_allclose(s.column_norms, [5.0])
        assert s.y_mean == 2.0

    def test_identity_on_already_standardized(self, rng):
        x = rng.standard_normal((20, 3))
        x /= np.linalg.norm(x, axis=0)
        y = rng.standard_normal(20)
        y -= y.mean()
        data, s = standardize(x, y)
        np.testing.assert_allclose(data.x, x, atol=1e-14)
        np.testing.assert_allclose(data.y, y, atol=1e-14)
        np.testing.assert_allclose(s.column_norms, 1.0, atol=1e-12)
        assert abs(s.y_mean) < 1e-12

    def test_unit_norms_on_two_variable_draw(self, rng):
        # 30 observations, coefficients (0, 3), unit noise
        x, y = toeplitz_design(30, [0.0, 3.0], 1.0, rng, rho=0.0)
        data, _ = standardize(x, y)
        np.testing.assert_allclose(np.linalg.norm(data.x, axis=0), 1.0, atol=1e-12)
        assert abs(data.y.mean()) < 1e-10

    def test_zero_norm_column_rejected(self):
        with pytest.raises(ZeroNormColumn) as err:
            standardize([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        assert err.value.column == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            standardize([[1.0], [2.0]], [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            standardize([[1.0], [np.nan]], [1.0, 2.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norm_names_its_column(self, rng):
        # the entries are finite, but column 1's squares overflow
        x = rng.standard_normal((30, 3))
        x[:, 1] *= 1e200
        with pytest.raises(NonFiniteInput, match="column 1 "):
            standardize(x, rng.standard_normal(30))

    def test_bad_norms_name_the_first_bad_column(self):
        with pytest.raises(NonFiniteInput, match="column 1 "):
            Standardization(np.array([1.0, np.inf, 0.0]), 0.0)
        with pytest.raises(ZeroNormColumn) as err:
            Standardization(np.array([1.0, 2.0, 0.0, 0.0]), 0.0)
        assert err.value.column == 2

    def test_no_rows_is_a_dimension_error(self):
        with pytest.raises(DimensionMismatch):
            standardize(np.empty((0, 2)), np.empty(0))


class TestDestandardize:
    def test_scalar_division(self):
        s = Standardization(np.array([5.0]), 2.0)
        np.testing.assert_allclose(destandardize_beta([1.0], s), [0.2])

    def test_zero_fixed_point(self):
        s = Standardization(np.array([3.0, 7.0]), 0.0)
        np.testing.assert_allclose(destandardize_beta([0.0, 0.0], s), [0.0, 0.0])

    def test_length_mismatch(self):
        s = Standardization(np.array([3.0, 7.0]), 0.0)
        with pytest.raises(DimensionMismatch):
            destandardize_beta([1.0], s)

    def test_ols_round_trip_matches_raw_scale(self, rng):
        # least squares on raw data == destandardized least squares on
        # standardized data (both via lstsq as the oracle)
        x, y = toeplitz_design(80, [2.0, -1.0, 0.0, 0.5], 1.5, rng)
        beta_raw = np.linalg.lstsq(x - 0, y - y.mean(), rcond=None)[0]
        data, s = standardize(x, y)
        beta_std = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
        np.testing.assert_allclose(destandardize_beta(beta_std, s), beta_raw,
                                   atol=1e-10)

    def test_standardization_round_trip_identity(self, rng):
        s = Standardization(rng.uniform(0.5, 4.0, 6), 1.7)
        beta = rng.standard_normal(6)
        again = destandardize_beta(beta, s) * s.column_norms
        np.testing.assert_allclose(again, beta, atol=1e-12)


def _state(beta, sigma2, v_inv):
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    v_inv = np.atleast_1d(np.asarray(v_inv, dtype=float))
    return PosteriorState(beta=beta, sigma2=sigma2, v_inv=v_inv,
                          active=np.ones(len(beta), dtype=bool))


class TestLogJointPosterior:
    def test_scalar_example(self):
        # p = 1, n = 1, x = 1, y = 0, beta = 0, sigma2 = 1, v_inv = 1,
        # eta = 0, mu = 1: all terms but -(n+p)/2 log(2 pi) and -mu*v_inv
        # vanish, giving -log(2 pi) - 1.
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        value = log_joint_posterior(_state(0.0, 1.0, 1.0), data, Hyper(0.0, mu=1.0))
        assert value == pytest.approx(-math.log(2 * math.pi) - 1.0, abs=1e-12)

    def test_sigma2_doubling_shift(self, rng):
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal(7)
        data = Dataset(x, y)
        h = Hyper(0.7, mu=0.3)
        v_inv = rng.uniform(0.5, 2.0, 3)
        lo = log_joint_posterior(_state(np.zeros(3), 1.0, v_inv), data, h)
        hi = log_joint_posterior(_state(np.zeros(3), 2.0, v_inv), data, h)
        # with beta = 0 the quadratic form is y'y/(2 sigma2); subtract it
        # to isolate the power of sigma2
        yty = float(y @ y)
        shift = (hi + yty / 4.0) - (lo + yty / 2.0)
        expected = -((7 + 3) / 2.0 + 1.0) * math.log(2.0)
        assert shift == pytest.approx(expected, abs=1e-12)

    def test_term_by_term_oracle(self, rng):
        # likelihood + each prior factor computed independently
        from scipy.stats import gamma as gamma_dist, norm

        x = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        data = Dataset(x, y)
        beta = rng.standard_normal(4)
        sigma2 = 1.7
        v_inv = rng.uniform(0.2, 3.0, 4)
        h = Hyper(0.9, mu=0.6)

        lik = norm.logpdf(y, loc=x @ beta, scale=math.sqrt(sigma2)).sum()
        prior_beta = norm.logpdf(beta, loc=0.0,
                                 scale=np.sqrt(sigma2 / v_inv)).sum()
        prior_sigma = -math.log(sigma2)
        prior_v = gamma_dist.logpdf(v_inv, a=h.eta + 1.0, scale=1.0 / h.mu).sum()

        value = log_joint_posterior(_state(beta, sigma2, v_inv), data, h)
        assert value == pytest.approx(lik + prior_beta + prior_sigma + prior_v,
                                      abs=1e-10)

    def test_concavity_in_beta(self, rng):
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        data = Dataset(x, y)
        h = Hyper(0.2)
        v_inv = rng.uniform(0.1, 2.0, 4)

        def f(beta):
            return log_joint_posterior(_state(beta, 1.3, v_inv), data, h)

        for _ in range(25):
            b1 = rng.standard_normal(4)
            b2 = rng.standard_normal(4)
            t = float(rng.uniform(0.05, 0.95))
            mid = f(t * b1 + (1 - t) * b2)
            assert mid > t * f(b1) + (1 - t) * f(b2) - 1e-12

    def test_requires_finite_precisions(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
        state = PosteriorState(beta=np.array([1.0, 0.0]), sigma2=1.0,
                               v_inv=np.array([1.0, np.inf]),
                               active=np.array([True, False]))
        with pytest.raises(InfinitePrecision):
            log_joint_posterior(state, data, Hyper(0.0))

    def test_requires_positive_sigma2(self):
        with pytest.raises(NonPositiveSigma2):
            _state(0.0, -1.0, 1.0)


class TestValidation:
    def test_hyper_bounds(self):
        with pytest.raises(ValueError):
            Hyper(-1.6)
        with pytest.raises(ValueError):
            Hyper(0.0, mu=0.0)
        assert Hyper(-1.5).eta == -1.5

    def test_posterior_state_consistency(self):
        with pytest.raises(ValueError):
            PosteriorState(beta=np.array([1.0]), sigma2=1.0,
                           v_inv=np.array([np.inf]), active=np.array([True]))
        with pytest.raises(ValueError):
            PosteriorState(beta=np.array([1.0]), sigma2=1.0,
                           v_inv=np.array([np.inf]), active=np.array([False]))
        with pytest.raises(DimensionMismatch, match="share length"):
            PosteriorState(beta=np.zeros(2), sigma2=1.0, v_inv=np.ones(1),
                           active=np.array([True]))
        with pytest.raises(ValueError, match="non-negative"):
            PosteriorState(beta=np.zeros(1), sigma2=1.0, v_inv=np.array([-1.0]),
                           active=np.array([True]))

    @pytest.mark.parametrize("max_iter", [2.5, np.float64(3), 0, "3"])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            FitOptions(max_iter=max_iter)

    @pytest.mark.parametrize("make, kwargs, name", [
        (FitOptions, {"conv_tol": "1e-8"}, "conv_tol"),
        (FitOptions, {"conv_tol": math.inf}, "conv_tol"),
        (FitOptions, {"conv_tol": 0.0}, "conv_tol"),
        (FitOptions, {"prune_tol": None}, "prune_tol"),
        (FitOptions, {"prune_tol": math.nan}, "prune_tol"),
        (Hyper, {"eta": "1"}, "eta"),
        (Hyper, {"eta": math.inf}, "eta"),
        (Hyper, {"eta": math.nan}, "eta"),
        (Hyper, {"eta": 0.0, "mu": math.inf}, "mu"),
        (Hyper, {"eta": 0.0, "mu": None}, "mu"),
    ])
    def test_bad_options_name_their_field(self, make, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            make(**kwargs)

    def test_max_iter_may_be_a_numpy_integer(self):
        data, _, _ = random_instance(0)
        assert fit_joint_mode(data, Hyper(0.0),
                              FitOptions(max_iter=np.int64(3))).iterations <= 3

    def test_dataset_validation(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.ones((3, 2)), np.ones(4))
        with pytest.raises(NonFiniteInput):
            Dataset(np.array([[np.inf]]), np.array([1.0]))
        with pytest.raises(NonFiniteInput, match="response"):
            Dataset(np.ones((2, 1)), np.array([1.0, np.nan]))
        with pytest.raises(DimensionMismatch, match="2-d design matrix"):
            Dataset(np.ones(3), np.ones(3))
        with pytest.raises(DimensionMismatch, match="1-d vector"):
            Dataset(np.ones((3, 1)), np.ones((3, 1)))

    def test_no_initializer_when_the_start_overflows(self):
        # X'X = 2e-300 and X'y = 2e150 are finite; least squares, 1e450,
        # is not
        data = Dataset(np.full((2, 1), 1e-150), np.full(2, 1e300))
        with pytest.raises(NoInitializer, match="non-finite"):
            data.initial_beta

    def test_no_initializer_when_the_ridge_fallback_is_singular(self):
        # p >= n sends the start to the ridged solve; at 1e150 the ridge of
        # 1e-6 vanishes in X'X's rounding, leaving a rank-one matrix
        data = Dataset(np.full((2, 3), 1e150), np.array([1.0, -1.0]))
        with pytest.raises(NoInitializer, match="leading minor"):
            data.initial_beta
        with pytest.raises(NoInitializer, match="leading minor"):
            fit_joint_mode(data, Hyper(0.0))


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestOverflowingProducts:
    """Finite data whose ``X'X`` or ``X'y`` overflows raise
    ``NonFiniteInput`` naming the product, instead of fitting the empty
    model from an all-zero start."""

    def test_overflowing_gram_fails_the_fit_and_the_selection(self):
        raw, _ = draw_dataset(DgpSpec(3, 100, 3.0, 0))
        data = Dataset(raw.x * 1e160, raw.y)
        for call in (lambda: data.xtx, lambda: data.initial_beta,
                     lambda: fit_joint_mode(data, Hyper(0.0)),
                     lambda: select_eta(data),
                     lambda: select_eta(data, method="mc", draws=10)):
            with pytest.raises(NonFiniteInput, match="^X'X has non-finite"):
                call()

    def test_overflowing_response_product(self):
        data = Dataset(np.ones((100, 1)), np.full(100, 1e307))
        assert np.isfinite(data.xtx).all()
        with pytest.raises(NonFiniteInput, match="^X'y has non-finite"):
            fit_joint_mode(data, Hyper(0.0))


class TestStart:
    """``Dataset.initial_beta``: least squares by Cholesky of the cached
    ``X'X`` when the factor passes the pivot-ratio test, else the solve
    ridged by ``FALLBACK_RIDGE``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_p_above_n_starts_from_the_ridged_solve(self, seed):
        data, _ = standardize(*wide_design(seed))
        assert same_bits(data.initial_beta,
                         _ridge_solve(data.xtx, FALLBACK_RIDGE, data.xty))

    @pytest.mark.parametrize("n", [3, 40])
    def test_duplicated_column_starts_from_the_ridged_solve(self, n):
        # p = n = 3, and an exact copy of a column at n = 40
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3))
        x[:, 2] = x[:, 0]
        data, _ = standardize(x, rng.standard_normal(n))
        assert same_bits(data.initial_beta,
                         _ridge_solve(data.xtx, FALLBACK_RIDGE, data.xty))

    @pytest.mark.parametrize("seed", range(10))
    def test_well_conditioned_start_is_least_squares(self, seed):
        data, _, _ = random_instance(seed)
        ols = fit_ols(data)
        assert (np.abs(data.initial_beta - ols).max()
                <= 1e-12 * np.abs(ols).max())

    def test_wide_well_conditioned_start_is_least_squares(self):
        rng = np.random.default_rng(800)
        data, _ = standardize(rng.standard_normal((800, 200)),
                              rng.standard_normal(800))
        ols = fit_ols(data)
        assert (np.abs(data.initial_beta - ols).max()
                <= 1e-12 * np.abs(ols).max())

    def test_pivot_ratio_test(self):
        # X'X = diag(1, r) factors with pivots 1 and sqrt(r): its squared
        # pivot ratio is r, and the start takes the ridged solve only when
        # r is not above START_PIVOT_RATIO
        for factor, ridged in ((1.01, False), (0.99, True)):
            r = factor * START_PIVOT_RATIO
            data = Dataset(np.array([[1.0, 0.0], [0.0, math.sqrt(r)], [0.0, 0.0]]),
                           np.ones(3))
            assert data.xtx[1, 1] == pytest.approx(r, rel=1e-15)
            plain = _ridge_solve(data.xtx, 0.0, data.xty)
            fallback = _ridge_solve(data.xtx, FALLBACK_RIDGE, data.xty)
            assert not same_bits(plain, fallback)
            assert same_bits(data.initial_beta, fallback if ridged else plain)


def column_gather(data: Dataset, idx):
    """The restrictions ``_live_columns`` and ``_live_gram`` replaced: a
    numpy column gather of ``x`` and an ``np.ix_`` slice of ``X'X``."""

    return data.x[:, idx], data.xtx[np.ix_(idx, idx)], data.xty[idx]


def ridge_solve_from_a_plain_copy(gram, d, rhs):
    """``_ridge_solve`` as it copied ``gram`` itself into F order and
    called LAPACK's factor and solve, ``potrf`` then ``potrs``, one at a
    time; returns the solution and the factor's pivots."""

    from scipy.linalg import get_lapack_funcs

    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
    a = np.array(gram, order="F")
    a.flat[:: a.shape[0] + 1] += d
    c, info = potrf(a, lower=1, overwrite_a=1, clean=0)
    assert info == 0
    return potrs(c, rhs, lower=1)[0], c.diagonal()


@pytest.mark.parametrize("n, p", [(20, 8), (100, 8), (800, 200), (50, 200)])
def test_ridge_solve_copies_a_symmetric_gram(n, p):
    # _ridge_solve copies gram.T, which is gram only when X'X and its
    # slices are exactly symmetric; dposv, behind _chol_solve, is potrf
    # then potrs
    rng = np.random.default_rng([n, p])
    data = Dataset(rng.standard_normal((n, p)), rng.standard_normal(n))
    assert same_bits(data.xtx, data.xtx.T)
    for idx in (np.arange(p), np.flatnonzero(rng.random(p) < 0.5)):
        xtx, xty = _live_gram(data, idx)
        assert same_bits(xtx, xtx.T)
        d = rng.uniform(1e-6, 1.0, idx.size)
        x, pivots = ridge_solve_from_a_plain_copy(xtx, d, xty)
        assert same_bits(_ridge_solve(xtx, d, xty), x)
        a = np.array(xtx, order="F")
        a.flat[:: idx.size + 1] += d
        got = _chol_solve(a, xty)
        assert same_bits(got[0], x) and same_bits(got[1], pivots)


def reachable_arrays(obj, seen=None):
    """Every array reachable from ``obj`` through dicts (keys too),
    sequences, object attributes and array bases, each once."""

    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        yield from reachable_arrays(obj.base, seen)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from reachable_arrays(key, seen)
            yield from reachable_arrays(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from reachable_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from reachable_arrays(vars(obj), seen)


class TestLive:
    def test_a_fitted_dataset_holds_the_design_once(self):
        # After Laplace and MC selection on a design that prunes, no array
        # the dataset keeps (its cached products, the memoized fits and
        # polished modes) is near the size of ``x``, but ``x`` itself.
        rng = np.random.default_rng(33)
        beta = np.zeros(60)
        beta[rng.choice(60, 5, replace=False)] = rng.uniform(1.0, 3.0, 5)
        data = standardize(*toeplitz_design(400, beta, 1.0, rng))[0]
        for method, kw in (("laplace", {}), ("mc", {"draws": 200})):
            assert not select_eta(data, method=method, **kw).refit.state.active.all()
        polished = [hit for hit in data._memo.values() if isinstance(hit, tuple) and hit]
        beta, _, v_inv = polished[0][:3]
        arrays = list(reachable_arrays(vars(data)))
        # the walk reaches the design, the products and the polished modes
        assert {id(data.x), id(data.xtx), id(beta), id(v_inv)} <= {id(a) for a in arrays}
        large = [arr.shape for arr in arrays
                 if arr is not data.x and arr.nbytes >= data.x.nbytes / 4]
        assert large == []

    @given(n=st.integers(1, 300), mask=st.lists(st.booleans(), min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @example(n=50, mask=[False] * 7, seed=0)
    @example(n=50, mask=[True] * 7, seed=0)
    def test_bitwise_the_column_gather(self, n, mask, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((n, len(mask))), rng.standard_normal(n))
        idx = np.flatnonzero(mask)
        x, (xtx, xty) = _live_columns(data, idx), _live_gram(data, idx)
        old_x, old_xtx, old_xty = column_gather(data, idx)
        assert same_bits(x, old_x)
        assert same_bits(xtx, old_xtx)
        assert same_bits(xty, old_xty)
        assert x.flags.f_contiguous
        # the same layout, so BLAS rounds the products the same way
        b = rng.standard_normal(idx.size)
        r = rng.standard_normal(n)
        assert same_bits(x @ b, old_x @ b)
        assert same_bits(x.T @ r, old_x.T @ r)

    def test_full_set_is_a_read_only_view_of_the_cache(self, rng):
        data = Dataset(rng.standard_normal((30, 6)), rng.standard_normal(30))
        idx = np.arange(data.p)
        x, (xtx, xty) = _live_columns(data, idx), _live_gram(data, idx)
        assert np.shares_memory(xtx, data.xtx)
        assert np.shares_memory(xty, data.xty)
        assert not (xtx.flags.writeable or xty.flags.writeable)
        # the columns are a fresh gather in the layout of any other gather,
        # not ``x`` itself, which is C-ordered
        assert not np.shares_memory(x, data.x)
        assert x.flags.f_contiguous and data.x.flags.c_contiguous
        assert same_bits(x, data.x)

    def test_results_bitwise_those_of_the_column_gather(self, monkeypatch):
        # One pruning instance through every caller of ``_live_columns``
        # and ``_live_gram``: Laplace and MC selection (the solver's cycle
        # and polish, MC's X'X slice) and EM (through the solver's cycle),
        # each on a fresh dataset, so no memo carries over.
        rng = np.random.default_rng(14)
        beta = np.zeros(80)
        beta[rng.choice(80, 6, replace=False)] = rng.uniform(1.0, 3.0, 6)
        x, y = toeplitz_design(300, beta, 1.0, rng)

        def run():
            out = []
            for method, kw in (("laplace", {}), ("mc", {"draws": 200})):
                sel = select_eta(standardize(x, y)[0], method=method, **kw)
                assert not sel.refit.state.active.all()
                # a float's repr round-trips, so equal reprs are equal bits
                out += [float(sel.best_eta).hex(), sel.refit.state.beta.tobytes(),
                        repr(sel.estimates)]
            fit = fit_em(standardize(x, y)[0], Hyper(-1.0))
            assert not fit.active.all()
            out += [fit.beta.tobytes(), fit.s2_trace.tobytes()]
            return out

        new = run()
        for module in (solver, evidence):
            monkeypatch.setattr(module, "_live_gram",
                                lambda data, idx: column_gather(data, idx)[1:])
        monkeypatch.setattr(solver, "_live_columns",
                            lambda data, idx: column_gather(data, idx)[0])
        assert run() == new
