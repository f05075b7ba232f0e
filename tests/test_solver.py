import contextlib
import ctypes
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaridge.em as em_module
import adaridge.evidence as evidence_module
import adaridge.model as model_module
import adaridge.solver as solver_module
from adaridge import (
    Dataset,
    FitOptions,
    Hyper,
    destandardize_beta,
    fit_em,
    fit_joint_mode,
    fit_ols,
    select_eta,
    standardize,
)
from adaridge.errors import (AdaRidgeError, ExactFit, NonFiniteEvidence, NonFiniteInput,
                             RankDeficient, SingularSystem)
from adaridge.evidence import DEFAULT_ETA_GRID
from adaridge.model import (
    MACHINE_EPS,
    PosteriorState,
    _one_blas_thread,
    _openblas_thread_controls,
    _ridge_solve,
)
from adaridge.simulate import DgpSpec, draw_dataset
from adaridge.solver import _derivatives, _newton_step
from conftest import (fd_gradient, joint_cycle, random_instance, toeplitz_design,
                      wide_design)
from oracles import (assemble_hessian, explicit_residual_cycle, fit_reweighted_ridge,
                     log_joint_posterior)


def orthonormal_data(rng, n=20, p=3):
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    y = rng.standard_normal(n)
    return Dataset(q, y)


def ridge_update(data, v_inv):
    return _ridge_solve(data.xtx, np.asarray(v_inv, dtype=float), data.xty)


def first_cycle(x, y, beta0, h):
    """One conditional-update cycle from ``beta0`` with zero precisions,
    without pruning: ``(sigma2_1, v_inv_1, beta_1)``."""

    data = Dataset(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    _, beta, sigma2, v_inv, _, _, _ = joint_cycle(
        data, h, np.arange(data.p), beta0, 1, 1e-8, 0.0)
    return sigma2, v_inv, beta


class TestUpdateBeta:
    """The coefficient update: the ridge solve ``(X'X + V^{-1}) beta = X'y``."""

    def test_orthonormal_unit_precisions_halve_projection(self, rng):
        data = orthonormal_data(rng)
        beta = ridge_update(data, np.ones(3))
        np.testing.assert_allclose(beta, (data.x.T @ data.y) / 2.0, atol=1e-12)

    def test_zero_precision_limit_is_ols(self, rng):
        x, y = toeplitz_design(50, [1.0, -2.0, 0.5], 1.0, rng)
        data, _ = standardize(x, y)
        ols = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
        beta = ridge_update(data, np.full(3, 1e-12))
        np.testing.assert_allclose(beta, ols, atol=1e-8)

    def test_scalar_formula(self):
        # x'x = 1, x'y = 2, v_inv = 3 -> 2 / (1 + 3)
        data = Dataset(np.array([[1.0]]), np.array([2.0]))
        assert ridge_update(data, np.array([3.0]))[0] == pytest.approx(0.5, abs=1e-14)

    def test_singular_at_zero_precision_with_duplicate_columns(self, rng):
        col = rng.standard_normal(10)
        data = Dataset(np.column_stack([col, col]), rng.standard_normal(10))
        with pytest.raises(SingularSystem):
            _ridge_solve(data.xtx, np.zeros(2), data.xty)


class TestUpdateSigma2:
    """The noise-variance update ``[rss + beta' V^{-1} beta] / (n + p + 2)``,
    read from truncated cycles."""

    def test_zero_beta(self, rng):
        data = orthonormal_data(rng, n=9, p=4)
        sigma2, _, _ = first_cycle(data.x, data.y, np.zeros(4), Hyper(0.0))
        assert sigma2 == pytest.approx(float(data.y @ data.y) / (9 + 4 + 2), abs=1e-14)

    def test_arithmetic_example(self):
        # n = 2, p = 1, x'x = 2, x'y = 4; least squares gives beta_0 = 2.
        # Iteration 1: rss = 2 -> sigma2 = 2/5; with eta = 9.5 and a
        # vanishing mu the precision is 20 (2/5) / 4 = 2 and beta = 4/4 = 1.
        # Iteration 2: rss = 4 plus penalty 1 * 2 * 1 -> sigma2 = 6/5.
        data = Dataset(np.array([[1.0], [1.0]]), np.array([3.0, 1.0]))
        h = Hyper(9.5, mu=1e-300)
        one = fit_joint_mode(data, h, FitOptions(max_iter=1)).state
        assert one.sigma2 == pytest.approx(0.4, rel=1e-12)
        assert one.v_inv[0] == pytest.approx(2.0, rel=1e-12)
        assert one.beta[0] == pytest.approx(1.0, rel=1e-12)
        two = fit_joint_mode(data, h, FitOptions(max_iter=2)).state
        assert two.sigma2 == pytest.approx(1.2, rel=1e-12)

    def test_matches_conditional_mode_formula(self):
        # sigma2 of iteration 2 is the conditional mode at iteration 1's
        # coefficients and precisions, on the coordinates live after it
        for seed in range(10):
            data, _, _ = random_instance(seed)
            h = Hyper(0.5)
            one = fit_joint_mode(data, h, FitOptions(max_iter=1)).state
            two = fit_joint_mode(data, h, FitOptions(max_iter=2)).state
            idx = np.where(one.active)[0]
            beta, v_inv = one.beta[idx], one.v_inv[idx]
            r = data.y - data.x[:, idx] @ beta
            nu_star = (data.n + idx.size) / 2.0
            lam_star = float(r @ r + beta @ (v_inv * beta)) / 2.0
            assert two.sigma2 == pytest.approx(lam_star / (nu_star + 1.0), rel=1e-12)


class TestUpdateV:
    """The precision update ``1 / vtilde`` with the prior-variance mode
    ``vtilde = (beta^2 + 2 sigma2 mu) / ((1 + 2 eta) sigma2)``, taken from
    the previous coefficients."""

    def test_zero_beta_triggers_prune_scale(self, rng):
        # variance mode collapses to 2 mu / (1 + 2 eta), precision explodes
        data = orthonormal_data(rng, p=2)
        _, v_inv, _ = first_cycle(data.x, data.y, np.array([0.0, 1.0]), Hyper(0.0))
        assert v_inv[0] > 1e12

    def test_unit_t_statistic(self):
        # beta_0 = 2, rss = 4^2 + 2^2 = 20 -> sigma2 = 20 / 5 = 4 = beta_0^2
        sigma2, v_inv, _ = first_cycle([[1.0], [1.0]], [6.0, 4.0], [2.0],
                                       Hyper(0.0, mu=1e-300))
        assert sigma2 == pytest.approx(4.0, rel=1e-12)
        assert v_inv[0] == pytest.approx(1.0, rel=1e-12)

    def test_half_eta_example(self):
        # eta = 1/2, beta_0 = 2, rss = 2^2 + 1^2 -> sigma2 = 1: variance mode 2
        sigma2, v_inv, _ = first_cycle([[1.0], [1.0]], [4.0, 3.0], [2.0],
                                       Hyper(0.5, mu=1e-300))
        assert sigma2 == pytest.approx(1.0, rel=1e-12)
        assert 1.0 / v_inv[0] == pytest.approx(2.0, rel=1e-12)

    def test_monotone_in_beta(self, rng):
        data = orthonormal_data(rng, p=2)
        _, v, _ = first_cycle(data.x, data.y, np.array([1.0, 3.0]), Hyper(0.0))
        assert v[1] < v[0]

    def test_boundary_and_sigma_errors(self):
        # a zero residual stops the cycle before the precision update
        # would divide by a zero noise variance
        with pytest.raises(ExactFit):
            first_cycle([[1.0], [0.0]], [2.0, 0.0], [2.0], Hyper(0.0))


class TestNewtonStep:
    """The Schur-complement Newton step against the dense negative Hessian
    assembled from the same blocks."""

    @staticmethod
    def dense(beta, sigma2, v_inv, data, h):
        (gb, gs, gv), blocks, _ = _derivatives(beta, sigma2, v_inv, data.x,
                                               data.y, data.xtx, h)
        return assemble_hessian(blocks), np.concatenate([gb, [gs], gv])

    def test_matches_the_dense_solve(self):
        rng = np.random.default_rng(11)
        solved = 0
        for point in range(60):
            data, _, _ = random_instance(500 + point, n_range=(20, 60),
                                         p_range=(1, 6))
            p = data.p
            beta = rng.standard_normal(p)
            sigma2 = float(rng.uniform(0.5, 3.0))
            v_inv = rng.uniform(0.2, 4.0, p)
            h = Hyper((0.1, 0.5, 2.0)[point % 3], mu=0.01)
            hess, grad = self.dense(beta, sigma2, v_inv, data, h)
            step = _newton_step(beta, sigma2, v_inv, data.x, data.y, data.xtx, h)
            positive = np.linalg.eigvalsh(hess)[0] > 0
            assert (step is not None) == positive
            if not positive:
                continue
            d = np.concatenate([step[0], [step[1]], step[2]])
            want = np.linalg.solve(hess, grad)
            assert np.max(np.abs(d - want)) <= 1e-10 * np.max(np.abs(want))
            sign, logdet = np.linalg.slogdet(hess)
            assert sign > 0
            assert step[3] == pytest.approx(logdet, rel=1e-10, abs=0)
            solved += 1
        assert solved > 25

    def test_indefinite_point_gives_no_step(self):
        # a noise variance far above its conditional mode makes the
        # noise-variance block of the negative Hessian negative
        data, _, _ = random_instance(3, p_range=(4, 4))
        beta = np.array([0.5, -1.0, 0.2, 1.5])
        v_inv = np.array([0.5, 1.0, 2.0, 3.0])
        sigma2 = 1e3 * float(data.y @ data.y)
        h = Hyper(0.5, mu=0.01)
        hess, _ = self.dense(beta, sigma2, v_inv, data, h)
        assert np.linalg.eigvalsh(hess)[0] < 0
        assert _newton_step(beta, sigma2, v_inv, data.x, data.y, data.xtx,
                            h) is None


class TestFitJointMode:
    def test_two_variable_selection_frequency(self):
        # coefficients (0, 3), unit noise, 30 observations: the null
        # coordinate survives only when its |t| exceeds ~2, so the clean
        # selection rate is ~0.93 (measured over 2000 seeded draws);
        # 0.87 over 200 runs leaves a ~4-sigma binomial margin
        hits = 0
        for rep in range(200):
            rng = np.random.default_rng([42, rep])
            x, y = toeplitz_design(30, [0.0, 3.0], 1.0, rng, rho=0.0)
            data, _ = standardize(x, y)
            fit = fit_joint_mode(data, Hyper(0.0))
            ols = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
            if list(fit.state.active) == [False, True]:
                assert abs(fit.state.beta[1] - ols[1]) < 0.2 * abs(ols[1])
                hits += 1
        assert hits >= 174

    def test_ols_boundary_matches_least_squares(self, rng):
        for eta in (-0.5, -0.75):
            x, y = toeplitz_design(40, [1.0, 0.0, 2.0], 1.0, rng)
            data, _ = standardize(x, y)
            fit = fit_joint_mode(data, Hyper(eta))
            np.testing.assert_allclose(fit.state.beta, fit_ols(data), atol=1e-10)
            assert fit.state.active.all()
            assert (fit.state.v_inv == 0).all()

    def test_trace_monotone_within_active_stretches(self):
        for seed in range(20):
            data, _, _ = random_instance(seed)
            fit = fit_joint_mode(data, Hyper(0.0))
            tr, counts = fit.log_joint_trace, fit.active_count_trace
            for i in range(1, len(tr)):
                if counts[i] == counts[i - 1]:
                    assert tr[i] >= tr[i - 1] - 1e-10

    def test_pruned_stay_pruned(self):
        # truncating the iteration anywhere never resurrects a coordinate
        data, _, _ = random_instance(3)
        full = fit_joint_mode(data, Hyper(0.0))
        prev = None
        for it in range(1, full.iterations + 1):
            fit = fit_joint_mode(data, Hyper(0.0), FitOptions(max_iter=it))
            active = fit.state.active
            if prev is not None:
                assert not (active & ~prev).any()
            prev = active

    def test_fixed_point_stability(self):
        data, _, _ = random_instance(7)
        opts = FitOptions(conv_tol=1e-12)
        fit = fit_joint_mode(data, Hyper(0.0), opts)
        state = fit.state
        idx = np.where(state.active)[0]
        # one more cycle at eta = 0, written out
        x, b, v = data.x[:, idx], state.beta[idx], state.v_inv[idx]
        r = data.y - x @ b
        s2 = float(r @ r + b @ (v * b)) / (data.n + idx.size + 2)
        v_inv = s2 / (b**2 + 2.0 * s2 * MACHINE_EPS)
        beta = np.linalg.solve(x.T @ x + np.diag(v_inv), x.T @ data.y)
        assert np.max(np.abs(beta - state.beta[idx])) < 1e-8

    def test_conditional_updates_zero_the_gradient(self):
        # Truncated fits expose each update: after iteration 1 the state
        # holds beta_1 and v_inv_1, after iteration 2 sigma2_2 (the mode
        # given beta_1, v_inv_1), v_inv_2 (given beta_1, sigma2_2) and
        # beta_2 (given sigma2_2, v_inv_2).  With mu = 1e-4 every
        # prior-variance mode exceeds 2 mu / (1 + 2 eta) >> prune_tol, so
        # no coordinate is pruned.  On this instance every precision is
        # above 0.03, where central differences resolve the v gradient.
        data, _, _ = random_instance(0)
        h = Hyper(0.3, mu=1e-4)
        p = data.p
        one = fit_joint_mode(data, h, FitOptions(max_iter=1)).state
        two = fit_joint_mode(data, h, FitOptions(max_iter=2)).state
        assert one.active.all() and two.active.all()
        beta, v_inv, sigma2 = one.beta, one.v_inv, two.sigma2

        def f_sigma(s):
            st = PosteriorState(beta=beta, sigma2=float(s[0]), v_inv=v_inv,
                                active=np.ones(p, bool))
            return log_joint_posterior(st, data, h)

        g = fd_gradient(f_sigma, np.array([sigma2]))
        assert abs(g[0]) < 1e-6

        v_new = two.v_inv

        def f_v(v):
            st = PosteriorState(beta=beta, sigma2=sigma2, v_inv=v,
                                active=np.ones(p, bool))
            return log_joint_posterior(st, data, h)

        g = fd_gradient(f_v, v_new)
        assert np.max(np.abs(g)) < 1e-6

        beta_new = two.beta

        def f_beta(b):
            st = PosteriorState(beta=b, sigma2=sigma2, v_inv=v_new,
                                active=np.ones(p, bool))
            return log_joint_posterior(st, data, h)

        g = fd_gradient(f_beta, beta_new)
        assert np.max(np.abs(g)) < 1e-6

    def test_exact_fit_raises(self):
        data = Dataset(np.array([[1.0], [0.0], [0.0]]), np.array([2.0, 0.0, 0.0]))
        with pytest.raises(ExactFit):
            fit_joint_mode(data, Hyper(0.0))

    # the least-squares boundary and an interior eta
    @pytest.mark.parametrize("eta", [-0.5, 0.0])
    def test_constant_response_is_an_exact_fit(self, rng, eta):
        data, _ = standardize(rng.standard_normal((30, 3)), np.full(30, 2.5))
        assert not data.y.any()
        with pytest.raises(ExactFit):
            fit_joint_mode(data, Hyper(eta))

    def test_all_pruned_is_valid_empty_model(self, rng):
        # pure noise and heavy shrinkage: pruning everything is a fit
        x = rng.standard_normal((80, 4))
        y = rng.standard_normal(80)
        data, _ = standardize(x, y)
        fit = fit_joint_mode(data, Hyper(8.0))
        assert not fit.state.active.any()
        assert (fit.state.beta == 0).all()
        assert fit.converged

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_precision_update_raises(self):
        # the least-squares coefficient, about 1.6e155, squares to infinity
        # in the precision update, which leaves a zero precision
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 1))
        data = Dataset(x * 1e-155, 2 * x[:, 0] + rng.standard_normal(30))
        with pytest.raises(NonFiniteInput, match="^the precision update overflows"):
            fit_joint_mode(data, Hyper(0.0))
        for method in ("laplace", "mc"):
            with pytest.raises(NonFiniteInput, match="^the precision update overflows"):
                select_eta(data, method=method, draws=20)
        # EM's zero weight is the limit of its update: least squares
        emf = fit_em(data, Hyper(-1.0))
        np.testing.assert_allclose(emf.beta, fit_ols(data), rtol=1e-12)
        assert emf.converged and emf.active.all()

    def test_eta_domain(self):
        data = Dataset(np.eye(3), np.array([1.0, 2.0, 0.5]))
        with pytest.raises(ValueError):
            fit_joint_mode(data, Hyper(-1.0))


class TestLeanKernel:
    """The solver's shortcuts: trace entries built from in-loop values and
    products shared per dataset."""

    # every case prunes; (0, 8.0) prunes down to the empty model
    @pytest.mark.parametrize("seed, eta", [(13, 0.0), (0, 0.5), (4, 2.0),
                                           (9, 8.0), (0, 8.0)])
    def test_truncated_traces_are_prefixes_ending_at_the_state(self, seed, eta):
        data, _, _ = random_instance(seed)
        h = Hyper(eta)
        full = fit_joint_mode(data, h)
        assert not full.state.active.all()
        for m in range(1, full.iterations + 1):
            fit = fit_joint_mode(data, h, FitOptions(max_iter=m))
            tr = fit.log_joint_trace
            # a fit that prunes everything stops before iteration m's solve
            assert len(tr) == (m if fit.state.active.any() else m - 1)
            assert np.array_equal(tr, full.log_joint_trace[:m])
            assert np.array_equal(fit.active_count_trace,
                                  full.active_count_trace[:m])
            mask = fit.state.active
            if mask.any():
                assert fit.active_count_trace[-1] == mask.sum()
                state = PosteriorState(beta=fit.state.beta[mask],
                                       sigma2=fit.state.sigma2,
                                       v_inv=fit.state.v_inv[mask],
                                       active=np.ones(mask.sum(), dtype=bool))
                sub = Dataset(data.x[:, mask], data.y)
                assert tr[-1] == pytest.approx(log_joint_posterior(state, sub, h),
                                               rel=1e-12, abs=0)

    @pytest.mark.parametrize("model_id, n", [(3, 100), (3, 20), (1, 30)])
    def test_grid_fits_equal_standalone_fits(self, model_id, n):
        raw, _ = draw_dataset(DgpSpec(model_id, n, 3.0, seed=5))
        data, _ = standardize(raw.x, raw.y)
        sel = select_eta(data)
        for eta in sel.grid:
            fit = fit_joint_mode(data, Hyper(eta))  # the memoized grid fit
            alone = fit_joint_mode(Dataset(data.x.copy(), data.y.copy()), Hyper(eta))
            assert np.array_equal(fit.state.beta, alone.state.beta)
            assert np.array_equal(fit.state.active, alone.state.active)
            assert fit.iterations == alone.iterations

    def test_cached_products_are_read_only(self, rng):
        x, y = toeplitz_design(30, [1.0, 0.0, 2.0], 1.0, rng)
        data, _ = standardize(x, y)
        start = data.initial_beta.copy()
        fit_joint_mode(data, Hyper(0.0))
        fit_joint_mode(data, Hyper(-0.5))
        np.testing.assert_array_equal(data.initial_beta, start)
        np.testing.assert_array_equal(data.xtx, data.x.T @ data.x)
        assert data.yty == float(data.y @ data.y)
        for arr in (data.xtx, data.xty, data.initial_beta):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestFitMemo:
    """Fits are kept per dataset and handed out again for an equal key."""

    def test_same_key_returns_the_same_fit(self):
        data, _, _ = random_instance(3)
        fit = fit_joint_mode(data, Hyper(0.5))
        assert fit_joint_mode(data, Hyper(0.5), FitOptions()) is fit

    def test_other_options_or_mu_give_distinct_fits(self):
        data, _, _ = random_instance(3)
        fit = fit_joint_mode(data, Hyper(0.5))
        short = fit_joint_mode(data, Hyper(0.5), FitOptions(max_iter=2))
        other_mu = fit_joint_mode(data, Hyper(0.5, mu=1e-3))
        assert short is not fit and other_mu is not fit
        assert short.iterations == 2 < fit.iterations
        fresh = Dataset(data.x.copy(), data.y.copy())
        alone = fit_joint_mode(fresh, Hyper(0.5, mu=1e-3))
        assert np.array_equal(other_mu.state.beta, alone.state.beta)
        assert np.array_equal(other_mu.state.v_inv, alone.state.v_inv)

    def test_fresh_copies_do_not_share_fits(self):
        data, _, _ = random_instance(3)
        copy = Dataset(data.x.copy(), data.y.copy())
        assert fit_joint_mode(data, Hyper(0.0)) is not fit_joint_mode(copy, Hyper(0.0))

    # an interior fit, a pruned one, the empty model and the OLS boundary
    @pytest.mark.parametrize("seed, eta", [(6, 0.0), (0, 0.5), (0, 8.0), (6, -0.45)])
    def test_returned_arrays_reject_writes(self, seed, eta):
        data, _, _ = random_instance(seed)
        fit = fit_joint_mode(data, Hyper(eta))
        st = fit.state
        for arr in (st.beta, st.v_inv, st.active, fit.log_joint_trace,
                    fit.active_count_trace):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_failures_are_not_kept(self):
        data = Dataset(np.array([[1.0], [0.0], [0.0]]), np.array([2.0, 0.0, 0.0]))
        messages = []
        for _ in range(2):
            with pytest.raises(ExactFit) as info:
                fit_joint_mode(data, Hyper(0.0))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert data._memo == {}


# Each in-process fit entry point, a function inside its pin to probe, and
# the error the entry point raises on a constant response.
PINNED_ENTRIES = {
    "select_eta": (evidence_module, "laplace_log_evidence",
                   lambda d: select_eta(d, (0.0, 1.0)), NonFiniteEvidence),
    "fit_joint_mode": (solver_module, "_fit_joint_mode",
                       lambda d: fit_joint_mode(d, Hyper(0.5)), ExactFit),
    "fit_em": (em_module, "_cycle",
               lambda d: fit_em(d, Hyper(-1.0)), ExactFit),
}


class FakeBlasCopy:
    """A stand-in ``(set, get)`` thread control that records its calls."""

    def __init__(self, count):
        self.count, self.sets, self.gets = count, [], 0

    def set(self, count):
        self.sets.append(count)
        self.count = count

    def get(self):
        self.gets += 1
        return self.count


class TestOneBlasThread:
    """In-process fits run their BLAS on one thread and give the caller's
    count back afterwards, also when they raise."""

    @pytest.fixture
    def two_threads(self):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control resolves")
        before = [get() for _, get in controls]
        for set_threads, _ in controls:
            set_threads(2)
        yield lambda: [get() for _, get in controls]
        for (set_threads, _), count in zip(controls, before):
            set_threads(count)

    def fake_copies(self, monkeypatch, *counts):
        copies = [FakeBlasCopy(c) for c in counts]
        controls = tuple((c.set, c.get) for c in copies)
        monkeypatch.setattr(model_module, "_openblas_thread_controls",
                            lambda: controls)
        return copies

    @pytest.mark.parametrize("entry", PINNED_ENTRIES)
    def test_one_thread_inside_and_restored_after(self, monkeypatch, two_threads,
                                                  entry):
        module, inner, call, _ = PINNED_ENTRIES[entry]
        seen = []
        real = getattr(module, inner)

        def probe(*args, **kwargs):
            seen.append(two_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, inner, probe)
        data, _, _ = random_instance(3)   # a fresh dataset: every fit misses
        call(data)
        ones = [1] * len(two_threads())
        assert seen and all(counts == ones for counts in seen)
        assert two_threads() == [2] * len(ones)

    @pytest.mark.parametrize("entry", PINNED_ENTRIES)
    def test_restored_when_the_fit_raises(self, rng, two_threads, entry):
        _, _, call, error = PINNED_ENTRIES[entry]
        data, _ = standardize(rng.standard_normal((30, 3)), np.full(30, 2.5))
        with pytest.raises(error):
            call(data)
        assert two_threads() == [2] * len(two_threads())

    @pytest.mark.parametrize("entry", PINNED_ENTRIES)
    def test_copies_on_one_thread_are_never_set(self, monkeypatch, entry):
        # a forked pool worker inherits the count 1, and a set call there
        # would start an OpenBLAS thread pool
        copies = self.fake_copies(monkeypatch, 1, 1)
        data, _, _ = random_instance(3)
        PINNED_ENTRIES[entry][2](data)
        assert all(c.gets and not c.sets for c in copies)

    def test_only_the_copies_it_set_are_restored(self, monkeypatch):
        pinned, free = self.fake_copies(monkeypatch, 1, 3)
        with _one_blas_thread():
            with _one_blas_thread():
                assert (pinned.count, free.count) == (1, 1)
        assert pinned.sets == [] and free.sets == [1, 3]

    def test_a_module_that_does_not_load_is_skipped(self, monkeypatch):
        # numpy 1.x names its core module numpy.core, 2.x numpy._core
        monkeypatch.setattr(model_module, "_BLAS_LINKED_MODULES",
                            ("adaridge.no_such_module",) + model_module._BLAS_LINKED_MODULES)
        numpy_core, flapack = [lib._name for lib in model_module._blas_linked_libraries()]
        assert "_multiarray_umath" in numpy_core
        assert flapack == model_module._FLAPACK.__file__

    def test_scipys_copy_reads_one_inside(self):
        # scipy's copy found apart from _openblas_thread_controls: a copy the
        # pin lost would pass the tests above and leave potrf on 2 threads
        from scipy.linalg import _fblas

        lib = ctypes.CDLL(_fblas.__file__)
        names = [(f"{stem}_set_num_threads{tail}", f"{stem}_get_num_threads{tail}")
                 for stem in ("scipy_openblas", "openblas") for tail in ("64_", "")]
        found = [(getattr(lib, s), getattr(lib, g)) for s, g in names
                 if hasattr(lib, s) and hasattr(lib, g)]
        if not found:
            pytest.skip("scipy's OpenBLAS exposes no thread control")
        set_threads, get_threads = found[0]
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        before = get_threads()
        set_threads(2)
        try:
            with _one_blas_thread():
                inside = get_threads()
            after = get_threads()
        finally:
            set_threads(before)
        assert (inside, after) == (1, 2)

    def test_a_memo_hit_reads_no_count(self, monkeypatch):
        data, _, _ = random_instance(3)
        fit = fit_joint_mode(data, Hyper(0.5))
        copies = self.fake_copies(monkeypatch, 2)
        assert fit_joint_mode(data, Hyper(0.5)) is fit
        assert copies[0].gets == 0 and copies[0].sets == []


class TestReweightedRidge:
    def test_single_step_from_ols_orthonormal(self, rng):
        # one iteration from least squares on an orthonormal design is a
        # hand-computable ridge solve with penalty 1 + 2 eta
        data = orthonormal_data(rng, n=12, p=2)
        eta = 0.3
        ols = data.x.T @ data.y
        rss = float((data.y - data.x @ ols) @ (data.y - data.x @ ols))
        s2 = rss / (12 + 2 + 2)
        omega = np.sqrt(ols**2 / s2)
        xs = data.x * omega
        bstar = np.linalg.solve(xs.T @ xs + (1 + 2 * eta) * np.eye(2), xs.T @ data.y)
        expected = omega * bstar

        fit = fit_reweighted_ridge(data, Hyper(eta), FitOptions(max_iter=1))
        np.testing.assert_allclose(fit.state.beta, expected, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 2.0])
    def test_agrees_with_direct_path(self, eta):
        for seed in range(25):
            data, _, _ = random_instance(seed)
            opts = FitOptions(conv_tol=1e-12)
            direct = fit_joint_mode(data, Hyper(eta), opts)
            ridge = fit_reweighted_ridge(data, Hyper(eta), opts)
            assert (direct.state.active == ridge.state.active).all()
            np.testing.assert_allclose(direct.state.beta, ridge.state.beta,
                                       atol=1e-8)

    def test_pruning_decisions_match_on_sparse_design(self):
        for rep in range(20):
            rng = np.random.default_rng([91, rep])
            x, y = toeplitz_design(100, [3.0, 1.5, 0, 0, 2.0, 0, 0, 0], 3.0, rng)
            data, _ = standardize(x, y)
            a = fit_joint_mode(data, Hyper(0.0)).state.active
            b = fit_reweighted_ridge(data, Hyper(0.0)).state.active
            assert (a == b).all()

    def test_boundary_is_ols(self, rng):
        x, y = toeplitz_design(40, [1.0, 0.0], 1.0, rng)
        data, _ = standardize(x, y)
        fit = fit_reweighted_ridge(data, Hyper(-0.5))
        np.testing.assert_allclose(fit.state.beta, fit_ols(data), atol=1e-10)

    def test_below_boundary_raises(self, rng):
        x, y = toeplitz_design(40, [1.0, 0.0], 1.0, rng)
        data, _ = standardize(x, y)
        with pytest.raises(ValueError):
            fit_reweighted_ridge(data, Hyper(-0.75))


# The three least-squares boundaries: the joint mode at eta <= -1/2 and
# each EM variant at its flat-prior eta.
LEAST_SQUARES_BOUNDARIES = {
    "joint-mode": lambda d: fit_joint_mode(d, Hyper(-0.75)).state.beta,
    "independent-prior": lambda d: fit_em(d, Hyper(-1.5), variant="independent-prior").beta,
    "explicit-sigma": lambda d: fit_em(d, Hyper(-0.5), variant="explicit-sigma").beta,
}


@pytest.mark.parametrize("boundary", LEAST_SQUARES_BOUNDARIES)
class TestLeastSquaresBoundaries:
    def test_full_rank_gives_the_least_squares_coefficients(self, rng, boundary):
        x, y = toeplitz_design(40, [1.0, 0.0, 2.0], 1.0, rng)
        data, _ = standardize(x, y)
        assert np.array_equal(LEAST_SQUARES_BOUNDARIES[boundary](data), fit_ols(data))

    def test_p_above_n_raises_rank_deficient(self, boundary):
        data, _ = standardize(*wide_design())
        with pytest.raises(RankDeficient, match="rank 50 < p = 200"):
            LEAST_SQUARES_BOUNDARIES[boundary](data)

    def test_duplicated_column_raises_rank_deficient(self, rng, boundary):
        x, y = toeplitz_design(40, [1.0, 0.0, 2.0], 1.0, rng)
        data, _ = standardize(np.column_stack([x, x[:, 2]]), y)
        with pytest.raises(RankDeficient, match="rank 3 < p = 4"):
            LEAST_SQUARES_BOUNDARIES[boundary](data)


# Monte-Carlo selection is left out: it assigns its uniform draws to the
# coordinates in column order, so permuting the columns changes which
# precision each draw lands on, and with a few hundred draws the selected
# eta can change (11 of 60 instances of ``random_instance`` at 200 draws).
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), choose=st.data())
def test_permuting_columns_permutes_the_fit(seed, choose):
    """Every grid fit on permuted columns is the permuted fit, and Laplace
    selection picks the same eta."""

    plain, _, _ = random_instance(seed)
    perm = np.array(choose.draw(st.permutations(range(plain.p))))
    permuted, _ = standardize(plain.x[:, perm], plain.y)
    for eta in DEFAULT_ETA_GRID:
        a = fit_joint_mode(plain, Hyper(eta)).state
        b = fit_joint_mode(permuted, Hyper(eta)).state
        assert np.array_equal(b.active, a.active[perm])
        np.testing.assert_allclose(b.beta, a.beta[perm], rtol=1e-10, atol=0)
    assert (select_eta(permuted, method="laplace").best_eta
            == select_eta(plain, method="laplace").best_eta)


@settings(max_examples=60)
@given(n=st.integers(15, 120), p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       choose=st.data())
def test_rescaling_raw_columns_leaves_the_fit_unchanged(n, p, seed, choose):
    """Raw columns times positive factors ``exp(U(-5, 5))`` give every grid
    fit the same active set and the same destandardized predictions, and
    Laplace selection picks the same eta."""

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.where(rng.random(p) < 0.5, rng.uniform(1.0, 3.0, p), 0.0)
    y = x @ beta + rng.standard_normal(n)
    logs = choose.draw(st.lists(st.floats(-5, 5), min_size=p, max_size=p))
    scaled = x * np.exp(logs)
    plain, plain_std = standardize(x, y)
    other, other_std = standardize(scaled, y)
    for eta in DEFAULT_ETA_GRID:
        a = fit_joint_mode(plain, Hyper(eta)).state
        b = fit_joint_mode(other, Hyper(eta)).state
        assert np.array_equal(b.active, a.active)
        pa = x @ destandardize_beta(a.beta, plain_std)
        pb = scaled @ destandardize_beta(b.beta, other_std)
        assert np.linalg.norm(pb - pa) <= 1e-10 * np.linalg.norm(pa)
    assert (select_eta(other, method="laplace").best_eta
            == select_eta(plain, method="laplace").best_eta)


# The fits that go through ``solver._cycle``: the joint mode above its
# least-squares boundary and both EM variants above theirs.
CYCLE_FITS = (
    [lambda d, eta=eta: fit_joint_mode(d, Hyper(eta)) for eta in (-0.25, 0.0, 1.0, 4.0)]
    + [lambda d, eta=eta, v=v: fit_em(d, Hyper(eta), variant=v)
       for v, etas in (("independent-prior", (-1.0, 0.0)), ("explicit-sigma", (0.0, 1.0)))
       for eta in etas])


def cycle_outcomes(x, y, cycle=None):
    """Each fit of ``CYCLE_FITS`` on a fresh ``Dataset(x, y)``, so no memo
    carries over, with ``cycle`` standing in for ``solver._cycle`` unless
    it is None: ``(iterations, converged, active, beta)``, or the type of
    the error a fit raises."""

    with contextlib.ExitStack() as stack:
        if cycle is not None:
            for module in (solver_module, em_module):
                stack.enter_context(mock.patch.object(module, "_cycle", cycle))
        out = []
        for fit in CYCLE_FITS:
            try:
                f = fit(Dataset(x, y))
            except AdaRidgeError as exc:
                out.append(type(exc))
                continue
            state = getattr(f, "state", f)
            out.append((f.iterations, f.converged, state.active, state.beta))
        return out


@example(n=5, p=12, seed=0, noise=-6.0)
@given(n=st.integers(5, 60), p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       noise=st.floats(-6.0, 0.0))
def test_the_cycle_matches_the_explicit_residual_cycle(n, p, seed, noise):
    """Taking the residual sums from the Gram slices changes no iteration
    count, convergence flag, active set or error, and moves coefficients
    by at most 1e-10 of the largest one, on raw columns scaled by
    ``exp(U(-8, 8))``, about half the coefficients in ``[1, 3]`` and noise
    of scale ``10**noise``."""

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.where(rng.random(p) < 0.5, rng.uniform(1.0, 3.0, p), 0.0)
    y = x @ beta + 10.0**noise * rng.standard_normal(n)
    x *= np.exp(rng.uniform(-8.0, 8.0, p))
    for got, want in zip(cycle_outcomes(x, y),
                         cycle_outcomes(x, y, explicit_residual_cycle)):
        if isinstance(want, type):
            assert got is want
            continue
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
        assert np.abs(got[3] - want[3]).max() <= 1e-10 * np.abs(want[3]).max()


def test_near_interpolating_residual_sums_come_from_the_columns():
    # At p > n the ridged start nearly interpolates y, so the Gram form
    # would cancel to noise; every such residual sum is the explicit one,
    # as the explicit-residual cycle takes them.
    x, y = wide_design(0)
    data, _ = standardize(x, y)
    gathers = []
    real = solver_module._live_columns

    def counted(data, idx):
        gathers.append(idx.size)
        return real(data, idx)

    with mock.patch.object(solver_module, "_live_columns", counted):
        got = cycle_outcomes(data.x, data.y)
    assert gathers and max(gathers) >= data.n
    for a, b in zip(got, cycle_outcomes(data.x, data.y, explicit_residual_cycle)):
        assert a is b if isinstance(b, type) else (
            a[:2] == b[:2] and np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3]))
