import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from adaridge import (
    DEFAULT_K_SWEEP,
    Dataset,
    EVIDENCE_MU,
    FitOptions,
    Hyper,
    PosteriorState,
    fit_joint_mode,
    laplace_log_evidence,
    mc_log_evidence,
    select_eta,
    standardize,
)
from adaridge.errors import (
    EmptyBox,
    NonFiniteEvidence,
    NonInteriorMode,
    SingularSystem,
)
from adaridge.evidence import (
    EvidenceEstimate,
    _conditional_marginal_core,
)
from adaridge.model import FALLBACK_RIDGE, _ridge_solve
from adaridge.solver import (
    POLISH_CONV_TOL,
    POLISH_MAX_ITER,
    _derivatives,
    _newton_polish,
    _polished_mode,
)
from conftest import (
    fd_hessian,
    joint_cycle,
    live_view,
    log_joint_of_theta,
    near_collinear_design,
    random_instance,
    same_bits,
    toeplitz_design,
)
from oracles import assemble_hessian, conditional_marginal, log_joint_posterior


def interior_state(data, rng, eta=0.8):
    p = data.p
    beta = rng.standard_normal(p)
    sigma2 = float(rng.uniform(0.8, 2.5))
    v_inv = rng.uniform(0.3, 3.0, p)
    return PosteriorState(beta=beta, sigma2=sigma2, v_inv=v_inv,
                          active=np.ones(p, dtype=bool)), Hyper(eta, mu=0.01)


def hessian_blocks(state, data, h):
    """The negative Hessian blocks that the Newton step factors."""

    return _derivatives(state.beta, state.sigma2, state.v_inv, data.x, data.y,
                        data.xtx, h)[1]


def single_predictor_instance(seed, n=60, signal=4.0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = signal * x + noise * rng.standard_normal(n)
    return standardize(x[:, None], y)


class TestNegativeHessian:
    def test_matches_finite_differences(self):
        for seed in range(10):
            data, _, _ = random_instance(seed, n_range=(30, 60), p_range=(2, 4))
            rng = np.random.default_rng(seed)
            state, h = interior_state(data, rng)
            analytic = assemble_hessian(hessian_blocks(state, data, h))
            theta = np.concatenate([state.beta, [state.sigma2], state.v_inv])
            fd = -fd_hessian(log_joint_of_theta(data, h), theta)
            scale = np.max(np.abs(analytic))
            assert np.max(np.abs(fd - analytic)) / scale < 1e-5

    def test_zero_beta_kills_couplings(self, rng):
        data, _, _ = random_instance(4, p_range=(3, 3))
        state = PosteriorState(beta=np.zeros(3), sigma2=1.2,
                               v_inv=np.array([0.5, 1.0, 2.0]),
                               active=np.ones(3, dtype=bool))
        _, _, _, bv, _, sv = hessian_blocks(state, data, Hyper(0.4))
        np.testing.assert_array_equal(bv, 0.0)
        np.testing.assert_array_equal(sv, 0.0)

    def test_orthonormal_single_predictor_beta_block(self, rng):
        x = rng.standard_normal(25)
        x /= np.linalg.norm(x)
        data = Dataset(x[:, None], rng.standard_normal(25))
        state = PosteriorState(beta=np.array([0.7]), sigma2=2.0,
                               v_inv=np.array([1.5]),
                               active=np.array([True]))
        bb = hessian_blocks(state, data, Hyper(0.0))[0]
        assert bb[0, 0] == pytest.approx((1.0 + 1.5) / 2.0, rel=1e-12)

    def test_assembled_matrix_symmetric(self, rng):
        data, _, _ = random_instance(8, p_range=(3, 5))
        state, h = interior_state(data, rng)
        m = assemble_hessian(hessian_blocks(state, data, h))
        np.testing.assert_array_equal(m, m.T)


class TestLaplace:
    def test_empty_model_matches_sigma2_quadrature(self, rng):
        # pure noise, everything pruned: the evidence is the
        # one-dimensional integral of the likelihood at beta = 0 against
        # the Jeffreys prior on the variance
        x = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        data, _ = standardize(x, y)
        fit = fit_joint_mode(data, Hyper(8.0))
        assert not fit.state.active.any()
        est = laplace_log_evidence(fit, data, Hyper(8.0, mu=EVIDENCE_MU))

        yty = float(data.y @ data.y)
        n = data.n

        def ilog(s2):
            return (-(n / 2.0) * math.log(2 * math.pi * s2)
                    - yty / (2 * s2) - math.log(s2))

        mode = yty / (n + 2)
        shift = ilog(mode)
        val, _ = quad(lambda s2: math.exp(ilog(s2) - shift), mode / 50, mode * 50,
                      limit=300)
        oracle = shift + math.log(val)
        assert est.log_value == pytest.approx(oracle, abs=0.1)

    def test_deterministic(self):
        data, _, _ = random_instance(3)
        fit = fit_joint_mode(data, Hyper(0.5))
        h = Hyper(0.5, mu=EVIDENCE_MU)
        a = laplace_log_evidence(fit, data, h)
        b = laplace_log_evidence(fit, data, h)
        assert a.log_value == b.log_value

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_value_raises(self):
        # at mu = 1e300 the polished precision is 1.5e-300, so its curvature
        # (1/2 + eta) / v_inv^2, and with it the log determinant, overflow
        data = study_replication(0, 0)
        fit = fit_joint_mode(data, Hyper(0.0))
        with pytest.raises(NonFiniteEvidence, match="^laplace value -inf$"):
            laplace_log_evidence(fit, data, Hyper(1.0, mu=1e300))

    def test_estimate_tags(self):
        data, _, _ = random_instance(3)
        fit = fit_joint_mode(data, Hyper(0.5))
        est = laplace_log_evidence(fit, data, Hyper(0.5, mu=EVIDENCE_MU))
        assert est.method == "laplace"
        assert est.k is None and est.mc_se is None


class TestConditionalMarginal:
    def test_scalar_closed_form(self, rng):
        x = rng.standard_normal(30)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(30)
        data = Dataset(x[:, None], y)
        t = 1.7
        c = float(x @ y)
        yty = float(y @ y)
        s2 = yty - c**2 * t / (1.0 + t) * (1.0 / 1.0)  # x'x = 1
        # S^2 = y'y - (x'y)^2 / (1 + v_inv)
        s2 = yty - c**2 / (1.0 + t)
        expected = (math.lgamma(15.0) - 15.0 * math.log(math.pi)
                    - 15.0 * math.log(s2) + 0.5 * math.log(t)
                    - 0.5 * math.log(1.0 + t))
        assert conditional_marginal(data, [t]) == pytest.approx(expected, abs=1e-12)

    def test_matches_nested_quadrature(self):
        # integrate the likelihood against the coefficient prior and the
        # Jeffreys variance prior numerically on a one-predictor problem
        data, _ = single_predictor_instance(5, n=25, signal=2.0)
        v_inv = 0.8
        x = data.x[:, 0]
        y = data.y
        n = data.n

        def loglik_given_sigma(s2):
            # closed normal integral over beta at fixed sigma2
            a = float(x @ x) + v_inv
            c = float(x @ y)
            yty = float(y @ y)
            return (-(n / 2.0) * math.log(2 * math.pi * s2)
                    + 0.5 * math.log(v_inv) - 0.5 * math.log(a)
                    - (yty - c**2 / a) / (2 * s2))

        # reference point to stabilize the outer quadrature
        shift = loglik_given_sigma(1.0)

        def outer(s2):
            return math.exp(loglik_given_sigma(s2) - shift) / s2

        val, err = quad(outer, 1e-4, 200.0, limit=500)
        oracle = shift + math.log(val)
        assert conditional_marginal(data, [v_inv]) == pytest.approx(oracle, abs=1e-6)

    def test_infinite_precision_limit_is_null_model(self, rng):
        data, _ = single_predictor_instance(7)
        n = data.n
        yty = float(data.y @ data.y)
        null = math.lgamma(n / 2) - (n / 2) * math.log(math.pi) - (n / 2) * math.log(yty)
        # as the precision grows the predictor stops explaining anything;
        # the S^2 term tends to y'y (the remaining factors vanish jointly)
        big = conditional_marginal(data, [1e12])
        small = conditional_marginal(data, [1e2])
        assert abs(big - null) < abs(small - null)
        assert big == pytest.approx(null, abs=1e-3)


def reference_conditional_marginal(xtx, xty, yty, n, v):
    """The conditional log marginal by ``slogdet`` and a general solve."""

    a = xtx + np.diag(v)
    sign, logdet = np.linalg.slogdet(a)
    assert sign > 0
    s2 = yty - xty @ np.linalg.solve(a, xty)
    return (math.lgamma(n / 2.0) - (n / 2.0) * math.log(math.pi)
            - (n / 2.0) * math.log(s2) + 0.5 * np.sum(np.log(v)) - 0.5 * logdet)


def assert_core_matches_reference(data, v_batch):
    yty = float(data.y @ data.y)
    got = _conditional_marginal_core(data.xtx, data.xty, yty, data.n, v_batch)
    for value, v in zip(got, v_batch):
        ref = reference_conditional_marginal(data.xtx, data.xty, yty, data.n, v)
        assert value == pytest.approx(ref, rel=1e-12)


class TestConditionalMarginalCore:
    @pytest.mark.parametrize("p", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_slogdet_solve_reference(self, p, seed):
        data, _, _ = random_instance(seed, p_range=(p, p))
        rng = np.random.default_rng(100 + seed)
        assert_core_matches_reference(data, np.exp(rng.uniform(-4.0, 4.0, size=(50, p))))

    @pytest.mark.parametrize("seed", range(4))
    def test_near_interpolating_fit(self, seed):
        # the residual quadratic is 0.1-1% of y'y.  S^2 = y'y - w'w loses
        # about log10(y'y / S^2) digits in either form, so the 1e-12
        # agreement holds down to about this fit
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 5))
        y = x @ np.array([3.0, -2.0, 1.0, 0.5, 4.0]) + 0.3 * rng.standard_normal(60)
        data = Dataset(x, y)
        v_batch = np.exp(rng.uniform(-12.0, -6.0, size=(30, 5)))
        assert_core_matches_reference(data, v_batch)
        for v in v_batch:
            s2 = y @ y - data.xty @ np.linalg.solve(data.xtx + np.diag(v), data.xty)
            assert s2 < 1e-2 * (y @ y)

    def test_exact_fit_clamps_with_warning(self, rng):
        x = rng.standard_normal((20, 3))
        y = x @ np.array([1.0, 2.0, -1.0])
        data = Dataset(x, y)
        with pytest.warns(RuntimeWarning, match="clamped"):
            got = _conditional_marginal_core(data.xtx, data.xty, float(y @ y),
                                             data.n, np.full((2, 3), 1e-20))
        assert np.isfinite(got).all()

    def test_non_positive_definite_batch_raises(self, rng):
        data, _, _ = random_instance(2)
        v_batch = rng.uniform(0.5, 2.0, size=(4, data.p))
        v_batch[2, 0] = -10.0  # X'X has unit diagonal
        yty = float(data.y @ data.y)
        with pytest.raises(SingularSystem):
            _conditional_marginal_core(data.xtx, data.xty, yty, data.n, v_batch)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_failing_pivot_is_named(self, k):
        # positive precisions before coordinate k keep the first k - 1
        # pivots positive; -2 on X'X's unit diagonal makes the k-th negative
        data, _, _ = random_instance(5, p_range=(8, 8))
        v_batch = np.random.default_rng(k).uniform(0.5, 2.0, size=(6, 8))
        v_batch[4, k - 1] = -2.0
        yty = float(data.y @ data.y)
        with pytest.raises(SingularSystem, match=f"^{k}-th leading minor"):
            _conditional_marginal_core(data.xtx, data.xty, yty, data.n, v_batch)


@given(p=st.integers(1, 10), draws=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_core_matches_the_reference_on_generated_batches(p, draws, seed):
    """Unit-norm columns, precisions ``exp(U(-8, 8))``, and a response of
    sd 10 around a random fit, so that ``S^2`` stays a sizeable share of
    ``y'y`` (see ``test_near_interpolating_fit``) and every value far
    from 0."""

    rng = np.random.default_rng(seed)
    n = p + int(rng.integers(10, 60))
    x = rng.standard_normal((n, p))
    data, _ = standardize(x, x @ rng.standard_normal(p) + 10.0 * rng.standard_normal(n))
    assert_core_matches_reference(data, np.exp(rng.uniform(-8.0, 8.0, size=(draws, p))))


class TestMonteCarloEvidence:
    def test_deterministic_and_tagged(self):
        data, _ = single_predictor_instance(11)
        fit = fit_joint_mode(data, Hyper(0.5))
        h = Hyper(0.5, mu=EVIDENCE_MU)
        a = mc_log_evidence(fit, data, h, k=10.0, draws=500, seed=42)
        b = mc_log_evidence(fit, data, h, k=10.0, draws=500, seed=42)
        assert a.log_value == b.log_value and a.mc_se == b.mc_se
        assert a.method == "hypercube-mc" and a.k == 10.0 and a.mc_draws == 500

    def test_matches_box_quadrature_within_three_se(self):
        for seed in range(10):
            data, _ = single_predictor_instance(seed, n=60)
            eta = 0.5
            fit = fit_joint_mode(data, Hyper(eta))
            h = Hyper(eta, mu=EVIDENCE_MU)
            est = mc_log_evidence(fit, data, h, k=10.0, draws=2000, seed=seed)

            assert fit.state.active.all()
            _, _, v_inv, _, _ = _polished_mode(fit, data, h)
            sig = v_inv[0] / math.sqrt(0.5 + eta)
            lo, hi = max(0.0, v_inv[0] - 10 * sig), v_inv[0] + 10 * sig

            def ilog(t):
                return (conditional_marginal(data, [t]) + eta * math.log(t)
                        - h.mu * t - math.lgamma(eta + 1.0))

            shift = ilog(v_inv[0])
            val, _ = quad(lambda t: math.exp(ilog(t) - shift), lo, hi, limit=400)
            oracle = shift + math.log(val / (hi - lo))
            assert abs(est.log_value - oracle) <= 3.0 * est.mc_se

    def test_every_draw_finite(self):
        # echoes the propriety bound: a positive inverse scale keeps the
        # integrand finite at every sampled precision
        for seed in range(5):
            data, _, _ = random_instance(seed)
            fit = fit_joint_mode(data, Hyper(0.25))
            est = mc_log_evidence(fit, data, Hyper(0.25, mu=EVIDENCE_MU),
                                  k=1000.0, draws=500, seed=seed)
            assert math.isfinite(est.log_value)
            assert math.isfinite(est.mc_se)

    def test_empty_model_exact(self, rng):
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        data, _ = standardize(x, y)
        fit = fit_joint_mode(data, Hyper(8.0))
        assert not fit.state.active.any()
        est = mc_log_evidence(fit, data, Hyper(8.0, mu=EVIDENCE_MU), k=3.0,
                              draws=100, seed=0)
        n, yty = data.n, float(data.y @ data.y)
        expected = (math.lgamma(n / 2) - (n / 2) * math.log(math.pi)
                    - (n / 2) * math.log(yty))
        assert est.log_value == pytest.approx(expected, rel=1e-12)
        assert est.mc_se == 0.0

    def test_bad_box_rejected(self):
        data, _ = single_predictor_instance(3)
        fit = fit_joint_mode(data, Hyper(0.5))
        for k in (0.0, -1.0, math.inf, math.nan, None, "3"):
            with pytest.raises(ValueError, match="^k must be a finite number > 0"):
                mc_log_evidence(fit, data, Hyper(0.5, mu=EVIDENCE_MU), k=k,
                                draws=10, seed=0)
        # no finite curvature, so no box, at the least-squares boundary
        ols = fit_joint_mode(data, Hyper(-0.5))
        with pytest.raises(EmptyBox):
            mc_log_evidence(ols, data, Hyper(-0.5, mu=EVIDENCE_MU), k=10.0,
                            draws=10, seed=0)
        # a half-width k s below half an ulp of the centre rounds away
        with pytest.raises(EmptyBox, match="^degenerate box bounds$"):
            mc_log_evidence(fit, data, Hyper(0.5, mu=EVIDENCE_MU), k=1e-20,
                            draws=10, seed=0)

    @pytest.mark.parametrize("seed", [None, True, 2.5, -1, "3", [0, True, 10],
                                      [0, -1, 10]],
                             ids=["none", "bool", "float", "negative", "str",
                                  "bool-in-list", "negative-in-list"])
    @pytest.mark.parametrize("eta, live", [(0.5, True), (32.0, False)],
                             ids=["live", "empty"])
    def test_bad_seed_rejected(self, seed, eta, live):
        data, _ = single_predictor_instance(3)
        fit = fit_joint_mode(data, Hyper(eta))
        assert fit.state.active.any() == live
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            mc_log_evidence(fit, data, Hyper(eta, mu=EVIDENCE_MU), k=10.0,
                            draws=10, seed=seed)

    @pytest.mark.parametrize("k", [0.5, 1000.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_draws_are_generator_uniform(self, monkeypatch, seed, k):
        # k = 1000 puts the lower edge of every box at 0
        import adaridge.evidence as ev

        data = (single_predictor_instance(seed)[0] if seed == 0
                else random_instance(seed)[0])
        h = Hyper(0.5, mu=EVIDENCE_MU)
        fit = fit_joint_mode(data, Hyper(0.5))
        batches = []

        def captured(xtx, xty, yty, n, v_batch):
            batches.append(v_batch.copy())
            return _conditional_marginal_core(xtx, xty, yty, n, v_batch)

        monkeypatch.setattr(ev, "_conditional_marginal_core", captured)
        mc_log_evidence(fit, data, h, k=k, draws=300, seed=seed)
        _, _, v_inv, _, _ = _polished_mode(fit, data, h)
        sig = v_inv / math.sqrt(0.5 + h.eta)
        lo = np.maximum(0.0, v_inv - k * sig)
        assert (lo == 0).all() == (k == 1000.0)
        expected = np.random.default_rng(seed).uniform(lo, v_inv + k * sig,
                                                       (300, v_inv.size))
        assert len(batches) == 1
        assert np.array_equal(batches[0], expected)

    def test_draws_at_zero_precision_count_but_add_nothing(self, monkeypatch):
        # k = 1000 puts the box's lower edge at 0; a draw there has zero
        # prior density, so 50 such draws of 200 scale the box average of
        # the other 150 by 150 / 200.  At eta < 0 the prior kernel's
        # v^eta is infinite there, so such a draw must not be scored.
        import adaridge.evidence as ev

        data, _, _ = random_instance(3)
        h = Hyper(-0.25, mu=EVIDENCE_MU)
        fit = fit_joint_mode(data, Hyper(-0.25))
        real_rng = np.random.default_rng

        class Rows:
            def __init__(self, seed):
                self.r = real_rng(seed).random((200, fit.state.active.sum()))

        class FirstRowsAtZero(Rows):
            def random(self, shape):
                self.r[:50, 0] = 0.0
                return self.r

        class LastRows(Rows):
            def random(self, shape):
                return self.r[50:]

        monkeypatch.setattr(ev.np.random, "default_rng", LastRows)
        rest = mc_log_evidence(fit, data, h, k=1000.0, draws=150, seed=1)
        monkeypatch.setattr(ev.np.random, "default_rng", FirstRowsAtZero)
        zeroed = mc_log_evidence(fit, data, h, k=1000.0, draws=200, seed=1)
        assert zeroed.log_value == pytest.approx(rest.log_value + math.log(0.75),
                                                 rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_non_finite_integrand_raises(self, monkeypatch, bad):
        import adaridge.evidence as ev

        data, _, _ = random_instance(2)
        clean = select_eta(fresh_copy(data), method="mc", k=10.0, draws=50)
        poisoned_calls = [math.inf]

        def poisoned(xtx, xty, yty, n, v_batch):
            if poisoned_calls[0] > 0:
                poisoned_calls[0] -= 1
                return np.full(len(v_batch), bad)
            return _conditional_marginal_core(xtx, xty, yty, n, v_batch)

        monkeypatch.setattr(ev, "_conditional_marginal_core", poisoned)
        fit = fit_joint_mode(data, Hyper(0.5))
        with pytest.raises(NonFiniteEvidence, match="mc log integrand max"):
            mc_log_evidence(fit, data, Hyper(0.5, mu=EVIDENCE_MU), k=10.0,
                            draws=50, seed=0)
        # only the first grid point's draws are poisoned
        poisoned_calls[0] = 1
        sel = select_eta(fresh_copy(data), method="mc", k=10.0, draws=50)
        assert sel.estimates[0] is None
        assert sel.estimates[1:] == clean.estimates[1:]


class TestEvidenceEstimateInvariants:
    def test_mc_fields_required_together(self):
        with pytest.raises(ValueError):
            EvidenceEstimate(log_value=0.0, method="laplace", k=3.0,
                             mc_draws=10, mc_se=0.1)
        with pytest.raises(ValueError):
            EvidenceEstimate(log_value=0.0, method="hypercube-mc")
        with pytest.raises(ValueError):
            EvidenceEstimate(log_value=0.0, method="hypercube-mc", k=3.0,
                             mc_draws=10, mc_se=-0.1, log_box_volume=0.0)
        with pytest.raises(ValueError):
            EvidenceEstimate(log_value=0.0, method="hypercube-mc", k=3.0,
                             mc_draws=10, mc_se=0.1)


class TestSelectEta:
    def test_singleton_grid(self):
        data, _, _ = random_instance(6)
        sel = select_eta(data, [0.25])
        assert sel.best_eta == 0.25
        assert len(sel.estimates) == 1

    def test_tie_breaks_to_smaller_eta(self, monkeypatch):
        # every grid point scores the same evidence; the first (smallest)
        # value must win
        data, _, _ = random_instance(6)
        import adaridge.evidence as ev

        real = ev.laplace_log_evidence
        monkeypatch.setattr(ev, "laplace_log_evidence", lambda fit, d, h: (
            dataclasses.replace(real(fit, d, h), log_value=-1.0)))
        sel = ev.select_eta(data, [0.25, 0.5, 1.0])
        assert sel.best_eta == 0.25
        assert [est.log_value for est in sel.estimates] == [-1.0] * 3

    def test_failed_grid_point_skipped(self, monkeypatch):
        data, _, _ = random_instance(6)
        import adaridge.evidence as ev

        real = ev.laplace_log_evidence
        calls = {"n": 0}

        def flaky(fit, d, h):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NonFiniteEvidence("synthetic failure")
            return real(fit, d, h)

        monkeypatch.setattr(ev, "laplace_log_evidence", flaky)
        sel = ev.select_eta(data, [0.0, 0.5])
        assert sel.estimates[0] is None
        assert sel.best_eta == 0.5

    def test_all_points_failing_raises(self, monkeypatch):
        data, _, _ = random_instance(6)
        import adaridge.evidence as ev

        def broken(fit, d, h):
            raise NonFiniteEvidence("synthetic failure")

        monkeypatch.setattr(ev, "laplace_log_evidence", broken)
        with pytest.raises(NonFiniteEvidence) as info:
            ev.select_eta(data, [0.0, 0.5])
        message = str(info.value)
        for eta in ("eta=0:", "eta=0.5:"):
            assert f"{eta} NonFiniteEvidence: synthetic failure" in message

    @pytest.mark.parametrize("kwargs", [
        dict(method="mc", k=math.inf),
        dict(method="mc", k=math.nan),
        dict(method="mc", k=0.0),
        dict(method="mc", draws=0),
        dict(grid=(0.0, math.inf)),
        dict(grid=(-1.2, 0.0)),
        dict(method="mc", grid=(0.0, 0.0, 0.0, 1.0)),
        dict(method="mc", k="3"),
        dict(grid=(None,)),
        dict(grid=(0.0, "0.5")),
        dict(grid=None),
        dict(grid=0.5),
        dict(method="gibbs"),
    ], ids=["k-inf", "k-nan", "k-zero", "draws-zero", "grid-inf", "grid-below-minus-one",
            "grid-repeated", "k-str", "grid-none", "grid-str", "grid-not-a-sequence",
            "grid-a-number", "method"])
    def test_bad_arguments_rejected_before_any_fit(self, kwargs):
        data, _, _ = random_instance(6)
        with pytest.raises(ValueError):
            select_eta(data, **kwargs)
        assert data._memo == {}

    @pytest.mark.parametrize("noise", [1e-12, 1e-8])
    def test_near_collinear_design_selects(self, noise):
        # A near-duplicate column fails the start's pivot-ratio test, so the
        # fits start from the ridged solve and every grid point is scored;
        # from the least-squares start, of about 1e12, every grid fit fails
        # on 7 of these seeds at noise 1e-12 and on 2 at 1e-8.
        for seed in range(20):
            data, _ = standardize(*near_collinear_design(seed, noise))
            assert same_bits(data.initial_beta,
                             _ridge_solve(data.xtx, FALLBACK_RIDGE, data.xty))
            assert None not in select_eta(data).estimates

    def test_sparse_design_recovers_signal(self):
        hits = 0
        for rep in range(20):
            rng = np.random.default_rng([101, rep])
            x, y = toeplitz_design(100, [5.0, 0, 0, 0, 0, 0, 0, 0], 3.0, rng)
            data, _ = standardize(x, y)
            sel = select_eta(data)
            act = sel.refit.state.active
            if act[0] and not act[1:].any():
                hits += 1
        assert hits >= 15


def fresh_copy(data):
    return Dataset(data.x.copy(), data.y.copy())


class TestEvidenceMemo:
    """Polished modes are kept per dataset, so rescoring a grid costs no
    refit and no re-polish, and gives what a fresh dataset gives."""

    def small_study_data(self):
        from adaridge.simulate import DgpSpec, draw_dataset

        raw, _ = draw_dataset(DgpSpec(3, 20, 3.0, seed=11))
        return standardize(raw.x, raw.y)[0]

    def test_mc_k_sweep_equals_fresh_copies(self):
        data = self.small_study_data()
        previous = None
        for kk in (3, 10, 100, 1000):
            sel = select_eta(data, method="mc", k=kk, draws=200, seed=4)
            alone = select_eta(fresh_copy(data), method="mc", k=kk, draws=200,
                               seed=4)
            assert sel.estimates == alone.estimates
            assert sel.best_eta == alone.best_eta
            for name in ("beta", "v_inv", "active"):
                assert np.array_equal(getattr(sel.refit.state, name),
                                      getattr(alone.refit.state, name))
            assert sel.refit.state.sigma2 == alone.refit.state.sigma2
            # the memo hands back the fits each earlier sweep made
            fits = [fit_joint_mode(data, Hyper(eta)) for eta in sel.grid]
            if previous is not None:
                assert all(a is b for a, b in zip(fits, previous))
            previous = fits

    def test_k_sweep_polishes_each_point_once(self, monkeypatch):
        import adaridge.evidence as ev
        import adaridge.solver as solver

        # each polish starts with a call of the solver's _newton_polish
        real = solver._newton_polish
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_newton_polish", counted)
        data = self.small_study_data()
        ev.select_eta(data, method="mc", k=3.0, draws=50)
        first = len(calls)
        assert first > 0
        for kk in (10.0, 100.0, 1000.0):
            ev.select_eta(data, method="mc", k=kk, draws=50)
        ev.select_eta(data, method="laplace")
        assert len(calls) == first

    def test_sweep_equals_one_select_eta_per_width(self, monkeypatch):
        import adaridge.evidence as ev

        # eta -0.6 fails in its Monte-Carlo box (no finite curvature below
        # eta -1/2) and eta 0.5 in its fit, each at every width
        real = ev.fit_joint_mode

        def fit_failing_at_half(data, h, opts):
            if h.eta == 0.5:
                raise SingularSystem("synthetic failure")
            return real(data, h, opts)

        monkeypatch.setattr(ev, "fit_joint_mode", fit_failing_at_half)
        data = self.small_study_data()
        grid, ks = (-0.6, 0.0, 0.5, 2.0, 8.0), (3.0, 10.0, 100.0, 1000.0)
        sels, top = ev._select_sweep(data, grid, "mc", FitOptions(), ks, 200, 4)
        assert len(sels) == len(ks)
        best = None
        for w, (kk, sel) in enumerate(zip(ks, sels)):
            alone = select_eta(fresh_copy(data), grid, "mc", k=kk, draws=200, seed=4)
            assert sel.grid == alone.grid == grid
            assert sel.estimates == alone.estimates
            assert sel.estimates[0] is None and sel.estimates[2] is None
            assert sel.best_eta == alone.best_eta
            for name in ("beta", "v_inv", "active"):
                assert same_bits(getattr(sel.refit.state, name),
                                 getattr(alone.refit.state, name))
            assert sel.refit.state.sigma2.hex() == alone.refit.state.sigma2.hex()
            # the winner's box integral; a width must beat the best by 1e-12
            est = sel.estimates[grid.index(sel.best_eta)]
            total = est.log_value + est.log_box_volume
            if best is None or total > best[1] + 1e-12:
                best = w, total
        assert top == best[0]

        # both points alone fail every width, with the errors select_eta names
        with pytest.raises(NonFiniteEvidence) as swept:
            ev._select_sweep(data, (-0.6, 0.5), "mc", FitOptions(), ks, 200, 4)
        with pytest.raises(NonFiniteEvidence) as alone:
            select_eta(fresh_copy(data), (-0.6, 0.5), "mc", k=ks[0], draws=200, seed=4)
        assert str(swept.value) == str(alone.value)
        assert "eta=-0.6: EmptyBox: " in str(swept.value)
        assert "eta=0.5: SingularSystem: synthetic failure" in str(swept.value)

    def test_laplace_on_a_memo_hit_equals_a_fresh_copy(self):
        data, _, _ = random_instance(8)
        h = Hyper(0.5, mu=EVIDENCE_MU)
        fit = fit_joint_mode(data, Hyper(0.5))
        first = laplace_log_evidence(fit, data, h)
        again = laplace_log_evidence(fit, data, h)
        fresh = fresh_copy(data)
        alone = laplace_log_evidence(fit_joint_mode(fresh, Hyper(0.5)), fresh, h)
        assert first == again == alone

    def test_other_mu_is_polished_separately(self):
        data, _, _ = random_instance(8)
        fit = fit_joint_mode(data, Hyper(0.5))
        a = laplace_log_evidence(fit, data, Hyper(0.5, mu=EVIDENCE_MU))
        b = laplace_log_evidence(fit, data, Hyper(0.5, mu=1e-3))
        fresh = fresh_copy(data)
        alone = laplace_log_evidence(fit_joint_mode(fresh, Hyper(0.5)), fresh,
                                     Hyper(0.5, mu=1e-3))
        assert a != b
        assert b == alone


class TestPolish:
    """The evidence mode is the fit's mode re-polished on the surviving
    coordinates under the evidence hyper-parameters, without pruning."""

    def test_small_mu_keeps_every_surviving_coordinate(self):
        # After one iteration at eta = 32 the null coordinates are still
        # live; polishing under mu = 1e-12 drives their prior-variance
        # modes far below the fit's prune_tol, and they must stay.
        data, _, _ = random_instance(4)
        fit = fit_joint_mode(data, Hyper(32.0), FitOptions(max_iter=1))
        count = int(fit.state.active.sum())
        beta, sigma2, v_inv, _, _ = _polished_mode(
            fit, data, Hyper(32.0, mu=1e-12))
        assert len(beta) == len(v_inv) == count
        assert np.isfinite(v_inv).all() and sigma2 > 0
        assert (1.0 / v_inv < FitOptions().prune_tol).any()

    def test_polish_keeps_no_trace(self, monkeypatch):
        import adaridge.evidence as ev

        data, _, _ = random_instance(8)
        fit = fit_joint_mode(data, Hyper(0.5))
        real = ev._log_joint_density
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ev, "_log_joint_density", counted)
        h = Hyper(0.5, mu=EVIDENCE_MU)
        laplace_log_evidence(fit, data, h)
        mc_log_evidence(fit, data, Hyper(0.5, mu=1e-3), k=10.0, draws=50)
        # the one evaluation is the Laplace value's own density at the mode
        assert len(calls) == 1

    def test_laplace_log_joint_is_the_density_at_the_polished_mode(self):
        # Laplace takes ``quad`` from the polish's last derivative
        # evaluation: it must be that of the point the polish returns, so
        # the value equals the reference density there to the bit.  In the
        # last case Newton starts from the end of the cycle's warm start.
        cases = [(random_instance(seed)[0], eta)
                 for seed in range(6) for eta in (0.0, 0.5, 2.0)]
        cases.append((wide_instance(24), -0.45))
        checked = 0
        for data, eta in cases:
            fit = fit_joint_mode(data, Hyper(eta))
            if not fit.state.active.any():
                continue
            h = Hyper(eta, mu=EVIDENCE_MU)
            est = laplace_log_evidence(fit, data, h)
            beta, sigma2, v_inv, logdet, _ = _polished_mode(fit, data, h)
            state = PosteriorState(beta=beta, sigma2=sigma2, v_inv=v_inv,
                                   active=np.ones(len(beta), dtype=bool))
            reduced = live_view(data, np.flatnonzero(fit.state.active))
            expected = (log_joint_posterior(state, reduced, h)
                        + (2 * len(beta) + 1) / 2.0 * math.log(2.0 * math.pi)
                        - 0.5 * logdet)
            assert est.log_value == expected
            checked += 1
        assert checked > 12

    # On these fits the noise variance of the polish's last iteration and
    # the mode at its final coefficients differ by more than 1e-12.
    @pytest.mark.parametrize("seed, eta", [(2, 8.0), (31, 8.0), (11, 8.0)])
    def test_polished_sigma2_is_the_conditional_mode(self, seed, eta):
        data, _, _ = random_instance(seed)
        fit = fit_joint_mode(data, Hyper(eta))
        beta, sigma2, v_inv, _, _ = _polished_mode(
            fit, data, Hyper(eta, mu=EVIDENCE_MU))
        reduced = live_view(data, np.flatnonzero(fit.state.active))
        r = reduced.y - reduced.x @ beta
        quad = float(r @ r + beta @ (v_inv * beta))
        assert sigma2 == pytest.approx(quad / (reduced.n + reduced.p + 2),
                                       rel=1e-14)


def study_replication(master_seed, rep, design=3, n=100):
    """The standardized training data of one study replication."""

    from adaridge.experiment import _derive_seed
    from adaridge.simulate import DgpSpec, draw_dataset

    raw, _ = draw_dataset(DgpSpec(design, n, 3.0, seed=_derive_seed(master_seed, rep)))
    return standardize(raw.x, raw.y)[0]


def wide_instance(input_id, n=800, p=200, nonzero=10):
    """n=800, p=200 with 10 nonzero coefficients of size U(0.5, 2) and
    random signs, noise sd 1, rows iid N(0, I)."""

    rng = np.random.default_rng([input_id, 31])
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    where = rng.choice(p, nonzero, replace=False)
    beta[where] = rng.choice([-1.0, 1.0], nonzero) * rng.uniform(0.5, 2.0, nonzero)
    return standardize(x, x @ beta + rng.standard_normal(n))[0]


def polish_inputs(fit, data):
    """The fit's live coordinates, the view of ``data`` on them, and the
    fit's point there: where :func:`_polished_mode` starts its polish."""

    state = fit.state
    idx = np.flatnonzero(state.active)
    return (idx, live_view(data, idx), state.beta[idx], state.sigma2,
            state.v_inv[idx])


def relative_gradient(reduced, h, beta, sigma2, v_inv):
    """The gradient of the log joint density, each block relative to the
    size of its terms."""

    n, p = reduced.n, reduced.p
    r = reduced.y - reduced.x @ beta
    quad = float(r @ r + beta @ (v_inv * beta))
    g_beta = (reduced.x.T @ r - v_inv * beta) / sigma2
    g_sigma2 = -((n + p) / 2.0 + 1.0) / sigma2 + quad / (2.0 * sigma2**2)
    g_v = (h.eta + 0.5) / v_inv - h.mu - beta**2 / (2.0 * sigma2)
    return (np.max(np.abs(g_beta)) * sigma2 / np.max(np.abs(reduced.xty)),
            abs(g_sigma2) * sigma2 / ((n + p) / 2.0 + 1.0),
            np.max(np.abs(g_v) * v_inv / (h.eta + 0.5)))


class TestNewtonPolish:
    """The evidence mode is found by Newton steps on the exact Hessian;
    the conditional-update cycle only warms Newton up."""

    CASES = [(seed, eta) for seed in range(12) for eta in (-0.25, 0.0, 0.5, 2.0, 8.0)]

    def test_gradient_vanishes_at_the_polished_mode(self):
        checked = 0
        for seed, eta in self.CASES:
            data, _, _ = random_instance(seed)
            fit = fit_joint_mode(data, Hyper(eta))
            if not fit.state.active.any():
                continue
            h = Hyper(eta, mu=EVIDENCE_MU)
            beta, sigma2, v_inv, _, _ = _polished_mode(fit, data, h)
            reduced = polish_inputs(fit, data)[1]
            assert max(relative_gradient(reduced, h, beta, sigma2, v_inv)) < 1e-13
            checked += 1
        assert checked > 40

    def test_matches_a_converged_cycle(self):
        # The cycle's v_inv trails its beta by one iteration, and its
        # stopping rule bounds |d beta| by 1e-13 (1 + |beta|), so a
        # precision (proportional to 1/beta^2) keeps up to about
        # 2e-13 (1 + |beta|) / |beta| of relative error: hence 1e-11 there.
        checked = 0
        for seed, eta in self.CASES:
            data, _, _ = random_instance(seed)
            fit = fit_joint_mode(data, Hyper(eta))
            if not fit.state.active.any():
                continue
            h = Hyper(eta, mu=EVIDENCE_MU)
            beta, sigma2, v_inv, _, _ = _polished_mode(fit, data, h)
            idx, _, beta0, _, _ = polish_inputs(fit, data)
            _, c_beta, _, c_v_inv, c_sigma2, _, converged = joint_cycle(
                data, h, idx, beta0, 10_000, 1e-13, 0.0)
            assert converged
            np.testing.assert_allclose(beta, c_beta, rtol=1e-12, atol=0)
            assert sigma2 == pytest.approx(c_sigma2, rel=1e-12, abs=0)
            np.testing.assert_allclose(v_inv, c_v_inv, rtol=1e-11, atol=0)
            checked += 1
        assert checked > 40

    def test_laplace_log_determinant_is_the_dense_one(self):
        # the Schur-complement log determinant against slogdet of the
        # assembled (2p+1)-square negative Hessian at the polished mode.
        # On the two study replications the first Newton step already
        # meets the stopping rule, so a factor taken before that step
        # would be off by about 4e-11 relative.
        cases = [(random_instance(seed)[0], eta) for seed, eta in self.CASES]
        cases += [(study_replication(13, 0), 1.0), (study_replication(97, 12), 2.0)]
        checked = 0
        for data, eta in cases:
            fit = fit_joint_mode(data, Hyper(eta))
            if not fit.state.active.any():
                continue
            h = Hyper(eta, mu=EVIDENCE_MU)
            est = laplace_log_evidence(fit, data, h)
            beta, sigma2, v_inv, _, _ = _polished_mode(fit, data, h)
            state = PosteriorState(beta=beta, sigma2=sigma2, v_inv=v_inv,
                                   active=np.ones(len(beta), dtype=bool))
            reduced = polish_inputs(fit, data)[1]
            sign, logdet = np.linalg.slogdet(
                assemble_hessian(hessian_blocks(state, reduced, h)))
            assert sign > 0
            dense = (log_joint_posterior(state, reduced, h)
                     + (2 * len(beta) + 1) / 2.0 * math.log(2.0 * math.pi)
                     - 0.5 * logdet)
            assert est.log_value == pytest.approx(dense, rel=1e-12, abs=0)
            checked += 1
        assert checked > 40

    # Design 3, n=100: the fit itself stopped unconverged with one live
    # coordinate.  Newton fails from its point, the cycle stops at its cap,
    # and Newton fails again from there, so the mode is never reached.
    @pytest.mark.parametrize("master_seed, rep", [(83, 6), (95, 5)])
    def test_unreachable_mode_fails_its_grid_point(self, master_seed, rep):
        data = study_replication(master_seed, rep)
        fit = fit_joint_mode(data, Hyper(16.0))
        assert not fit.converged and fit.state.active.sum() == 1
        h = Hyper(16.0, mu=EVIDENCE_MU)
        idx, reduced, beta0, sigma20, v_inv0 = polish_inputs(fit, data)
        assert _newton_polish(reduced.x, reduced.y, reduced.xtx, h, beta0,
                              sigma20, v_inv0) is None
        assert not joint_cycle(data, h, idx, beta0, POLISH_MAX_ITER,
                               POLISH_CONV_TOL, 0.0)[6]
        with pytest.raises(NonInteriorMode):
            _polished_mode(fit, data, h)
        with pytest.raises(NonInteriorMode):
            laplace_log_evidence(fit, data, h)
        with pytest.raises(NonInteriorMode):
            mc_log_evidence(fit, data, h, k=1000.0, draws=50)
        # The failed point is recorded as such, and the selection is the
        # one it was when this point was scored off the mode.
        sel = select_eta(data)
        gi = sel.grid.index(16.0)
        assert sel.estimates[gi] is None
        assert sel.best_eta == -0.25
        # and says why, at that point only
        assert sel.errors[gi] == ("NonInteriorMode: Newton finds no joint mode "
                                  "from the fit or from the cycle")
        assert [err is None for err in sel.errors] == [
            est is not None for est in sel.estimates]

    def test_failed_polish_is_kept(self, monkeypatch):
        import adaridge.solver as solver

        real = solver._cycle
        warm_starts = []

        def counted(*args):
            # the polish's warm start is the one cycle that never prunes
            if args[-1] == 0.0:
                warm_starts.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "_cycle", counted)
        data = study_replication(83, 6)
        fit = fit_joint_mode(data, Hyper(16.0))
        h = Hyper(16.0, mu=EVIDENCE_MU)
        messages = []
        for kk in DEFAULT_K_SWEEP:
            sel = select_eta(data, method="mc", k=kk, draws=50)
            assert sel.estimates[sel.grid.index(16.0)] is None
            with pytest.raises(NonInteriorMode) as err:
                mc_log_evidence(fit, data, h, k=kk, draws=50)
            messages.append(str(err.value))
        assert len(warm_starts) == 1
        assert len(set(messages)) == 1

    def test_converges_where_the_cycle_is_capped(self):
        data = study_replication(1, 3)
        fit = fit_joint_mode(data, Hyper(16.0))
        h = Hyper(16.0, mu=EVIDENCE_MU)
        idx, reduced, beta0, sigma20, v_inv0 = polish_inputs(fit, data)
        assert not joint_cycle(data, h, idx, beta0, POLISH_MAX_ITER,
                               POLISH_CONV_TOL, 0.0)[6]
        polished = _newton_polish(reduced.x, reduced.y, reduced.xtx, h, beta0,
                                  sigma20, v_inv0)
        assert polished is not None
        assert max(relative_gradient(reduced, h, *polished[:3])) < 1e-13

    def test_damped_steps_converge_on_a_wide_unconverged_fit(self):
        # 113 live coordinates after 500 iterations; the first full Newton
        # step lands where the negative Hessian is indefinite, so it must
        # be halved
        data = wide_instance(40)
        fit = fit_joint_mode(data, Hyper(-0.45))
        assert not fit.converged and fit.state.active.sum() == 113
        h = Hyper(-0.45, mu=EVIDENCE_MU)
        _, reduced, beta0, sigma20, v_inv0 = polish_inputs(fit, data)
        polished = _newton_polish(reduced.x, reduced.y, reduced.xtx, h, beta0,
                                  sigma20, v_inv0)
        assert polished is not None
        assert max(relative_gradient(reduced, h, *polished[:3])) < 1e-12

    def test_indefinite_start_falls_back(self):
        # 129 live coordinates after 500 iterations, some still on their
        # way to pruning: the negative Hessian at the fit's point is
        # indefinite, so Newton cannot start; the cycle converges, and
        # Newton from its end point reaches the mode
        data = wide_instance(24)
        fit = fit_joint_mode(data, Hyper(-0.45))
        assert not fit.converged and fit.state.active.sum() == 129
        h = Hyper(-0.45, mu=EVIDENCE_MU)
        idx, reduced, beta0, sigma20, v_inv0 = polish_inputs(fit, data)
        assert _newton_polish(reduced.x, reduced.y, reduced.xtx, h, beta0,
                              sigma20, v_inv0) is None
        assert joint_cycle(data, h, idx, beta0, POLISH_MAX_ITER, POLISH_CONV_TOL,
                           0.0)[6]
        beta, sigma2, v_inv, _, _ = _polished_mode(fit, data, h)
        assert max(relative_gradient(reduced, h, beta, sigma2, v_inv)) < 1e-13
        est = laplace_log_evidence(fit, data, h)
        assert math.isfinite(est.log_value)

    def test_a_step_no_halving_places_fails_the_point(self, monkeypatch):
        # a step whose precision part leaves v_inv <= 0 even at its last
        # halving (t = 2^-39) is never taken, and the polish gives up
        import adaridge.solver as solver

        data, _, _ = random_instance(0)
        state, h = interior_state(data, np.random.default_rng(0))
        calls = []

        def outward(*args):
            calls.append(args)
            return np.zeros(data.p), 0.0, np.full(data.p, -1e300), 0.0, 0.0

        monkeypatch.setattr(solver, "_newton_step", outward)
        assert _newton_polish(data.x, data.y, data.xtx, h, state.beta,
                              state.sigma2, state.v_inv) is None
        assert len(calls) == 1


class TestTraceOnDemand:
    def test_no_density_until_the_trace_is_read(self, monkeypatch):
        import adaridge.model as model

        real = model._log_joint_density
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(model, "_log_joint_density", counted)
        data, _, _ = random_instance(5)
        fits = [fit_joint_mode(data, Hyper(eta)) for eta in (0.0, 0.5, 8.0)]
        select_eta(data, method="mc", draws=50)
        assert calls == []
        trace = fits[1].log_joint_trace
        assert len(calls) == len(trace) == fits[1].iterations
        assert fits[1].log_joint_trace is trace
        assert len(calls) == len(trace)


def box_log_integrand(red, h, v, prior_scale):
    """``log p(y | v) + log prior kernel`` at each row of ``v``, by
    ``slogdet`` and a general solve rather than by the code under test;
    with ``prior_scale`` the prior's ``mu^(eta+1)`` factors are included."""

    n, p = red.n, red.p
    a = red.xtx + v[:, :, None] * np.eye(p)
    sign, logdet = np.linalg.slogdet(a)
    assert (sign > 0).all()
    rhs = np.broadcast_to(red.xty, v.shape)[..., None]
    s2 = float(red.y @ red.y) - np.einsum(
        "j,mj->m", red.xty, np.linalg.solve(a, rhs)[..., 0])
    out = (math.lgamma(n / 2.0) - (n / 2.0) * math.log(math.pi)
           - (n / 2.0) * np.log(s2) + 0.5 * np.log(v).sum(axis=1)
           - 0.5 * logdet
           + (h.eta * np.log(v) - h.mu * v).sum(axis=1)
           - p * math.lgamma(h.eta + 1.0))
    if prior_scale:
        out += p * (h.eta + 1.0) * math.log(h.mu)
    return out


def box_log_integral(red, h, lo, hi, nodes, prior_scale=False):
    """``log`` of the integral over the box ``[lo, hi]`` by a tensor
    Gauss-Legendre rule with ``nodes`` nodes per axis."""

    x, w = np.polynomial.legendre.leggauss(nodes)
    t = [a + (b - a) * (x + 1.0) / 2.0 for a, b in zip(lo, hi)]
    tw = [w * (b - a) / 2.0 for a, b in zip(lo, hi)]
    v = np.column_stack([g.ravel() for g in np.meshgrid(*t, indexing="ij")])
    f = (box_log_integrand(red, h, v, prior_scale)
         + np.log(functools.reduce(np.multiply.outer, tw)).ravel())
    top = f.max()
    return top + math.log(np.exp(f - top).sum())


def check_mc_box(data, eta, k, seed, nodes, converged):
    """The MC box average and box integral of the fit at ``eta`` agree with
    the tensor rule within 3 standard errors; the rule at ``nodes[0]`` per
    axis is within ``converged`` of the rule at ``nodes[1]``."""

    fit = fit_joint_mode(data, Hyper(eta))
    assert fit.state.active.all()
    h = Hyper(eta, mu=EVIDENCE_MU)
    _, _, center, _, _ = _polished_mode(fit, data, h)
    sig = center / math.sqrt(0.5 + eta)
    lo, hi = np.maximum(0.0, center - k * sig), center + k * sig
    integral = box_log_integral(data, h, lo, hi, nodes[0])
    assert integral == pytest.approx(box_log_integral(data, h, lo, hi, nodes[1]),
                                     abs=converged)
    log_volume = float(np.sum(np.log(hi - lo)))

    avg = mc_log_evidence(fit, data, h, k=k, draws=2000, seed=seed)
    assert abs(avg.log_value - (integral - log_volume)) <= 3.0 * avg.mc_se
    assert avg.log_box_volume == pytest.approx(log_volume, rel=1e-12)
    tot = avg.log_value + avg.log_box_volume
    assert abs(tot - integral) <= 3.0 * avg.mc_se


# The Laplace error is mostly that of the gamma-shaped precision
# directions: about 0.11 per coordinate at eta 0.5 and 0.06 at eta 2
# (-0.216 and -0.121 at p = 2, -0.34 and -0.20 at p = 3), so the bound is
# 0.125 per coordinate.
def check_laplace(data, eta, nodes):
    """The Laplace evidence of the fit at ``eta`` is within 0.125 per
    coordinate of the tensor rule at ``nodes`` per axis, over a box that
    reaches from 0 to 40 standard deviations above the modal precisions."""

    fit = fit_joint_mode(data, Hyper(eta))
    assert fit.state.active.all()
    h = Hyper(eta, mu=EVIDENCE_MU)
    est = laplace_log_evidence(fit, data, h)
    _, _, center, _, _ = _polished_mode(fit, data, h)
    hi = center + 40.0 * center / math.sqrt(0.5 + eta)
    integral = box_log_integral(data, h, np.full(data.p, 1e-12), hi, nodes,
                                prior_scale=True)
    assert abs(est.log_value - integral) <= data.p * 0.125


def basin_log_integrals(data, eta):
    """``(laplace, first, second)`` for the one-coordinate fit at ``eta``:
    its Laplace evidence and the log integrals of the evidence integrand
    over the fit's basin and over the rest.

    The integral runs over ``t = log v_inv``, with ``+t`` for the Jacobian,
    of ``conditional_marginal`` plus the gamma prior with its
    ``mu^(eta + 1)`` factor.  It is split at the integrand's minimum between
    the polished modal precision and ``(eta + 1) / EVIDENCE_MU``, where the
    prior alone peaks in ``t``; each piece reaches far enough that its
    integrand has fallen by more than e^-60 at the open end."""

    fit = fit_joint_mode(data, Hyper(eta))
    assert fit.state.active.all()
    h = Hyper(eta, mu=EVIDENCE_MU)
    laplace = laplace_log_evidence(fit, data, h).log_value
    center = _polished_mode(fit, data, h)[2][0]

    def ilog(t):
        v = math.exp(t)
        return (conditional_marginal(data, [v]) + (eta + 1.0) * t - h.mu * v
                + (eta + 1.0) * math.log(h.mu) - math.lgamma(eta + 1.0))

    def log_integral(lo, hi, peak):
        shift = ilog(peak)
        val, _ = quad(lambda t: math.exp(ilog(t) - shift), lo, hi,
                      points=[peak] if lo < peak < hi else None, limit=400)
        return shift + math.log(val)

    a, b = math.log(center), math.log((eta + 1.0) / h.mu)
    split = minimize_scalar(ilog, bounds=(a, b), method="bounded",
                            options={"xatol": 1e-6}).x
    # below the fit's mode the integrand falls like exp((eta + 1.5) t), and
    # past the prior's peak like exp(-(eta + 1) e^(t - b))
    first = log_integral(a - 60.0 / (eta + 1.5), split, a)
    second = log_integral(split, b + 5.0, max(b, split))
    return laplace, first, second


class TestEvidenceAtP2:
    """Both evidence methods against a tensor Gauss-Legendre integral over
    the two precisions."""

    @staticmethod
    def instance(seed, n):
        # two strong signals on correlated (rho = 0.5) columns
        rng = np.random.default_rng([720, seed])
        z = rng.standard_normal((n, 2))
        x = np.column_stack([z[:, 0], 0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1]])
        y = x @ np.array([3.0, 2.0]) + rng.standard_normal(n)
        return standardize(x, y)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_mc_box_average_and_integral(self, seed):
        # the rule has converged: doubling the nodes moves it by < 1e-10
        check_mc_box(self.instance(seed, n=60), (0.5, 2.0)[seed % 2], 10.0,
                     seed, (128, 256), 1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_laplace_within_stated_bound(self, seed):
        check_laplace(self.instance(seed, n=400), (0.5, 2.0)[seed % 2], 256)


class TestEvidenceAtP3:
    """As :class:`TestEvidenceAtP2` over three precisions, with fewer nodes
    per axis (the rule's cost is their cube)."""

    @staticmethod
    def instance(seed, n):
        # three strong signals on Toeplitz (rho = 0.5) columns
        rng = np.random.default_rng([730, seed])
        x, y = toeplitz_design(n, [3.0, 2.0, 2.5], 1.0, rng)
        return standardize(x, y)[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_mc_box_average_and_integral(self, seed):
        # 48 and 64 nodes agree to about 3e-9
        check_mc_box(self.instance(seed, n=60), (0.5, 2.0)[seed % 2], 10.0,
                     seed, (48, 64), 1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_laplace_within_stated_bound(self, seed):
        # 64 nodes are within 1e-7 of 96
        check_laplace(self.instance(seed, n=400), (0.5, 2.0)[seed % 2], 64)



class TestEvidenceBasinsAtP1:
    """The ``evidence`` module's basin figures on C7's one-coordinate
    instance (seeds ``[700, 0-9]``) against :func:`basin_log_integrals`."""

    # Measured medians of the second basin minus the fit's, n = 60: -50.6,
    # -21.3, 17.87 and 95.8 at eta 0.5, 2, 4 and 8; n = 400: -527 to -364.
    # Where it outweighs the fit's basin, it does so by at least 10.36 (eta
    # 4) and 89.7 (eta 8).  The largest single case where the docstring
    # calls it negligible is -7.17 (n = 60, eta 2), which adds 0.0008 to the
    # log evidence.
    @pytest.mark.parametrize("n, eta, median", [
        (60, 0.5, None), (60, 2.0, None), (60, 4.0, 18), (60, 8.0, 96),
        (400, 0.5, None), (400, 2.0, None), (400, 4.0, None), (400, 8.0, None)])
    def test_second_basin(self, n, eta, median):
        rows = [basin_log_integrals(single_predictor_instance([700, seed], n)[0], eta)
                for seed in range(10)]
        gap = np.array([second - first for _, first, second in rows])
        if median is None:
            # it adds under 0.01 to the log evidence in every case
            assert np.median(gap) < -20
            assert np.log1p(np.exp(gap)).max() < 0.01
        else:
            assert round(float(np.median(gap))) == median
            assert (gap > 5).all()
        # Laplace minus the fit's basin: medians -0.237, -0.199, -0.200,
        # -0.238 at n = 60 and -0.104 to -0.034 at n = 400; the worst cases
        # are -0.267 and -0.104, so the bounds 0.3 and 0.125 (check_laplace's
        # per-coordinate bound) leave a margin of 0.02 or more
        laplace = np.array([lap - first for lap, first, _ in rows])
        assert (laplace < 0).all()
        assert (laplace > (-0.3 if n == 60 else -0.125)).all()
