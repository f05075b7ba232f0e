import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaridge import (
    Dataset,
    DgpSpec,
    FitOptions,
    Hyper,
    draw_dataset,
    fit_em,
    fit_joint_mode,
    fit_ols,
    select_eta,
    standardize,
)
from adaridge.errors import ExactFit
from adaridge.solver import VARIANTS
from conftest import live_view, random_instance, toeplitz_design
from oracles import em_step, em_step_explicit_sigma


class TestEmStep:
    def test_flat_prior_is_ols_in_one_step(self, rng):
        x, y = toeplitz_design(40, [1.0, 0.0, -2.0], 1.0, rng)
        data, _ = standardize(x, y)
        beta = em_step(data, np.array([1.0, 1.0, 1.0]), Hyper(-1.5))
        np.testing.assert_allclose(beta, fit_ols(data), atol=1e-10)

    def test_scalar_step_value(self):
        # p = 1, x'x = 1, x'y = 1, previous beta = 1, eta = -1.  The
        # implied ridge weight is S^2 / ((n + 2) beta^2); with S^2 = n
        # exactly this gives beta_next = (n + 2) / (2 n + 2).
        n = 4
        x = np.zeros((n, 1))
        x[0, 0] = 1.0
        y = np.zeros(n)
        y[0] = 1.0
        # choose y so that x'y = 1 and the residual sum at beta_prev = 1
        # equals n: residuals are (1 - 1, y_2, ..., y_n)
        y[1:] = np.sqrt(n / (n - 1))
        data = Dataset(x, y)
        beta = em_step(data, np.array([1.0]), Hyper(-1.0))
        assert beta[0] == pytest.approx((n + 2) / (2 * n + 2), abs=1e-12)

    def test_step_decreases_previous_weighted_objective(self):
        # the step is the exact minimizer of the convex surrogate built
        # from the previous iterate, so the surrogate cannot increase
        for seed in range(10):
            data, _, _ = random_instance(seed)
            rng = np.random.default_rng(seed + 1)
            h = Hyper(-1.0)
            beta_prev = rng.standard_normal(data.p) + 2.0
            r = data.y - data.x @ beta_prev
            s2 = float(r @ r)
            d = (2 * h.eta + 3) * s2 / ((data.n + 2) * beta_prev**2)

            def objective(b):
                rr = data.y - data.x @ b
                return float(rr @ rr + np.sum(d * b**2))

            beta_next = em_step(data, beta_prev, h)
            assert objective(beta_next) <= objective(beta_prev) + 1e-12


class TestEmStepExplicitSigma:
    def test_boundary_is_ols(self, rng):
        x, y = toeplitz_design(30, [2.0, 0.0], 1.0, rng)
        data, _ = standardize(x, y)
        beta, s2 = em_step_explicit_sigma(data, np.ones(2), 1.0, Hyper(-0.5))
        ols = fit_ols(data)
        np.testing.assert_allclose(beta, ols, atol=1e-10)
        r = data.y - data.x @ ols
        assert s2 == pytest.approx(float(r @ r) / (data.n + 2), rel=1e-12)

    def test_penalty_is_inverse_squared_t_statistic(self, rng):
        # the ridge weight equals (2 eta + 1) / t_j^2 with t_j = beta_j / sigma
        data, _, _ = random_instance(5)
        h = Hyper(0.7)
        beta_prev = np.abs(np.random.default_rng(5).standard_normal(data.p)) + 0.5
        sigma2 = 1.9
        d = (2 * h.eta + 1) * sigma2 / beta_prev**2
        t = beta_prev / np.sqrt(sigma2)
        np.testing.assert_allclose(d, (2 * h.eta + 1) / t**2, rtol=1e-12)

    def test_fixed_point_satisfies_both_equations(self):
        data, _, _ = random_instance(9)
        opts = FitOptions(conv_tol=1e-13)
        emf = fit_em(data, Hyper(0.4), opts, variant="explicit-sigma")
        assert emf.converged
        idx = np.where(emf.active)[0]
        sub = live_view(data, idx)
        beta = emf.beta[idx]
        r = data.y - sub.x @ beta
        sigma2 = float(r @ r) / (data.n + 2)
        beta_again, sigma2_again = em_step_explicit_sigma(sub, beta, sigma2, Hyper(0.4))
        np.testing.assert_allclose(beta_again, beta, atol=1e-8)
        assert sigma2_again == pytest.approx(sigma2, rel=1e-8)


class TestFitEm:
    def test_flat_prior_fit_is_ols(self, rng):
        x, y = toeplitz_design(50, [1.0, 0.0, 3.0], 1.0, rng)
        data, _ = standardize(x, y)
        emf = fit_em(data, Hyper(-1.5))
        np.testing.assert_allclose(emf.beta, fit_ols(data), atol=1e-10)
        assert emf.converged and emf.iterations == 1

    def test_zero_absorption_from_initializer(self):
        # an initializer coordinate that is exactly zero stays zero
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        y = np.array([3.0, 0.0, 1.0, -1.0])
        data = Dataset(x, y)  # least squares = (3, 0) exactly
        emf = fit_em(data, Hyper(-1.0))
        assert emf.beta[1] == 0.0
        assert not emf.active[1]

    def test_a_zero_start_coefficient_is_pruned_without_a_warning(self):
        # the coordinate is pruned before any weight divides by its square
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        data = Dataset(x, np.array([3.0, 0.0, 1.0, -1.0]))
        assert data.initial_beta[1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fits = [fit_em(data, Hyper(0.0), variant=variant) for variant in VARIANTS]
            fits.append(fit_joint_mode(data, Hyper(0.0)).state)
        assert [(f.beta[1], f.active[1]) for f in fits] == [(0.0, False)] * 3

    def test_matches_joint_mode_at_shifted_eta(self):
        # marginal mode at eta = -1 coincides with the joint mode at
        # eta = 0 (same fixed point under the conditional-mode plug-in)
        for seed in range(10):
            data, _, _ = random_instance(seed)
            opts = FitOptions(conv_tol=1e-12)
            emf = fit_em(data, Hyper(-1.0), opts)
            joint = fit_joint_mode(data, Hyper(0.0), opts)
            np.testing.assert_allclose(emf.beta, joint.state.beta, atol=1e-6)

    def test_explicit_sigma_matches_joint_at_same_eta(self):
        # with the variance kept explicit the two routes share a fixed
        # point at equal eta; a sharp cross-check of both solvers
        for seed in range(10):
            data, _, _ = random_instance(seed)
            opts = FitOptions(conv_tol=1e-13)
            emf = fit_em(data, Hyper(0.0), opts, variant="explicit-sigma")
            joint = fit_joint_mode(data, Hyper(0.0), opts)
            np.testing.assert_allclose(emf.beta, joint.state.beta, atol=1e-8)

    def test_sparse_design_selects_single_signal(self):
        hits = 0
        for rep in range(50):
            rng = np.random.default_rng([7, rep])
            x, y = toeplitz_design(100, [5.0, 0, 0, 0, 0, 0, 0, 0], 3.0, rng)
            data, _ = standardize(x, y)
            emf = fit_em(data, Hyper(-1.0))
            if emf.active[0] and not emf.active[1:].any():
                hits += 1
        # equivalence with the joint mode at eta = 0 puts this near the
        # ~0.72 exact-recovery rate of that solver
        assert hits >= 30

    # the flat-prior boundary and an interior eta of each variant
    @pytest.mark.parametrize("variant, eta", [
        ("independent-prior", -1.5), ("independent-prior", -1.0),
        ("explicit-sigma", -0.5), ("explicit-sigma", 0.5)])
    def test_constant_response_is_an_exact_fit(self, rng, variant, eta):
        # the centred response is 0, so the start is 0 and the residual sum
        # of the first iteration is what raises
        data, _ = standardize(rng.standard_normal((30, 3)), np.full(30, 2.5))
        assert not data.y.any() and not data.initial_beta.any()
        with pytest.raises(ExactFit):
            fit_em(data, Hyper(eta), variant=variant)

    def test_s2_trace_positive_and_recorded(self):
        # A fit that prunes every coordinate in iteration k has run k
        # iterations and converged, as a joint fit does, also at the cap
        # max_iter = k; an all-zero start empties the model in iteration 1.
        raw, _ = draw_dataset(DgpSpec(0, 20, 3.0, 0))
        study, _ = standardize(raw.x, raw.y)
        zero_start = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
                             np.array([0.0, 0.0, 1.0, -1.0]))
        assert not zero_start.initial_beta.any()
        # (data, variant, eta, max_iter, the iteration that empties the model)
        cases = [(random_instance(2)[0], "independent-prior", -1.0, 500, None),
                 (study, "independent-prior", 2.0, 500, 8),
                 (study, "independent-prior", 2.0, 8, 8),
                 (study, "explicit-sigma", 4.0, 500, 7),
                 (study, "explicit-sigma", 4.0, 7, 7),
                 (zero_start, "independent-prior", -1.0, 500, 1),
                 (zero_start, "explicit-sigma", 0.0, 500, 1)]
        for data, variant, eta, max_iter, emptied in cases:
            emf = fit_em(data, Hyper(eta), FitOptions(max_iter=max_iter), variant)
            assert len(emf.s2_trace) == emf.iterations
            assert (emf.s2_trace > 0).all()
            if emptied:
                assert not emf.active.any() and emf.converged
                assert emf.iterations == emptied

    # (variant, random_instance seed, eta): nothing prunes in 4 iterations
    @pytest.mark.parametrize("variant, seed, eta", [
        ("independent-prior", 0, -1.0), ("independent-prior", 12, 0.0),
        ("explicit-sigma", 4, 0.0), ("explicit-sigma", 12, 0.5)])
    def test_truncated_fit_iterates_the_oracle_step(self, variant, seed, eta):
        data, _, _ = random_instance(seed)
        h = Hyper(eta)
        # nothing is pruned here, so the oracle steps on the same view of
        # every coordinate as fit_em
        live = live_view(data, np.arange(data.p))
        beta = data.initial_beta.copy()
        r = live.y - live.x @ beta
        sigma2 = float(r @ r) / (live.n + 2)
        s2s = []
        for m in range(1, 5):
            r = live.y - live.x @ beta
            s2s.append(float(r @ r))
            if variant == "independent-prior":
                beta = em_step(live, beta, h)
            else:
                beta, sigma2 = em_step_explicit_sigma(live, beta, sigma2, h)
            emf = fit_em(data, h, FitOptions(max_iter=m), variant)
            assert emf.active.all() and emf.iterations == m
            np.testing.assert_allclose(emf.beta, beta, rtol=1e-13, atol=0)
            np.testing.assert_allclose(emf.s2_trace, s2s, rtol=1e-13, atol=0)

    # every case prunes at least once and keeps a coordinate
    @pytest.mark.parametrize("variant, seed, eta", [
        ("independent-prior", 1, 0.0), ("independent-prior", 6, 0.0),
        ("independent-prior", 10, 4.0), ("independent-prior", 19, 1.0),
        ("explicit-sigma", 1, 0.5), ("explicit-sigma", 9, 4.0)])
    def test_step_after_a_prune_uses_the_variants_residual_sum(
            self, variant, seed, eta):
        # The iteration that prunes weights the survivors with the residual
        # sum at the pruned iterate (independent-prior) or with the noise
        # variance taken before pruning (explicit-sigma).
        data, _, _ = random_instance(seed)
        h = Hyper(eta)
        n = data.n
        prev = fit_em(data, h, FitOptions(max_iter=1), variant)
        prunes = 0
        for m in range(2, fit_em(data, h, variant=variant).iterations + 1):
            emf = fit_em(data, h, FitOptions(max_iter=m), variant)
            idx = np.where(prev.active)[0]
            b = prev.beta[idx]
            r = data.y - data.x[:, idx] @ b
            s2 = float(r @ r)
            if variant == "independent-prior":
                vtilde = (n + 2.0) * b**2 / ((2 * eta + 3) * s2)
            else:
                vtilde = b**2 / ((2 * eta + 1) * (s2 / (n + 2.0)))
            keep = idx[vtilde >= FitOptions().prune_tol]
            if keep.size < idx.size and keep.size:
                prunes += 1
                sub = live_view(data, keep)
                if variant == "independent-prior":
                    want = em_step(sub, prev.beta[keep], h)
                else:
                    want, _ = em_step_explicit_sigma(
                        sub, prev.beta[keep], s2 / (n + 2.0), h)
                assert np.array_equal(np.where(emf.active)[0], keep)
                np.testing.assert_allclose(emf.beta[keep], want,
                                           rtol=1e-13, atol=0)
            prev = emf
        assert prunes

    def test_variant_validation(self):
        data, _, _ = random_instance(1)
        with pytest.raises(ValueError):
            fit_em(data, Hyper(0.0), variant="nope")
        with pytest.raises(ValueError):
            fit_em(data, Hyper(-1.0), variant="explicit-sigma")


def test_no_module_copies_columns_into_a_second_dataset(monkeypatch):
    # Every restriction to live coordinates is a view of the one dataset:
    # neither EM nor evidence scoring builds a Dataset, on an instance where
    # both EM variants and some grid fits prune.
    built = []
    real = Dataset.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Dataset, "__post_init__", counted)
    data, _, _ = random_instance(0)
    # standardize checks the raw data as a Dataset, then builds the scaled one
    assert len(built) == 2
    for variant in ("independent-prior", "explicit-sigma"):
        assert not fit_em(data, Hyper(0.0), variant=variant).active.all()
    sel = select_eta(data, method="mc", k=10.0, draws=50)
    select_eta(data, method="laplace")
    counts = [fit_joint_mode(data, Hyper(eta)).state.active.sum() for eta in sel.grid]
    assert any(0 < c < data.p for c in counts)
    assert len(built) == 2


def scaled_design(n, p, seed):
    """A raw design with columns scaled by ``exp(U(-3, 3))``, about half its
    coefficients in ``[1, 3]`` on the unscaled columns and the rest 0, and
    unit noise."""

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.where(rng.random(p) < 0.5, rng.uniform(1.0, 3.0, p), 0.0)
    y = x @ beta + rng.standard_normal(n)
    return Dataset(x * np.exp(rng.uniform(-3.0, 3.0, p)), y)


@given(n=st.integers(15, 120), p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_em_matches_the_joint_mode_on_generated_inputs(n, p, seed):
    """EM independent-prior at eta -1 and explicit-sigma at eta 0 share the
    joint mode's fixed point at eta 0 (C5)."""

    data = scaled_design(n, p, seed)
    opts = FitOptions(conv_tol=1e-12)
    joint = fit_joint_mode(data, Hyper(0.0), opts).state
    for variant, eta in (("independent-prior", -1.0), ("explicit-sigma", 0.0)):
        emf = fit_em(data, Hyper(eta), opts, variant)
        assert np.array_equal(emf.active, joint.active)
        assert (abs(emf.beta - joint.beta) <= 1e-9 * (1.0 + abs(joint.beta))).all()


@given(n=st.integers(15, 120), p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_least_squares_boundaries_on_generated_inputs(n, p, seed):
    """At and below the joint mode's boundary eta = -1/2, and at each EM
    variant's flat-prior boundary, the fit is least squares, bit for bit."""

    data = scaled_design(n, p, seed)
    ols = fit_ols(data)
    for eta in (-0.75, -0.5):
        assert np.array_equal(fit_joint_mode(data, Hyper(eta)).state.beta, ols)
    for variant, eta in VARIANTS.items():
        assert np.array_equal(fit_em(data, Hyper(eta), variant=variant).beta, ols)
