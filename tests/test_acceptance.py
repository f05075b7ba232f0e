"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  The replication studies C1-C4 run
the shipped ``run_experiment``, each design once on every usable CPU, and
read ``cm`` and ``median_mse`` off its report rows; every value is
deterministic given the frozen seeds.
"""

from __future__ import annotations

import functools
import math
import tempfile

import numpy as np
from scipy.integrate import quad

from adaridge import (
    FitOptions,
    Hyper,
    fit_em,
    fit_joint_mode,
    fit_ols,
    mc_log_evidence,
    laplace_log_evidence,
    standardize,
)
from adaridge.evidence import EVIDENCE_MU
from adaridge.experiment import ExperimentConfig, run_experiment
from adaridge.model import PosteriorState
from adaridge.solver import _derivatives, _polished_mode
from conftest import fd_hessian, log_joint_of_theta, random_instance
from oracles import assemble_hessian, conditional_marginal, fit_reweighted_ridge


def _check(label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------- designs

# Each design carries only the estimators its criteria read.
C1_N300 = ExperimentConfig(0, 300, 3.0, 1000, master_seed=100,
                           estimators=("aris-eta0", "aris-path"))
C1_N120 = ExperimentConfig(0, 120, 5.0, 1000, master_seed=101,
                           estimators=("aris-eta0",))
C2_LAPLACE = ExperimentConfig(3, 100, 3.0, 100, master_seed=102,
                              estimators=("aris-eb", "aris-eta0"))
C2_MC = ExperimentConfig(3, 20, 3.0, 100, master_seed=103, evidence_method="mc",
                         k_sweep=(1000.0,), estimators=("aris-eb",))
C3 = ExperimentConfig(1, 100, 3.0, 100, master_seed=104,
                      estimators=("aris-eta0", "ols"))
C4 = ExperimentConfig(2, 100, 3.0, 100, master_seed=105,
                      estimators=("ridge-gcv", "aris-eta0"))


@functools.cache
def _rows(config: ExperimentConfig) -> dict:
    """The report rows of one ``run_experiment`` of ``config``, by
    estimator; two criteria on one design share the run."""

    with tempfile.TemporaryDirectory() as out:
        report = run_experiment(config, out)
    return {row.estimator: row for row in report.rows}


# ---------------------------------------------------------------- criteria

class TestCriterion1Model0:
    def test_exact_support_n300(self):
        prop = _rows(C1_N300)["aris-eta0"].cm
        _check("C1 support n=300", abs(prop - 0.944) <= 0.03,
               f"proportion={prop:.3f}, target 0.944 +/- 0.03")

    def test_exact_support_n120(self):
        prop = _rows(C1_N120)["aris-eta0"].cm
        _check("C1 support n=120", abs(prop - 0.895) <= 0.04,
               f"proportion={prop:.3f}, target 0.895 +/- 0.04")

    def test_path_recovery_n300(self):
        prop = _rows(C1_N300)["aris-path"].cm
        _check("C1 path n=300", prop >= 0.95, f"proportion={prop:.3f}, need >= 0.95")


class TestCriterion2Model3:
    def test_laplace_eb_n100(self):
        row = _rows(C2_LAPLACE)["aris-eb"]
        cm, med = row.cm, row.median_mse
        ok = cm >= 0.90 and abs(med - 9.1452) / 9.1452 <= 0.03
        _check("C2 eb-laplace n=100", ok,
               f"cm={cm:.2f} (need >= 0.90), median_mse={med:.4f} "
               f"(9.1452 +/- 3%)")

    def test_eta0_n100(self):
        cm = _rows(C2_LAPLACE)["aris-eta0"].cm
        _check("C2 eta0 n=100", abs(cm - 0.71) <= 0.10,
               f"cm={cm:.2f}, target 0.71 +/- 0.10")

    def test_mc_eb_n20(self):
        cm = _rows(C2_MC)["aris-eb-k1000"].cm
        _check("C2 eb-mc k=1000 n=20", cm >= 0.85, f"cm={cm:.2f}, need >= 0.85")


class TestCriterion3Model1:
    def test_eta0_and_ols(self):
        rows = _rows(C3)
        cm, med = rows["aris-eta0"].cm, rows["aris-eta0"].median_mse
        ols_med = rows["ols"].median_mse
        ok = (abs(med - 9.3409) / 9.3409 <= 0.03
              and abs(cm - 0.75) <= 0.10
              and abs(ols_med - 9.7112) / 9.7112 <= 0.03)
        _check("C3 model-1 spot check", ok,
               f"eta0 median_mse={med:.4f} (9.3409 +/- 3%), cm={cm:.2f} "
               f"(0.75 +/- 0.10), ols median_mse={ols_med:.4f} (9.7112 +/- 3%)")


class TestCriterion4Model2:
    def test_ridge_and_eta0(self):
        rows = _rows(C4)
        ridge_med, cm = rows["ridge-gcv"].median_mse, rows["aris-eta0"].cm
        ok = abs(ridge_med - 9.6199) <= 0.3 and cm <= 0.05
        _check("C4 model-2 spot check", ok,
               f"ridge median_mse={ridge_med:.4f} (9.6199 +/- 0.3), "
               f"eta0 cm={cm:.2f} (<= 0.05)")


class TestCriterion5SolverProperties:
    N_INSTANCES = 200

    def test_monotone_trace(self):
        worst = 0.0
        for seed in range(self.N_INSTANCES):
            data, _, _ = random_instance(seed)
            fit = fit_joint_mode(data, Hyper(0.0))
            tr, counts = fit.log_joint_trace, fit.active_count_trace
            for i in range(1, len(tr)):
                if counts[i] == counts[i - 1]:
                    worst = max(worst, tr[i - 1] - tr[i])
        _check("C5 monotone trace", worst <= 1e-10,
               f"worst decrease={worst:.2e}, slack 1e-10")

    def test_reweighted_ridge_agreement(self):
        worst = 0.0
        opts = FitOptions(conv_tol=1e-12)
        etas = (0.0, 0.5, 2.0)
        for seed in range(self.N_INSTANCES):
            data, _, _ = random_instance(seed)
            eta = etas[seed % 3]
            a = fit_joint_mode(data, Hyper(eta), opts)
            b = fit_reweighted_ridge(data, Hyper(eta), opts)
            assert (a.state.active == b.state.active).all()
            worst = max(worst, float(np.max(np.abs(a.state.beta - b.state.beta))))
        _check("C5 path equivalence", worst <= 1e-8,
               f"worst |beta diff|={worst:.2e}, need <= 1e-8")

    def test_ols_boundary(self):
        worst = 0.0
        for seed in range(self.N_INSTANCES):
            data, _, _ = random_instance(seed)
            fit = fit_joint_mode(data, Hyper(-0.5))
            worst = max(worst, float(np.max(np.abs(fit.state.beta - fit_ols(data)))))
        _check("C5 eta=-1/2 is OLS", worst <= 1e-10,
               f"worst |beta diff|={worst:.2e}, need <= 1e-10")

    def test_em_flat_prior_is_ols(self):
        worst = 0.0
        for seed in range(self.N_INSTANCES):
            data, _, _ = random_instance(seed)
            emf = fit_em(data, Hyper(-1.5))
            worst = max(worst, float(np.max(np.abs(emf.beta - fit_ols(data)))))
        _check("C5 EM eta=-3/2 is OLS", worst <= 1e-10,
               f"worst |beta diff|={worst:.2e}, need <= 1e-10")

    def test_em_joint_correspondence(self):
        worst = 0.0
        opts = FitOptions(conv_tol=1e-12)
        for seed in range(self.N_INSTANCES):
            data, _, _ = random_instance(seed)
            emf = fit_em(data, Hyper(-1.0), opts)
            joint = fit_joint_mode(data, Hyper(0.0), opts)
            worst = max(worst, float(np.max(np.abs(emf.beta - joint.state.beta))))
        _check("C5 EM(-1) == joint(0)", worst <= 1e-6,
               f"worst |beta diff|={worst:.2e}, need <= 1e-6")

    def test_zero_absorption(self):
        ok = True
        for seed in range(self.N_INSTANCES):
            data, _, _ = random_instance(seed)
            fit = fit_joint_mode(data, Hyper(0.0))
            counts = fit.active_count_trace
            ok &= all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))
            ok &= bool((fit.state.beta[~fit.state.active] == 0).all())
        _check("C5 zero absorption", ok, "active sets only shrink; pruned stay 0")


class TestCriterion6Hessian:
    def test_blocks_match_finite_differences(self):
        rng = np.random.default_rng(606)
        etas = (0.1, 0.5, 1.0, 2.0)
        worst = 0.0
        for point in range(50):
            data, _, _ = random_instance(1000 + point, n_range=(30, 60),
                                         p_range=(2, 4))
            p = data.p
            state = PosteriorState(
                beta=rng.standard_normal(p),
                sigma2=float(rng.uniform(0.8, 2.5)),
                v_inv=rng.uniform(0.3, 3.0, p),
                active=np.ones(p, dtype=bool),
            )
            h = Hyper(etas[point % 4], mu=0.01)
            blocks = _derivatives(state.beta, state.sigma2, state.v_inv, data.x,
                                  data.y, data.xtx, h)[1]
            analytic = assemble_hessian(blocks)
            theta = np.concatenate([state.beta, [state.sigma2], state.v_inv])
            fd = -fd_hessian(log_joint_of_theta(data, h), theta)
            rel = float(np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)))
            worst = max(worst, rel)
        _check("C6 hessian blocks", worst < 1e-5,
               f"worst relative error={worst:.2e}, need < 1e-5")


class TestCriterion7EvidenceAtP1:
    @staticmethod
    def _instance(seed, n=400):
        rng = np.random.default_rng([700, seed])
        x = rng.standard_normal(n)
        y = 4.0 * x + rng.standard_normal(n)
        return standardize(x[:, None], y)

    def test_laplace_against_quadrature(self):
        worst = 0.0
        for seed in range(20):
            data, _ = self._instance(seed)
            eta = 2.0 if seed % 2 == 0 else 4.0
            fit = fit_joint_mode(data, Hyper(eta))
            h = Hyper(eta, mu=EVIDENCE_MU)
            est = laplace_log_evidence(fit, data, h)

            assert fit.state.active.all()
            _, _, v_inv, _, _ = _polished_mode(fit, data, h)
            center = v_inv[0]
            sig = center / math.sqrt(0.5 + eta)

            def ilog(t):
                return (conditional_marginal(data, [t]) + eta * math.log(t)
                        - h.mu * t + (eta + 1) * math.log(h.mu)
                        - math.lgamma(eta + 1.0))

            shift = ilog(center)
            val, _ = quad(lambda t: math.exp(ilog(t) - shift),
                          1e-12, center + 40 * sig, limit=400)
            oracle = shift + math.log(val)
            worst = max(worst, abs(est.log_value - oracle))
        _check("C7 laplace vs quadrature", worst <= 0.1,
               f"worst |log diff|={worst:.3f}, need <= 0.1")

    def test_mc_against_quadrature(self):
        worst_z = 0.0
        for seed in range(20):
            data, _ = self._instance(seed, n=60)
            eta = 0.5
            fit = fit_joint_mode(data, Hyper(eta))
            h = Hyper(eta, mu=EVIDENCE_MU)
            k = 10.0
            est = mc_log_evidence(fit, data, h, k=k, draws=2000, seed=seed)

            assert fit.state.active.all()
            _, _, v_inv, _, _ = _polished_mode(fit, data, h)
            center = v_inv[0]
            sig = center / math.sqrt(0.5 + eta)
            lo, hi = max(0.0, center - k * sig), center + k * sig

            def ilog(t):
                return (conditional_marginal(data, [t]) + eta * math.log(t)
                        - h.mu * t - math.lgamma(eta + 1.0))

            shift = ilog(center)
            val, _ = quad(lambda t: math.exp(ilog(t) - shift), lo, hi, limit=400)
            oracle = shift + math.log(val / (hi - lo))
            z = abs(est.log_value - oracle) / est.mc_se
            worst_z = max(worst_z, z)
        _check("C7 mc vs quadrature", worst_z <= 3.0,
               f"worst |z|={worst_z:.2f}, need <= 3 standard errors")


class TestCriterion8Determinism:
    def test_report_bytes_invariant_to_worker_count(self, tmp_path):
        cfg = ExperimentConfig(
            model_id=3, n=60, sigma=3.0, replications=8, test_size=1000,
            evidence_method="laplace",
            estimators=("aris-eb", "aris-eta0", "ols", "ridge-gcv"),
            master_seed=808,
        )
        run_experiment(cfg, tmp_path / "w1", jobs=1)
        run_experiment(cfg, tmp_path / "w4", jobs=4)
        same_report = ((tmp_path / "w1" / "report.csv").read_bytes()
                       == (tmp_path / "w4" / "report.csv").read_bytes())
        same_reps = ((tmp_path / "w1" / "replications.csv").read_bytes()
                     == (tmp_path / "w4" / "replications.csv").read_bytes())
        _check("C8 determinism", same_report and same_reps,
               "report.csv and replications.csv byte-identical for jobs=1 vs 4")
