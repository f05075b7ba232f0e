import numpy as np
import pytest

from adaridge import (
    Dataset,
    DgpSpec,
    draw_dataset,
    draw_test_set,
    median_and_bootstrap_se,
    path_contains_truth,
    support_metrics,
)
from adaridge import test_mse as prediction_mse
from adaridge.errors import DimensionMismatch, EmptyInput


class TestPredictionMse:
    def test_perfect_predictor_on_noiseless_data(self):
        spec = DgpSpec(3, 20, 0.0, seed=2)
        _, truth = draw_dataset(spec)
        test = draw_test_set(spec, truth, m=500)
        assert prediction_mse(truth.beta_true, 0.0, test) == 0.0

    def test_null_predictor_scores_response_variance(self, rng):
        x = rng.standard_normal((2000, 3))
        y = x @ np.array([1.0, 0.0, 2.0]) + rng.standard_normal(2000)
        test = Dataset(x, y)
        mse = prediction_mse(np.zeros(3), float(y.mean()), test)
        assert mse == pytest.approx(float(np.var(y)), rel=1e-10)

    def test_dimension_mismatch(self, rng):
        test = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
        with pytest.raises(DimensionMismatch):
            prediction_mse(np.zeros(3), 0.0, test)

    def test_non_negative(self, rng):
        test = Dataset(rng.standard_normal((50, 2)), rng.standard_normal(50))
        assert prediction_mse(rng.standard_normal(2), 0.3, test) >= 0


class TestSupportMetrics:
    def test_exact_recovery(self):
        sup = np.array([True, True, False])
        assert support_metrics(sup, sup) == (2, 0, True)

    def test_everything_selected_sparse_truth(self):
        sup = np.array([1, 1, 0, 0, 1, 0, 0, 0], dtype=bool)
        c, i, cm = support_metrics(np.ones(8, dtype=bool), sup)
        assert (c, i, cm) == (3, 5, False)

    def test_empty_selection(self):
        sup = np.array([True, False])
        assert support_metrics(np.zeros(2, dtype=bool), sup) == (0, 0, False)
        none = np.zeros(2, dtype=bool)
        assert support_metrics(none, none) == (0, 0, True)

    def test_cm_equivalence_property(self, rng):
        for _ in range(50):
            act = rng.random(6) < 0.5
            sup = rng.random(6) < 0.4
            c, i, cm = support_metrics(act, sup)
            assert cm == (c == sup.sum() and i == 0)


class TestPathContainsTruth:
    def test_singleton_hit(self):
        sup = np.array([True, False])
        assert path_contains_truth([np.array([True, False])], sup)

    def test_no_hit(self):
        sup = np.array([True, False])
        masks = [np.array([True, True]), np.array([False, False])]
        assert not path_contains_truth(masks, sup)

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyInput):
            path_contains_truth([], np.array([True]))


class TestMedianBootstrap:
    def test_simple_median(self):
        med, _ = median_and_bootstrap_se([1.0, 2.0, 3.0], seed=0)
        assert med == 2.0

    def test_even_count_averages_middle(self):
        med, _ = median_and_bootstrap_se([1.0, 2.0, 3.0, 10.0], seed=0)
        assert med == 2.5

    def test_constant_vector_zero_se(self):
        med, se = median_and_bootstrap_se([4.0] * 20, seed=0)
        assert med == 4.0 and se == 0.0

    def test_matches_asymptotic_median_se(self, rng):
        # sd of the sample median of n standard normals ~ 1.2533 / sqrt(n)
        vals = rng.standard_normal(100)
        _, se = median_and_bootstrap_se(vals, n_boot=2000, seed=3)
        assert se == pytest.approx(1.2533 / 10.0, rel=0.30)

    def test_deterministic_given_seed(self, rng):
        vals = rng.standard_normal(40)
        a = median_and_bootstrap_se(vals, seed=7)
        b = median_and_bootstrap_se(vals, seed=7)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            median_and_bootstrap_se([], seed=0)

    @pytest.mark.parametrize("n_boot", [1, 2.5, 2.0, "500", None])
    def test_bad_n_boot_rejected(self, n_boot):
        with pytest.raises(ValueError, match="^n_boot must be an integer >= 2, got "):
            median_and_bootstrap_se([1.0, 2.0], n_boot=n_boot)
