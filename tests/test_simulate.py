import numpy as np
import pytest

from adaridge import (
    DgpSpec,
    MODEL_BETAS,
    dataset_to_csv,
    draw_dataset,
    draw_test_set,
    make_covariance,
)
from adaridge import test_mse as prediction_mse


class TestMakeCovariance:
    def test_toeplitz_entry(self):
        c = make_covariance(1)
        assert c[0, 2] == pytest.approx(0.25)
        assert c[3, 4] == pytest.approx(0.5)

    @pytest.mark.parametrize("model_id", [0, 1, 2, 3])
    def test_unit_diagonal(self, model_id):
        c = make_covariance(model_id)
        np.testing.assert_allclose(np.diag(c), 1.0)

    @pytest.mark.parametrize("model_id", [0, 1, 2, 3])
    def test_design_positive_definite(self, model_id):
        c = make_covariance(model_id)
        eigs = np.linalg.eigvalsh(c)
        assert eigs.min() > 0
        np.linalg.cholesky(c)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            make_covariance(9)

    @pytest.mark.parametrize("model_id, message", [
        (True, "^model_id must be an integer >= 0, got True$"),
        (3.0, "^model_id must be an integer >= 0, got 3.0$"),
        (-1, "^model_id must be an integer >= 0, got -1$"),
        (np.int64(4), "^unknown model_id 4$"),
    ], ids=["bool", "float", "negative", "unknown"])
    def test_bad_model_id_rejected(self, model_id, message):
        with pytest.raises(ValueError, match=message):
            make_covariance(model_id)


class TestDrawDataset:
    def test_noiseless_recovery(self):
        spec = DgpSpec(model_id=1, n=50, sigma=0.0, seed=5)
        data, truth = draw_dataset(spec)
        np.testing.assert_allclose(data.y, data.x @ truth.beta_true, atol=0)
        beta = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
        np.testing.assert_allclose(beta, truth.beta_true, atol=1e-10)

    def test_sample_covariance_matches_design(self):
        spec = DgpSpec(model_id=1, n=100_000, sigma=1.0, seed=11)
        data, truth = draw_dataset(spec)
        emp = np.cov(data.x.T)
        assert np.max(np.abs(emp - truth.covariance)) < 0.02

    def test_bitwise_determinism(self):
        a, _ = draw_dataset(DgpSpec(2, 30, 3.0, seed=123))
        b, _ = draw_dataset(DgpSpec(2, 30, 3.0, seed=123))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_outputs(self):
        a, _ = draw_dataset(DgpSpec(2, 30, 3.0, seed=123))
        b, _ = draw_dataset(DgpSpec(2, 30, 3.0, seed=124))
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("seed, message", [
        (-1, "^seed must be an integer >= 0, got -1$"),
        (np.int64(-3), "^seed must be an integer >= 0, got -3$"),
        (2.0, "^seed must be an integer >= 0, got 2.0$"),
        (True, "^seed must be an integer >= 0, got True$"),
    ])
    def test_bad_seed_rejected_by_the_spec(self, seed, message):
        with pytest.raises(ValueError, match=message):
            DgpSpec(3, 40, 3.0, seed=seed)

    @pytest.mark.parametrize("model_id, message", [
        (3.0, "^model_id must be an integer >= 0, got 3.0$"),
        ("3", "^model_id must be an integer >= 0, got 3$"),
        (-1, "^model_id must be an integer >= 0, got -1$"),
        (np.int64(4), r"^model_id must be one of \[0, 1, 2, 3\]$"),
        (True, "^model_id must be an integer >= 0, got True$"),
    ], ids=["float", "str", "negative", "unknown", "bool"])
    def test_bad_model_id_rejected_by_the_spec(self, model_id, message):
        with pytest.raises(ValueError, match=message):
            DgpSpec(model_id, 20, 3.0, seed=1)

    @pytest.mark.parametrize("n, message", [
        (40.5, "^n must be an integer >= 1, got 40.5$"),
        (40.0, "^n must be an integer >= 1, got 40.0$"),
        (0, "^n must be an integer >= 1, got 0$"),
        (np.int64(-2), "^n must be an integer >= 1, got -2$"),
        (True, "^n must be an integer >= 1, got True$"),
    ])
    def test_bad_size_rejected_by_the_spec(self, n, message):
        with pytest.raises(ValueError, match=message):
            DgpSpec(3, n, 3.0, seed=0)

    @pytest.mark.parametrize("sigma", ["1", None, -1.0, np.inf, np.nan, True])
    def test_bad_sigma_rejected_by_the_spec(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be a finite number >= 0, got "):
            DgpSpec(3, 20, sigma, seed=0)

    def test_numpy_integer_size_accepted(self):
        a, _ = draw_dataset(DgpSpec(3, np.int64(12), 3.0, seed=4))
        b, _ = draw_dataset(DgpSpec(3, 12, 3.0, seed=4))
        assert a.n == 12
        np.testing.assert_array_equal(a.x, b.x)


class TestDrawTestSet:
    def test_default_size(self):
        spec = DgpSpec(3, 20, 3.0, seed=1)
        _, truth = draw_dataset(spec)
        test = draw_test_set(spec, truth)
        assert test.n == 10_000

    def test_disjoint_from_training_stream(self):
        spec = DgpSpec(3, 50, 3.0, seed=1)
        train, truth = draw_dataset(spec)
        test = draw_test_set(spec, truth, m=50)
        assert not np.array_equal(train.x, test.x)

    @pytest.mark.parametrize("m, message", [
        (10.5, "^m must be an integer >= 1, got 10.5$"),
        (0, "^m must be an integer >= 1, got 0$"),
        (np.int32(-1), "^m must be an integer >= 1, got -1$"),
        (True, "^m must be an integer >= 1, got True$"),
    ])
    def test_bad_size_rejected(self, m, message):
        spec = DgpSpec(3, 20, 3.0, seed=1)
        _, truth = draw_dataset(spec)
        with pytest.raises(ValueError, match=message):
            draw_test_set(spec, truth, m)

    def test_numpy_integer_size_accepted(self):
        spec = DgpSpec(3, 20, 3.0, seed=1)
        _, truth = draw_dataset(spec)
        assert draw_test_set(spec, truth, np.int64(7)).n == 7

    def test_true_coefficients_score_noise_variance(self):
        spec = DgpSpec(1, 30, 3.0, seed=6)
        _, truth = draw_dataset(spec)
        test = draw_test_set(spec, truth, m=10_000)
        mse = prediction_mse(truth.beta_true, 0.0, test)
        assert mse == pytest.approx(9.0, rel=0.05)


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        spec = DgpSpec(0, 12, 2.0, seed=9)
        data, _ = draw_dataset(spec)
        path = tmp_path / "d.csv"
        dataset_to_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,y"
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(loaded[:, :4], data.x)
        np.testing.assert_array_equal(loaded[:, 4], data.y)

    def test_model_betas_shapes(self):
        assert len(MODEL_BETAS[0]) == 4
        for m in (1, 2, 3):
            assert len(MODEL_BETAS[m]) == 8
