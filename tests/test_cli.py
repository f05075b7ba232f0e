import json
import runpy
import sys

import numpy as np
import pytest

from adaridge import (
    EVIDENCE_MU,
    FitOptions,
    Hyper,
    fit_joint_mode,
    laplace_log_evidence,
    mc_log_evidence,
    standardize,
)
from adaridge.cli import build_parser, main
from adaridge.simulate import MODEL_BETAS
from conftest import wide_design


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "simulate", "--model", "1", "--n", "20",
                                 "--sigma", "3", "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_model0_has_four_predictors(self, tmp_path, capsys):
        out = tmp_path / "m0.csv"
        code, _, _ = run_cli(capsys, "simulate", "--model", "0", "--n", "10",
                             "--sigma", "3", "--seed", "1", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "x1,x2,x3,x4,y"

    def test_test_set_written(self, tmp_path, capsys):
        out, test = tmp_path / "tr.csv", tmp_path / "te.csv"
        code, _, _ = run_cli(capsys, "simulate", "--model", "3", "--n", "15",
                             "--sigma", "3", "--seed", "2", "--out", str(out),
                             "--test-out", str(test), "--test-size", "25")
        assert code == 0
        assert len(test.read_text().splitlines()) == 26

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, err = run_cli(capsys, "simulate", "--model", "3", "--n", "40",
                                    "--sigma", "3", "--seed", "-1", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_bad_test_size_is_an_input_error(self, tmp_path, capsys):
        out, test = tmp_path / "d.csv", tmp_path / "t.csv"
        code, stdout, err = run_cli(capsys, "simulate", "--model", "3", "--n", "40",
                                    "--sigma", "3", "--seed", "1", "--out", str(out),
                                    "--test-out", str(test), "--test-size", "0")
        assert code == 2 and stdout == ""
        assert err == "error: --test-size must be an integer >= 1, got 0\n"
        assert not out.exists() and not test.exists()

    def test_unknown_model_id_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--model", "4", "--n", "40", "--sigma", "3",
                  "--seed", "1", "--out", str(out)])
        assert exited.value.code == 2
        choices = ", ".join(str(m) for m in sorted(MODEL_BETAS))
        assert f"--model: invalid choice: 4 (choose from {choices})" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def make_single_signal_csv(self, path, rng, n=40):
        x = rng.standard_normal(n)
        y = 5.0 * x
        rows = ["x1,y"] + [f"{float(xi)!r},{float(yi)!r}" for xi, yi in zip(x, y)]
        path.write_text("\n".join(rows) + "\n")

    def test_noiseless_single_signal(self, tmp_path, capsys, rng):
        path = tmp_path / "d.csv"
        self.make_single_signal_csv(path, rng)
        code, out, _ = run_cli(capsys, "fit", str(path), "--eta", "0")
        assert code == 0
        result = json.loads(out)
        assert result["active"] == [1]
        # the response is centered but the predictor is not, so the raw
        # slope differs from 5 by an O(xbar^2) term the intercept absorbs
        assert result["coefficients"][0] == pytest.approx(5.0, rel=0.02)
        assert result["sigma2"] < 0.2

    def test_boundary_eta_equals_ols(self, tmp_path, capsys, rng):
        path = tmp_path / "d.csv"
        x = rng.standard_normal((30, 2))
        y = x @ np.array([2.0, -1.0]) + rng.standard_normal(30)
        rows = ["x1,x2,y"] + [
            f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(x, y)
        ]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(path), "--eta", "-0.5")
        assert code == 0
        result = json.loads(out)
        xc, yc = x, y - y.mean()
        ols = np.linalg.lstsq(xc, yc, rcond=None)[0]
        np.testing.assert_allclose(result["coefficients"], ols, atol=1e-8)
        assert result["active"] == [1, 1]

    def test_eb_selection_output(self, tmp_path, capsys, rng):
        path = tmp_path / "d.csv"
        x = rng.standard_normal((60, 3))
        y = x @ np.array([4.0, 0.0, 0.0]) + rng.standard_normal(60)
        rows = ["x1,x2,x3,y"] + [
            ",".join(repr(float(v)) for v in list(xi) + [yi])
            for xi, yi in zip(x, y)
        ]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(path), "--eta", "eb",
                               "--grid", "0", "0.5", "2")
        assert code == 0
        result = json.loads(out)
        assert result["selected_eta"] in (0.0, 0.5, 2.0)
        assert len(result["evidence"]) == 3

    def test_byte_identical_stdout(self, tmp_path, capsys, rng):
        path = tmp_path / "d.csv"
        self.make_single_signal_csv(path, rng)
        _, out1, _ = run_cli(capsys, "fit", str(path), "--eta", "eb")
        _, out2, _ = run_cli(capsys, "fit", str(path), "--eta", "eb")
        assert out1 == out2

    def test_response_column_flag(self, tmp_path, capsys, rng):
        path = tmp_path / "d.csv"
        x = rng.standard_normal(25)
        y = 3.0 * x + 0.1 * rng.standard_normal(25)
        rows = ["resp,x1"] + [f"{float(yi)!r},{float(xi)!r}" for xi, yi in zip(x, y)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(path), "--response", "resp",
                               "--eta", "0")
        assert code == 0
        assert json.loads(out)["predictors"] == ["x1"]
        code, out, err = run_cli(capsys, "fit", str(path), "--response", "y",
                                 "--eta", "0")
        assert code == 2 and out == ""
        assert "no column named 'y'" in err

    def test_parse_error_exit_code_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\noops,3.0\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--eta", "0")
        assert code == 2
        assert "row 3" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"))
        assert code == 2

    @pytest.mark.parametrize("rows, error", [
        (["x1,x2,y", "1.0,nan,2.0", "2.0,1.0,3.0", "0.5,2.0,1.0"], "NonFiniteInput"),
        (["x1,x2,y", "1.0,0.0,2.0", "2.0,0.0,3.0", "0.5,0.0,1.0"], "ZeroNormColumn"),
        (["y", "2.0", "3.0"], "DimensionMismatch"),
        (["x1,y"], "need a header row and at least one data row"),
        (["x1,x2,y", "1.0,2.0,3.0", "1.0,2.0"], "row 3: expected 3 fields, got 2"),
    ])
    def test_invalid_data_is_an_input_error(self, tmp_path, capsys, rows, error):
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit", str(path), "--eta", "0")
        assert code == 2
        assert error in err and out == ""

    # one bad value per option; each must stop before any fitting
    @pytest.mark.parametrize("option", [
        ["--eta", "-1"],
        ["--eta", "abc"],
        ["--max-iter", "0"],
        ["--conv-tol", "0"],
        ["--grid", "1", "0"],
        ["--grid", "0", "0", "1"],
        ["--grid", "-2"],
        ["--evidence", "mc", "--draws", "0"],
        ["--evidence", "mc", "--k", "0"],
        ["--evidence", "mc", "--seed", "-1"],
    ], ids=["eta-minus-one", "eta-text", "max-iter", "conv-tol", "grid-descending",
            "grid-repeated", "grid-below-minus-one", "draws", "k", "seed"])
    def test_bad_option_value_is_an_input_error(self, tmp_path, capsys, rng, option):
        path = tmp_path / "d.csv"
        self.make_single_signal_csv(path, rng)
        code, out, err = run_cli(capsys, "fit", str(path), *option)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_iteration_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["fit", "d.csv"])
        assert FitOptions(args.max_iter, args.conv_tol, args.prune_tol) == FitOptions()

    def make_three_predictor_csv(self, path, rng):
        x = rng.standard_normal((50, 3))
        y = x @ np.array([3.0, 0.0, 1.0]) + rng.standard_normal(50)
        rows = ["x1,x2,x3,y"] + [
            ",".join(repr(float(v)) for v in list(xi) + [yi])
            for xi, yi in zip(x, y)
        ]
        path.write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("method, extra", [
        ("laplace", []),
        ("mc", ["--k", "10", "--draws", "200", "--seed", "3"]),
    ])
    def test_evidence_value_is_the_library_value(self, tmp_path, capsys, rng,
                                                 method, extra):
        path = tmp_path / "d.csv"
        self.make_three_predictor_csv(path, rng)
        code, out, _ = run_cli(capsys, "fit", str(path), "--eta", "0.5",
                               "--evidence", method, "--evidence-value", *extra)
        assert code == 0
        raw = np.loadtxt(path, delimiter=",", skiprows=1)
        data, _ = standardize(raw[:, :3], raw[:, 3])
        fit = fit_joint_mode(data, Hyper(0.5))
        h = Hyper(0.5, mu=EVIDENCE_MU)
        if method == "laplace":
            expected = laplace_log_evidence(fit, data, h)
        else:
            # the one-point grid's value, drawn from that grid's stream
            expected = mc_log_evidence(fit, data, h, k=10.0, draws=200,
                                       seed=[3, 0, 10])
        assert json.loads(out)["log_evidence"] == expected.log_value

    def test_evidence_value_is_the_one_point_grid_value(self, tmp_path, capsys,
                                                        rng):
        path = tmp_path / "d.csv"
        self.make_three_predictor_csv(path, rng)
        mc = ["--evidence", "mc", "--k", "10", "--draws", "200", "--seed", "3"]
        code, fixed, _ = run_cli(capsys, "fit", str(path), "--eta", "1",
                                 "--evidence-value", *mc)
        assert code == 0
        code, listed, _ = run_cli(capsys, "fit", str(path), "--grid", "1", *mc)
        assert code == 0
        (point,) = json.loads(listed)["evidence"]
        assert json.loads(fixed)["log_evidence"] == point["log_evidence"]

    def test_evidence_value_at_the_boundary_is_a_solver_error(self, tmp_path,
                                                              capsys, rng):
        path = tmp_path / "d.csv"
        self.make_single_signal_csv(path, rng)
        code, out, err = run_cli(capsys, "fit", str(path), "--eta", "-0.5",
                                 "--evidence-value")
        assert code == 3 and out == ""
        assert "NonInteriorMode" in err

    def make_unreachable_mode_csv(self, path):
        # a study replication whose eta=16 mode Newton cannot reach (see
        # test_evidence.py::TestNewtonPolish), written out exactly
        from adaridge.experiment import _derive_seed
        from adaridge.simulate import DgpSpec, draw_dataset

        raw, _ = draw_dataset(DgpSpec(3, 100, 3.0, seed=_derive_seed(83, 6)))
        rows = [",".join([f"x{j + 1}" for j in range(raw.p)] + ["y"])] + [
            ",".join(repr(float(v)) for v in list(xi) + [yi])
            for xi, yi in zip(raw.x, raw.y)
        ]
        path.write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("method", ["laplace", "mc"])
    def test_evidence_value_of_an_unreachable_mode_is_a_solver_error(
            self, tmp_path, capsys, method):
        path = tmp_path / "d.csv"
        self.make_unreachable_mode_csv(path)
        code, out, err = run_cli(capsys, "fit", str(path), "--eta", "16",
                                 "--evidence", method, "--evidence-value")
        assert code == 3 and out == ""
        assert "NonInteriorMode" in err

    @pytest.mark.parametrize("method", ["laplace", "mc"])
    def test_eb_lists_why_each_grid_point_failed(self, tmp_path, capsys, method):
        path = tmp_path / "d.csv"
        self.make_unreachable_mode_csv(path)
        code, out, _ = run_cli(capsys, "fit", str(path), "--eta", "eb",
                               "--grid", "-0.25", "16", "--evidence", method)
        assert code == 0
        result = json.loads(out)
        assert result["selected_eta"] == -0.25
        scored, failed = result["evidence"]
        assert scored["eta"] == -0.25 and failed is None
        assert result["failed"] == [{
            "eta": 16.0,
            "error": "NonInteriorMode: Newton finds no joint mode from the fit "
                     "or from the cycle"}]

    def test_solver_error_exit_code(self, tmp_path, capsys):
        # a single observation centers to an exactly-zero response, so the
        # initializer interpolates and the solver reports an exact fit
        path = tmp_path / "d.csv"
        path.write_text("x1,y\n2.0,5.0\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--eta", "0")
        assert code == 3
        assert "ExactFit" in err

    def test_least_squares_boundary_on_p_above_n_exit_code(self, tmp_path, capsys):
        x, y = wide_design()
        path = tmp_path / "wide.csv"
        header = ",".join([f"x{j + 1}" for j in range(x.shape[1])] + ["y"])
        np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header,
                   comments="")
        code, out, err = run_cli(capsys, "fit", str(path), "--eta", "-0.75")
        assert code == 3 and out == ""
        assert "RankDeficient" in err


class TestExperimentCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "model_id = 3\nn = 50\nsigma = 3\nreplications = 3\n"
            "test_size = 200\neta_grid = 0, 1\n"
            "estimators = aris-eta0, ols\nmaster_seed = 4\n"
        )
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "experiment", str(cfg), "--out",
                               str(out_dir), "--jobs", "1")
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert "aris-eta0" in out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense = 1\n")
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 2

    def test_repeated_config_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model_id = 3\nn = 20\nsigma = 3\nn = 40\nreplications = 2\n")
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out",
                                 str(tmp_path / "o"), "--jobs", "1")
        assert code == 2 and out == ""
        assert err == "error: config line 4: key 'n' repeats line 2\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_bad_jobs_exit_code(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model_id = 3\nn = 50\nsigma = 3\nreplications = 2\n")
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out",
                                 str(tmp_path / "o"), "--jobs", jobs)
        assert code == 2
        assert err == f"error: --jobs must be an integer >= 1, got {jobs}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_config_checked_before_any_replication(self, tmp_path, capsys):
        # both box widths label their report row "aris-eb-k10"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "model_id = 3\nn = 20\nsigma = 3\nreplications = 2\n"
            "evidence_method = mc\nk_sweep = 10, 10.000001\n"
        )
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out",
                                 str(tmp_path / "o"), "--jobs", "1")
        assert code == 2 and out == ""
        assert "aris-eb-k10" in err
        assert not (tmp_path / "o").exists()

    def test_negative_master_seed_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model_id = 3\nn = 40\nsigma = 3\nreplications = 2\n"
                       "master_seed = -4\n")
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out",
                                 str(tmp_path / "o"), "--jobs", "1")
        assert code == 2 and out == ""
        assert err == "error: master_seed must be an integer >= 0, got -4\n"
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model_id = 3\nn = 20\nsigma = 3\nreplications = 1\n")
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out",
                                 str(taken), "--jobs", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(taken) in err
        assert taken.read_text() == "keep me\n"

    # A replication's every error is caught and recorded, so a failed run
    # exits 4 whatever the replication raised.
    def test_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "model_id = 1\nn = 6\nsigma = 3\nreplications = 1\n"
            "test_size = 50\neta_grid = 0\nestimators = ols\nmaster_seed = 1\n"
        )
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out",
                               str(tmp_path / "o"), "--jobs", "1")
        assert code == 4


def test_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    # python -m adaridge.cli exits with the code main returns
    monkeypatch.setattr(sys, "argv", ["adaridge", "experiment", str(tmp_path / "none")])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("adaridge.cli", run_name="__main__")
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")
