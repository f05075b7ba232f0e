import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from adaridge import Hyper, experiment, fit_joint_mode, model, standardize
from adaridge.errors import NonFiniteEvidence, SingularSystem
from adaridge.experiment import (
    ExperimentConfig,
    ExperimentFailure,
    _openblas_thread_controls,
    parse_config,
    run_experiment,
    run_replication,
)
from adaridge.simulate import DgpSpec, draw_dataset

CONFIG_TEXT = """
# sparse design, small smoke-test sizes
model_id = 3
n = 60
sigma = 3
replications = 4
test_size = 500
eta_grid = -0.25, 0, 0.5, 2
evidence_method = laplace
master_seed = 11
estimators = aris-eb, aris-eta0, ols, ridge-gcv, em, aris-path
"""

MC_CONFIG_TEXT = """
# Monte-Carlo evidence with a three-width k-sweep
model_id = 3
n = 20
sigma = 3
replications = 4
test_size = 300
eta_grid = -0.25, 0, 0.5, 2, 8
evidence_method = mc
k_sweep = 3, 100, 1000
mc_draws = 100
master_seed = 4
estimators = aris-eb, aris-path
"""


class TestParseConfig:
    def test_full_round_trip(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.model_id == 3 and cfg.n == 60 and cfg.sigma == 3.0
        assert cfg.eta_grid == (-0.25, 0.0, 0.5, 2.0)
        assert cfg.estimators[-1] == "aris-path"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("model_id = 1\nn = 10\nsigma = 1\nreplications = 1\nfoo = 2")

    def test_repeated_key_names_both_lines(self):
        # a repeat is an error, not a silent override by the later line
        with pytest.raises(ValueError,
                           match="^config line 4: key 'n' repeats line 2$"):
            parse_config("model_id = 1\nn = 20\nsigma = 1\nn = 40\nreplications = 1")

    def test_malformed_number_names_line(self):
        with pytest.raises(ValueError, match=r"config line 2: invalid literal"):
            parse_config("model_id = 1\nn = abc\nsigma = 1\nreplications = 1")
        with pytest.raises(ValueError, match=r"config line 3: could not convert"):
            parse_config("model_id = 1\nn = 10\neta_grid = 0, x\nsigma = 1")

    def test_line_without_assignment_names_line(self):
        with pytest.raises(ValueError, match="^config line 2: expected 'key = value'$"):
            parse_config("model_id = 1\nn 10\nsigma = 1\nreplications = 1")

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("model_id = 1")

    def test_estimator_validation(self):
        with pytest.raises(ValueError, match="unknown estimators"):
            ExperimentConfig(1, 30, 3.0, 2, estimators=("lasso",))
        with pytest.raises(ValueError, match="evidence_method must be one of"):
            ExperimentConfig(1, 30, 3.0, 2, estimators=("aris-eb",),
                             evidence_method="eta0-only")

    # each of these used to fail only inside the replications, or to write
    # duplicate report rows
    MC = dict(evidence_method="mc", estimators=("aris-eb",))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(eta_grid=(1.0, 0.0)), "ascending"),
        (dict(eta_grid=(0.0, 0.0, 1.0)),
         "^eta_grid must be non-empty and strictly ascending$"),
        (dict(eta_grid=(0.0, float("nan"))), "eta_grid"),
        (dict(model_id=7), "model_id"),
        (dict(sigma=-1.0), "sigma"),
        (dict(sigma=float("inf")), "sigma"),
        (dict(MC, k_sweep=()), "k_sweep"),
        (dict(MC, k_sweep=(3.0, float("inf"))), "k_sweep"),
        (dict(MC, k_sweep=(0.0,)), "k_sweep"),
        (dict(MC, mc_draws=0), "mc_draws"),
        (dict(n_boot=1), "n_boot"),
        (dict(estimators=("em",), em_variant="explicit-sigma", em_eta=-1.0),
         "em_eta"),
        (dict(estimators=("ols", "ols")), "repeat"),
        (dict(MC, k_sweep=(10.0, 10.0)), "repeat"),
        (dict(MC, k_sweep=(10.0, 10.000001)), "repeat"),
        (dict(model_id=3.0), "^model_id must be an integer >= 0, got 3.0$"),
        (dict(n=40.0), "^n must be an integer >= 1, got 40.0$"),
        (dict(replications=2.5), "^replications must be an integer >= 1, got 2.5$"),
        (dict(test_size=np.float64(100)), "^test_size must be an integer >= 1, got 100.0$"),
        (dict(master_seed=1.0), "^master_seed must be an integer >= 0, got 1.0$"),
        (dict(master_seed=-4), "^master_seed must be an integer >= 0, got -4$"),
        (dict(n_boot=500.0), "^n_boot must be an integer >= 2, got 500.0$"),
        (dict(k_sweep=(), mc_draws=2.5), "^mc_draws must be an integer >= 1, got 2.5$"),
        (dict(k_sweep=(), mc_draws=0), "^mc_draws must be an integer >= 1, got 0$"),
        (dict(replications="2"), "^replications must be an integer >= 1, got 2$"),
        (dict(test_size=None), "^test_size must be an integer >= 1, got None$"),
        (dict(n_boot="500"), "^n_boot must be an integer >= 2, got 500$"),
        (dict(sigma="3"), "^sigma must be a finite number >= 0, got '3'$"),
        (dict(estimators=("em",), em_eta="x"),
         "^em_eta for independent-prior must be a finite number >= -1.5, got 'x'$"),
        (dict(em_eta="x"),
         "^em_eta for independent-prior must be a finite number >= -1.5, got 'x'$"),
        (dict(em_variant="explicit-sigma"),
         "^em_eta for explicit-sigma must be a finite number >= -0.5, got -1.0$"),
        (dict(em_variant="gibbs"), "^em_variant must be one of"),
        (dict(estimators=()), "^estimators must be non-empty$"),
        (dict(MC, k_sweep=(None,)), "^k_sweep must be a finite number > 0, got None$"),
        (dict(eta_grid=(0.0, None)), "^eta_grid values must be a finite number > -1, got None$"),
        (dict(replications=0), "^replications must be an integer >= 1, got 0$"),
        (dict(test_size=-1), "^test_size must be an integer >= 1, got -1$"),
    ], ids=["grid-descending", "grid-repeated", "grid-nan", "model-id", "sigma",
            "sigma-infinite", "k-sweep-empty",
            "k-sweep-infinite", "k-sweep-zero", "mc-draws", "n-boot", "em-eta",
            "estimator-repeated", "k-repeated", "k-label-repeated",
            "model-id-float", "n-float", "replications-float", "test-size-float",
            "master-seed-float", "master-seed-negative", "n-boot-float",
            "mc-draws-float-no-sweep", "mc-draws-zero-no-sweep", "replications-str",
            "test-size-none", "n-boot-str", "sigma-str", "em-eta-str", "em-eta-str-without-em",
            "em-eta-default-explicit-sigma", "em-variant", "estimators-empty",
            "k-sweep-none", "grid-none",
            "replications-zero", "test-size-negative"])
    def test_bad_config_rejected_before_any_replication(self, kwargs, message):
        fields = dict(model_id=3, n=40, sigma=3.0, replications=2) | kwargs
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)

    def test_boundary_values_accepted(self):
        ExperimentConfig(3, 40, 3.0, 2, n_boot=2, estimators=("em",),
                         em_variant="explicit-sigma", em_eta=-0.5)
        ExperimentConfig(3, 40, 0.0, 2, k_sweep=(10.0, 10.0001), mc_draws=1,
                         **self.MC)


# every integer key of a config, with its least value
LEAST = {"model_id": 0, "n": 1, "replications": 1, "test_size": 1, "mc_draws": 1,
         "master_seed": 0, "n_boot": 2}


@given(name=st.sampled_from(sorted(LEAST)),
       value=st.one_of(st.none(), st.floats(), st.integers(-3, 600).map(str),
                       st.lists(st.integers(0, 9), max_size=2)))
def test_range_checked_fields_are_integers_first(name, value):
    # every integer key is checked as an integer before its range, so a
    # string, None or float gets the field-named error, not a TypeError
    fields = dict(model_id=3, n=40, sigma=3.0, replications=2) | {name: value}
    with pytest.raises(ValueError) as info:
        ExperimentConfig(**fields)
    assert str(info.value) == f"{name} must be an integer >= {LEAST[name]}, got {value}"


def ints(lo, hi):
    """Python, ``np.int64`` and ``np.int32`` integers in ``[lo, hi]``."""

    return st.builds(lambda kind, value: kind(value),
                     st.sampled_from([int, np.int64, np.int32]),
                     st.integers(lo, hi))


@settings(max_examples=12)
@given(n=ints(20, 40), replications=ints(1, 1), mc_draws=ints(1, 30),
       master_seed=ints(0, 2**31 - 1))
def test_numpy_integers_reach_provenance_as_ints(n, replications, mc_draws,
                                                 master_seed):
    drawn = dict(n=n, replications=replications, mc_draws=mc_draws,
                 master_seed=master_seed)
    cfg = ExperimentConfig(model_id=3, sigma=3.0, test_size=50,
                           eta_grid=(0.0, 1.0), evidence_method="mc",
                           k_sweep=(10.0,), estimators=("aris-eb",), **drawn)
    with tempfile.TemporaryDirectory() as out:
        run_experiment(cfg, out, jobs=1)
        with open(os.path.join(out, "provenance.json")) as fh:
            config = json.loads(fh.read())["config"]
    for name, value in drawn.items():
        assert config[name] == int(value)
        assert type(getattr(cfg, name)) is int


class TestRunReplication:
    def test_produces_one_record_per_estimator(self):
        cfg = parse_config(CONFIG_TEXT)
        records = run_replication(cfg, 0)
        names = [r["estimator"] for r in records]
        assert names == ["aris-eb", "aris-eta0", "ols", "ridge-gcv", "em",
                         "aris-path"]
        for r in records:
            if r["estimator"] != "aris-path":
                assert r["mse"] > 0
            assert r["correct_model"] in (True, False)

    def test_mc_sweep_rows(self):
        cfg = ExperimentConfig(3, 40, 3.0, 1, test_size=200,
                               eta_grid=(0.0, 0.5), evidence_method="mc",
                               k_sweep=(3.0, 10.0), mc_draws=200,
                               estimators=("aris-eb",), master_seed=5)
        records = run_replication(cfg, 0)
        names = [r["estimator"] for r in records]
        assert names == ["aris-eb-k3", "aris-eb-k10", "aris-eb-best"]
        best = records[-1]
        assert best["detail"].startswith("k=")

    def test_mc_sweep_fits_each_grid_point_once(self, monkeypatch):
        import adaridge.evidence as ev

        calls = {"fit_joint_mode": 0, "mc_log_evidence": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(ev, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(ev, name, counted)
        cfg = ExperimentConfig(3, 20, 3.0, 1, test_size=200, evidence_method="mc",
                               mc_draws=200, estimators=("aris-eb", "aris-eta0"))
        run_replication(cfg, 0)
        # one fit per grid point, and one Monte-Carlo score per point and width
        points = len(cfg.eta_grid)
        assert calls == {"fit_joint_mode": points,
                         "mc_log_evidence": points * len(cfg.k_sweep)}

    @pytest.mark.parametrize("method", ["laplace", "mc"])
    def test_path_record_independent_of_order_and_evidence(self, method,
                                                           monkeypatch):
        import adaridge.evidence as ev

        base = dict(model_id=3, n=40, sigma=3.0, replications=1, test_size=200,
                    evidence_method=method, k_sweep=(10.0,), mc_draws=200,
                    master_seed=7)

        def path_record(estimators):
            records = run_replication(ExperimentConfig(**base, estimators=estimators), 0)
            (rec,) = [r for r in records if r["estimator"] == "aris-path"]
            assert rec["mse"] is None   # the path has no test error
            return {key: v for key, v in rec.items() if key != "mse"}

        alone = path_record(("aris-path",))
        assert path_record(("aris-path", "aris-eb")) == alone
        assert path_record(("aris-eb", "aris-path")) == alone

        # evidence that fails on all but the last grid point leaves every
        # fit on the path
        name = "laplace_log_evidence" if method == "laplace" else "mc_log_evidence"
        real = getattr(ev, name)
        last = ExperimentConfig(**base).eta_grid[-1]

        def last_point_only(fit, data, h, **kw):
            if h.eta != last:
                raise NonFiniteEvidence("synthetic failure")
            return real(fit, data, h, **kw)

        monkeypatch.setattr(ev, name, last_point_only)
        assert path_record(("aris-eb", "aris-path")) == alone


    def test_a_failed_grid_fit_is_left_off_the_path(self):
        # p = 8 > n = 6: on this replication the fit at eta -0.45 raises
        # SingularSystem, and the path takes the other two fits
        cfg = ExperimentConfig(3, 6, 3.0, 1, test_size=50,
                               eta_grid=(-0.45, 0.0, 1.0),
                               estimators=("aris-path",), master_seed=3)
        raw, _ = draw_dataset(DgpSpec(3, 6, 3.0, experiment._derive_seed(3, 0)))
        data, _ = standardize(raw.x, raw.y)
        with pytest.raises(SingularSystem):
            fit_joint_mode(data, Hyper(-0.45))
        fewer = ExperimentConfig(3, 6, 3.0, 1, test_size=50, eta_grid=(0.0, 1.0),
                                 estimators=("aris-path",), master_seed=3)
        assert run_replication(cfg, 0) == run_replication(fewer, 0)


class TestRunExperiment:
    def test_single_replication_report_is_verbatim(self, tmp_path):
        cfg = ExperimentConfig(3, 60, 3.0, 1, test_size=300,
                               eta_grid=(0.0, 1.0),
                               estimators=("aris-eta0", "ols"), master_seed=3)
        report = run_experiment(cfg, tmp_path, jobs=1)
        recs = {r["estimator"]: r for r in report.per_replication}
        rows = {r.estimator: r for r in report.rows}
        for name in ("aris-eta0", "ols"):
            assert rows[name].median_mse == recs[name]["mse"]
            assert rows[name].cm == float(recs[name]["correct_model"])
            assert rows[name].mean_c == float(recs[name]["c_count"])

    @staticmethod
    def assert_worker_count_invariant(text, tmp_path):
        cfg = parse_config(text)
        r1 = run_experiment(cfg, tmp_path / "a", jobs=1)
        r2 = run_experiment(cfg, tmp_path / "b", jobs=3)
        assert (tmp_path / "a" / "report.csv").read_bytes() == \
               (tmp_path / "b" / "report.csv").read_bytes()
        assert (tmp_path / "a" / "replications.csv").read_bytes() == \
               (tmp_path / "b" / "replications.csv").read_bytes()
        assert r1.rows == r2.rows

    def test_worker_count_invariance(self, tmp_path):
        self.assert_worker_count_invariant(CONFIG_TEXT, tmp_path)

    def test_worker_count_invariance_mc_sweep(self, tmp_path):
        self.assert_worker_count_invariant(MC_CONFIG_TEXT, tmp_path)
        rows = (tmp_path / "a" / "report.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == [
            "aris-eb-k3", "aris-eb-k100", "aris-eb-k1000", "aris-eb-best", "aris-path"]

    def test_aggregates_recomputable_from_replications(self, tmp_path):
        from adaridge import median_and_bootstrap_se
        from adaridge.experiment import _derive_seed

        cfg = ExperimentConfig(1, 50, 3.0, 6, test_size=300,
                               eta_grid=(0.0,), estimators=("ols", "aris-eta0"),
                               master_seed=9)
        report = run_experiment(cfg, tmp_path, jobs=1)
        lines = (tmp_path / "replications.csv").read_text().splitlines()[1:]
        by_est: dict[str, list[float]] = {}
        for line in lines:
            parts = line.split(",")
            by_est.setdefault(parts[1], []).append(float(parts[2]))
        boot_seed = _derive_seed(cfg.master_seed, 999_983)
        for row in report.rows:
            med, se = median_and_bootstrap_se(by_est[row.estimator],
                                              n_boot=cfg.n_boot, seed=boot_seed)
            assert row.median_mse == med
            assert row.boot_se == se

    def test_failures_abort_without_flag(self, tmp_path):
        # n < p makes least squares rank-deficient, failing the replication
        cfg = ExperimentConfig(1, 6, 3.0, 2, test_size=100,
                               eta_grid=(0.0,), estimators=("ols",),
                               master_seed=1)
        with pytest.raises(ExperimentFailure):
            run_experiment(cfg, tmp_path / "x", jobs=1)
        report = run_experiment(cfg, tmp_path / "y", jobs=1, allow_failures=True)
        assert report.provenance["failures"]
        assert not report.rows  # nothing aggregable

    @pytest.mark.parametrize("jobs", [0, -1, 2.5, "2", True])
    def test_bad_jobs_rejected_before_any_file(self, tmp_path, jobs):
        cfg = ExperimentConfig(3, 40, 3.0, 5, test_size=100, eta_grid=(0.0,),
                               estimators=("ols",), master_seed=6)
        with pytest.raises(ValueError, match="^jobs must be an integer >= 1"):
            run_experiment(cfg, tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_workers_capped_at_replications(self, tmp_path):
        cfg = ExperimentConfig(3, 40, 3.0, 2, test_size=100, eta_grid=(0.0,),
                               estimators=("ols",), master_seed=6)
        report = run_experiment(cfg, tmp_path, jobs=8)
        assert report.provenance["environment"]["jobs"] == 2

    def test_default_jobs_is_every_core(self, tmp_path):
        cfg = ExperimentConfig(3, 40, 3.0, 3, test_size=100, eta_grid=(0.0,),
                               estimators=("ols",), master_seed=6)
        report = run_experiment(cfg, tmp_path)
        assert report.provenance["environment"]["jobs"] == min(os.cpu_count() or 1, 3)

    def test_provenance_records_numeric_environment(self, tmp_path, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a run at one job starts no process")

        # platform.platform() would start one, for `uname -p`
        monkeypatch.setattr(subprocess, "Popen", no_process)
        cfg = ExperimentConfig(3, 40, 3.0, 1, test_size=100, eta_grid=(0.0,),
                               estimators=("ols",), master_seed=6)
        run_experiment(cfg, tmp_path, jobs=1)
        env = json.loads((tmp_path / "provenance.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["platform"] == "-".join(
            (platform.system(), platform.release(), platform.machine()))
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["jobs"] == 1
        assert set(env) == {"python", "platform", "numpy", "scipy", "numpy_blas",
                            "scipy_blas", "jobs", "blas_threads"}
        for name in ("report.csv", "replications.csv", "report.txt"):
            text = (tmp_path / name).read_text()
            assert np.__version__ not in text and "blas" not in text
            assert env["platform"] not in text

    @pytest.mark.parametrize("show_config", [
        lambda mode: {},                      # no "Build Dependencies"
        lambda: None,                         # no mode argument
    ], ids=["no-blas-entry", "old-signature"])
    def test_unknown_blas_build_is_recorded_as_none(self, show_config):
        assert experiment._blas_build(show_config) is None

    def test_report_files_written(self, tmp_path):
        cfg = ExperimentConfig(3, 60, 3.0, 2, test_size=200, eta_grid=(0.0,),
                               estimators=("aris-eta0",), master_seed=2)
        run_experiment(cfg, tmp_path, jobs=1)
        for name in ("report.csv", "replications.csv", "report.txt",
                     "provenance.json"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "estimator,median_mse,boot_se,mean_c,mean_i,cm"


class TestBlasThreads:
    """Replications run one BLAS thread, in process or in pool workers; the
    caller gets its own count back when the run ends."""

    @pytest.fixture
    def controls(self):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control resolves")
        return controls

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no per-process thread list to read")
    def test_pool_workers_run_one_native_thread(self, monkeypatch, tmp_path):
        # the forked workers inherit the patch, so provenance reports the
        # most native threads any worker had after its replication: a BLAS
        # thread pool started in a worker shows as more than one
        monkeypatch.setattr(experiment, "_blas_threads",
                            lambda: len(os.listdir("/proc/self/task")))
        report = run_experiment(parse_config(CONFIG_TEXT), tmp_path, jobs=2)
        assert report.provenance["environment"]["blas_threads"] == 1

    def test_parent_threads_restored_when_the_pool_raises(
            self, controls, monkeypatch, tmp_path):
        pinned, built = [], []

        class FailingPool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                pinned.extend(get() for _, get in controls)
                raise RuntimeError("pool broke")

        def pool(jobs):
            # the workers fork from here: numpy.random must be loaded by now
            built.append((jobs, "numpy.random" in sys.modules))
            return FailingPool()

        # unload numpy.random, so that only the run itself can load it again
        monkeypatch.delitem(sys.modules, "numpy.random")
        monkeypatch.delattr(np, "random")
        monkeypatch.setattr(experiment, "_pool", pool)
        before = [get() for _, get in controls]
        try:
            for set_threads, _ in controls:
                set_threads(2)
            with pytest.raises(RuntimeError, match="pool broke"):
                run_experiment(parse_config(CONFIG_TEXT), tmp_path, jobs=2)
            assert pinned == [1] * len(controls)
            assert [get() for _, get in controls] == [2] * len(controls)
            assert built == [(2, True)]
        finally:
            for (set_threads, _), count in zip(controls, before):
                set_threads(count)

    def test_parent_threads_unchanged_by_pooled_run(self, controls, tmp_path):
        # two threads in the parent, so that a pin leaking into it shows
        before = [get() for _, get in controls]
        try:
            for set_threads, _ in controls:
                set_threads(2)
            report = run_experiment(parse_config(CONFIG_TEXT), tmp_path, jobs=2)
            assert [get() for _, get in controls] == [2] * len(controls)
        finally:
            for (set_threads, _), count in zip(controls, before):
                set_threads(count)
        assert report.provenance["environment"]["blas_threads"] == 1

    def test_in_process_run_reads_one_thread_and_restores(self, controls,
                                                          tmp_path):
        before = [get() for _, get in controls]
        try:
            for set_threads, _ in controls:
                set_threads(2)
            run_experiment(parse_config(CONFIG_TEXT), tmp_path, jobs=1)
            assert [get() for _, get in controls] == [2] * len(controls)
        finally:
            for (set_threads, _), count in zip(controls, before):
                set_threads(count)
        provenance = json.loads((tmp_path / "provenance.json").read_text())
        assert provenance["environment"]["blas_threads"] == 1

    def test_in_process_run_sets_no_copy_already_on_one_thread(
            self, monkeypatch, tmp_path):
        # the forked-worker rule: a set call there starts a thread pool
        calls = []

        def get():
            calls.append("get")
            return 1

        fake = ((calls.append, get),) * 2
        monkeypatch.setattr(model, "_openblas_thread_controls", lambda: fake)
        monkeypatch.setattr(experiment, "_openblas_thread_controls", lambda: fake)
        report = run_experiment(parse_config(CONFIG_TEXT), tmp_path, jobs=1)
        assert calls and set(calls) == {"get"}
        assert report.provenance["environment"]["blas_threads"] == 1
