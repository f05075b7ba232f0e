"""Replicated simulation experiments: configuration, per-replication
workers, aggregation, and report files.

A run draws ``replications`` seeded datasets from one design, applies the
configured estimators to each, scores them on a fresh test set, and
aggregates median test error (with a bootstrap standard error), mean
correct/incorrect selection counts, and the exact-recovery proportion.

Replications execute independently (optionally across processes); every
random stream is derived from ``(master_seed, replication index)`` so the
outputs are byte-identical for any worker count.  The replications run
their BLAS on one thread: the caller pins its OpenBLAS copies to one
thread (``model._one_blas_thread``) for the whole run, in process or
while it forks the pool workers, so no worker ever starts a BLAS thread
pool, and restores its counts once the replications have ended.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .baselines import fit_ols, fit_ridge_gcv
from .em import VARIANTS, fit_em
from .errors import AdaRidgeError
from .evidence import (
    DEFAULT_ETA_GRID,
    DEFAULT_K_SWEEP,
    EVIDENCE_METHODS,
    _check_grid,
    _select_sweep,
    select_eta,
)
from .metrics import (
    median_and_bootstrap_se,
    path_contains_truth,
    support_metrics,
    test_mse,
)
from .model import (
    FitOptions,
    Hyper,
    _check_count,
    _check_number,
    _one_blas_thread,
    _openblas_thread_controls,
    destandardize_beta,
    standardize,
)
from .simulate import DgpSpec, draw_dataset, draw_test_set
from .solver import fit_joint_mode

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "parse_config",
    "run_experiment",
]

ESTIMATORS = ("aris-eb", "aris-eta0", "ols", "ridge-gcv", "em", "aris-path")
# The report row of Monte-Carlo aris-eb at one box width k.
_EB_ROW = "aris-eb-k{:g}"


class ExperimentFailure(AdaRidgeError):
    """A replication failed and failures were not allowed."""


@dataclass(frozen=True)
class ExperimentConfig:
    model_id: int
    n: int
    sigma: float
    replications: int
    test_size: int = 10_000
    eta_grid: tuple[float, ...] = DEFAULT_ETA_GRID
    evidence_method: str = "laplace"
    k_sweep: tuple[float, ...] = DEFAULT_K_SWEEP
    mc_draws: int = 1000
    master_seed: int = 0
    estimators: tuple[str, ...] = ("aris-eb", "aris-eta0", "ols", "ridge-gcv")
    em_eta: float = -1.0
    em_variant: str = "independent-prior"
    n_boot: int = 500

    def __post_init__(self):
        # Every check runs here, so a bad config fails before any replication.
        if self.evidence_method not in EVIDENCE_METHODS:
            raise ValueError(f"evidence_method must be one of {EVIDENCE_METHODS}")
        if not self.estimators:
            raise ValueError("estimators must be non-empty")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if self.em_variant not in VARIANTS:
            raise ValueError(f"em_variant must be one of {tuple(VARIANTS)}")
        _check_number(self.em_eta, f"em_eta for {self.em_variant}",
                      VARIANTS[self.em_variant], strict=False)
        object.__setattr__(self, "eta_grid", _check_grid(self.eta_grid, "eta_grid"))
        object.__setattr__(self, "k_sweep", tuple(
            _check_number(k, "k_sweep", 0.0) for k in self.k_sweep))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if ("aris-eb" in self.estimators and self.evidence_method == "mc"
                and not self.k_sweep):
            raise ValueError("k_sweep must be non-empty when aris-eb runs with mc")
        rows = _row_order(self)
        if len(set(rows)) != len(rows):
            raise ValueError(f"report rows repeat: {rows}")
        # Each integer key is checked against its least value and stored as
        # a Python int, so numpy integers reach provenance.json as plain ints.
        for key, low in _INT_KEYS.items():
            object.__setattr__(self, key, _check_count(getattr(self, key), key, low))
        DgpSpec(self.model_id, self.n, self.sigma, 0)


_INT_KEYS = {"model_id": 0, "n": 1, "replications": 1, "test_size": 1,
             "mc_draws": 1, "master_seed": 0, "n_boot": 2}
_FLOAT_KEYS = {"sigma", "em_eta"}
_LIST_KEYS = {"eta_grid", "k_sweep", "estimators"}
_STR_KEYS = {"evidence_method", "em_variant"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` experiment-configuration grammar.

    One assignment per line; ``#`` starts a comment; list values are
    comma-separated.  Unknown and repeated keys are rejected.
    """

    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key in lines:
                raise ValueError(f"key {key!r} repeats line {lines[key]}")
            lines[key] = lineno
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _STR_KEYS:
                values[key] = val
            elif key in _LIST_KEYS:
                items = [s.strip() for s in val.split(",") if s.strip()]
                values[key] = tuple(items) if key == "estimators" else tuple(
                    float(s) for s in items)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    missing = {"model_id", "n", "sigma", "replications"} - values.keys()
    if missing:
        raise ValueError(f"config missing required keys: {sorted(missing)}")
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class ReportRow:
    estimator: str
    median_mse: float | None
    boot_se: float | None
    mean_c: float | None
    mean_i: float | None
    cm: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    per_replication: tuple[dict, ...]
    provenance: dict = field(repr=False, default_factory=dict)


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _record(rep: int, name: str, detail: str, mse=None, c_count=None,
            i_count=None, correct_model=None) -> dict:
    return {"replication": rep, "estimator": name, "mse": mse,
            "c_count": c_count, "i_count": i_count,
            "correct_model": correct_model, "detail": detail}


def run_replication(config: ExperimentConfig, rep: int) -> list[dict]:
    """Fit every configured estimator on replication ``rep`` and score it.

    Returns one record per report row.  Monte-Carlo ``aris-eb`` is one
    ``evidence._select_sweep`` over ``k_sweep``: a row per box width, and
    ``aris-eb-best``, a copy of the row of the width the sweep picks.
    """

    spec = DgpSpec(config.model_id, config.n, config.sigma,
                   seed=_derive_seed(config.master_seed, rep))
    raw_train, truth = draw_dataset(spec)
    data, std = standardize(raw_train.x, raw_train.y)
    support = truth.support_true
    opts = FitOptions()
    test = None

    def scored(name, beta_std, active, detail="") -> dict:
        # The test set has its own stream, so drawing it on first use leaves
        # every value as it is, and a run that scores nothing never draws it.
        nonlocal test
        if test is None:
            test = draw_test_set(spec, truth, config.test_size)
        mse = test_mse(destandardize_beta(beta_std, std), std.y_mean, test)
        return _record(rep, name, detail, mse, *support_metrics(active, support))

    records: list[dict] = []
    all_true = np.ones(data.p, dtype=bool)

    for name in config.estimators:
        if name == "ols":
            records.append(scored("ols", fit_ols(data), all_true))
        elif name == "ridge-gcv":
            rf = fit_ridge_gcv(data)
            records.append(scored("ridge-gcv", rf.beta, all_true,
                                  f"lambda={rf.lam:g}"))
        elif name == "aris-eta0":
            fit = fit_joint_mode(data, Hyper(0.0), opts)
            records.append(scored("aris-eta0", fit.state.beta, fit.state.active))
        elif name == "em":
            emf = fit_em(data, Hyper(config.em_eta), opts, config.em_variant)
            records.append(scored("em", emf.beta, emf.active,
                                  f"eta={config.em_eta:g};{config.em_variant}"))
        elif name == "aris-eb" and config.evidence_method == "laplace":
            sel = select_eta(data, config.eta_grid, "laplace", opts)
            records.append(scored("aris-eb", sel.refit.state.beta,
                                  sel.refit.state.active, f"eta={sel.best_eta:g}"))
        elif name == "aris-eb":
            ks = config.k_sweep
            sels, top = _select_sweep(data, config.eta_grid, "mc", opts, ks, config.mc_draws,
                                      _derive_seed(config.master_seed, rep, 2))
            rows = [scored(_EB_ROW.format(k), sel.refit.state.beta, sel.refit.state.active,
                           f"eta={sel.best_eta:g}") for k, sel in zip(ks, sels)]
            records += rows + [{**rows[top], "estimator": "aris-eb-best",
                                "detail": f"k={ks[top]:g};eta={sels[top].best_eta:g}"}]
        elif name == "aris-path":
            masks = []  # memo hits where aris-eb ran; failed fits add no mask
            for eta in config.eta_grid:
                try:
                    masks.append(fit_joint_mode(data, Hyper(eta), opts).state.active)
                except AdaRidgeError:
                    pass
            # The path has no test error; its only score is exact recovery.
            records.append(_record(rep, "aris-path", "path", None, 0, 0,
                                   path_contains_truth(masks, support)))
    return records


def _blas_threads() -> int | None:
    """Largest thread count of the loaded OpenBLAS copies, or ``None``
    where no thread control resolves.  Under the run's pin this is 1; in a
    pool worker it is the count inherited through the fork."""

    counts = [getter() for _, getter in _openblas_thread_controls()]
    return max(counts) if counts else None


def _blas_build(show_config) -> str | None:
    """``"<name> <version>"`` of the BLAS a package was built against."""

    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _worker(args) -> tuple[int, list[dict] | None, str, int | None]:
    config, rep = args
    try:
        recs, err = run_replication(config, rep), ""
    except Exception as exc:  # recorded; aborts later unless allowed
        recs, err = None, f"{type(exc).__name__}: {exc}"
    return rep, recs, err, _blas_threads()


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can say, else
    the machine's count."""

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(jobs: int):
    """A process pool of ``jobs`` workers, forked where the platform can
    fork.  The pool modules are imported here, so a run without a pool
    never loads them."""

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def _row_order(config: ExperimentConfig) -> list[str]:
    order = []
    for name in config.estimators:
        if name == "aris-eb" and config.evidence_method == "mc":
            order.extend(map(_EB_ROW.format, config.k_sweep))
            order.append("aris-eb-best")
        else:
            order.append(name)
    return order


def aggregate(config: ExperimentConfig, per_replication: list[dict]) -> tuple[ReportRow, ...]:
    """Collapse per-replication records into one report row per estimator."""

    rows = []
    boot_seed = _derive_seed(config.master_seed, 999_983)
    for name in _row_order(config):
        recs = [r for r in per_replication if r["estimator"] == name]
        if not recs:
            continue
        cm = float(np.mean([bool(r["correct_model"]) for r in recs]))
        if name == "aris-path":
            rows.append(ReportRow(name, None, None, None, None, cm))
            continue
        mses = [r["mse"] for r in recs]
        med, se = median_and_bootstrap_se(mses, n_boot=config.n_boot, seed=boot_seed)
        rows.append(ReportRow(
            estimator=name,
            median_mse=med,
            boot_se=se,
            mean_c=float(np.mean([r["c_count"] for r in recs])),
            mean_i=float(np.mean([r["i_count"] for r in recs])),
            cm=cm,
        ))
    return tuple(rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _write_report_csv(path: Path, rows: tuple[ReportRow, ...]) -> None:
    lines = ["estimator,median_mse,boot_se,mean_c,mean_i,cm"]
    for r in rows:
        lines.append(",".join([
            r.estimator, _fmt(r.median_mse), _fmt(r.boot_se),
            _fmt(r.mean_c), _fmt(r.mean_i), _fmt(r.cm),
        ]))
    path.write_text("\n".join(lines) + "\n")


def _write_replications_csv(path: Path, records: list[dict]) -> None:
    lines = ["replication,estimator,mse,c_count,i_count,correct_model,detail"]
    for r in records:
        lines.append(",".join([
            str(r["replication"]), r["estimator"], _fmt(r["mse"]),
            _fmt(r["c_count"]), _fmt(r["i_count"]),
            "" if r["correct_model"] is None else str(int(r["correct_model"])),
            r["detail"],
        ]))
    path.write_text("\n".join(lines) + "\n")


def _write_report_txt(path: Path, config: ExperimentConfig,
                      rows: tuple[ReportRow, ...]) -> None:
    out = [
        f"model {config.model_id}  n={config.n}  sigma={config.sigma:g}  "
        f"replications={config.replications}  seed={config.master_seed}",
        "",
        f"{'estimator':<16} {'MSE (Sd)':>22} {'C':>6} {'I':>6} {'CM':>6}",
    ]
    for r in rows:
        if r.median_mse is None:
            out.append(f"{r.estimator:<16} {'-':>22} {'-':>6} {'-':>6} {r.cm:>6.2f}")
        else:
            mse = f"{r.median_mse:.4f} ({r.boot_se:.4f})"
            out.append(
                f"{r.estimator:<16} {mse:>22} {r.mean_c:>6.2f} "
                f"{r.mean_i:>6.2f} {r.cm:>6.2f}")
    path.write_text("\n".join(out) + "\n")


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path,
    jobs: int | None = None,
    allow_failures: bool = False,
) -> ExperimentReport:
    """Run all replications (possibly in parallel), aggregate, and write
    ``report.csv``, ``replications.csv``, ``report.txt`` and
    ``provenance.json`` under ``out_dir``.

    A failed replication aborts the run with ``ExperimentFailure`` unless
    ``allow_failures`` is set, in which case it is recorded and excluded
    from the aggregates; a replication's error never escapes otherwise.
    Results are byte-identical for any ``jobs`` value.

    ``jobs`` is the worker count: ``None`` means every CPU this process may
    run on (its affinity set where the platform has one, so a ``taskset``
    or a CPU-limited container is not oversubscribed), and any other value
    must be an integer >= 1 (``ValueError`` before any file is written).
    At most ``min(jobs, replications)`` workers run.

    The replications run with the caller's BLAS pinned to one thread
    (``model._one_blas_thread``), restored when they end.  With one worker
    they run in the calling process.  Otherwise the workers fork under the
    pin, so they inherit one BLAS thread and OpenBLAS never starts its
    thread pool in them, and they inherit ``numpy.random`` already
    imported; where fork is not available they start with their default
    count and pin it themselves in each fit.
    """

    jobs = _usable_cpus() if jobs is None else _check_count(jobs, "jobs")
    jobs = min(jobs, config.replications)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = [(config, rep) for rep in range(config.replications)]
    with _one_blas_thread():
        if jobs == 1:
            outcomes = [_worker(task) for task in tasks]
        else:
            # Forked workers inherit numpy.random instead of each importing it.
            import numpy.random  # noqa: F401
            with _pool(jobs) as pool:
                outcomes = list(pool.map(_worker, tasks))
    threads = [t for *_, t in outcomes if t is not None]

    records: list[dict] = []
    failures: list[tuple[int, str]] = []
    for rep, recs, err, _ in outcomes:
        if recs is None:
            failures.append((rep, err))
            records.append(_record(rep, "__error__", err))
        else:
            records.extend(recs)
    if failures and not allow_failures:
        rep, err = failures[0]
        raise ExperimentFailure(f"replication {rep} failed: {err}")

    rows = aggregate(config, records)
    provenance = {
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in asdict(config).items()},
        "package_version": __version__,
        "failures": [{"replication": r, "error": e} for r, e in failures],
        "environment": {
            "python": platform.python_version(),
            # not platform.platform(): it runs `uname -p` in a subprocess
            "platform": "-".join((platform.system(), platform.release(),
                                  platform.machine())),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": _blas_build(np.show_config),
            "scipy_blas": _blas_build(scipy.show_config),
            "jobs": jobs,
            "blas_threads": max(threads) if threads else None,
        },
    }
    _write_report_csv(out / "report.csv", rows)
    _write_replications_csv(out / "replications.csv", records)
    _write_report_txt(out / "report.txt", config, rows)
    (out / "provenance.json").write_text(
        json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    return ExperimentReport(rows=rows, per_replication=tuple(records),
                            provenance=provenance)
