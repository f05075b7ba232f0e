"""Command-line interface: ``fit`` a CSV, run an ``experiment`` from a
config file, or ``simulate`` a dataset to CSV.

Exit codes: 0 success, 2 input/parse errors, 3 solver errors,
4 experiment replication failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .errors import AdaRidgeError, DimensionMismatch, NonFiniteInput, ZeroNormColumn
from .evidence import (
    DEFAULT_ETA_GRID,
    DEFAULT_K,
    _check_grid,
    _check_mc,
    _score,
    select_eta,
)
from .experiment import ExperimentFailure, default_jobs, parse_config, run_experiment
from .model import (
    FitOptions,
    Hyper,
    _check_count,
    _check_seed,
    destandardize_beta,
    standardize,
)
from .simulate import DgpSpec, dataset_to_csv, draw_dataset, draw_test_set
from .solver import fit_joint_mode

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_EXPERIMENT = 4


class _ParseError(Exception):
    pass


def _read_csv_matrix(path: str, response: str | None):
    """Read a numeric CSV with a header row; the response is the named
    column, or the last column when unnamed."""

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise _ParseError(f"cannot read {path}: {exc}") from None
    if len(rows) < 2:
        raise _ParseError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    if response is None:
        y_col = len(header) - 1
    else:
        try:
            y_col = header.index(response)
        except ValueError:
            raise _ParseError(f"{path}: no column named {response!r}") from None
    x_cols = [j for j in range(len(header)) if j != y_col]
    x_rows, y_vals = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise _ParseError(f"{path} row {i}: expected {len(header)} fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise _ParseError(f"{path} row {i}: {exc}") from None
        x_rows.append([vals[j] for j in x_cols])
        y_vals.append(vals[y_col])
    names = [header[j] for j in x_cols]
    return np.asarray(x_rows), np.asarray(y_vals), names


def _fit_settings(args):
    """Check the option values of ``fit``; return ``(eta, opts)`` with
    ``eta`` None for 'eb'."""

    eta = None
    if args.eta != "eb":
        try:
            eta = float(args.eta)
        except ValueError:
            raise _ParseError(
                f"--eta must be a number or 'eb', got {args.eta!r}") from None
    try:
        if eta is not None:
            _check_grid([eta], "--eta")
        _check_grid(args.grid, "--grid")
        _check_mc(args.k, args.draws, ("--k", "--draws"))
        _check_seed(args.seed, "--seed")
        opts = FitOptions(max_iter=args.max_iter, conv_tol=args.conv_tol,
                          prune_tol=args.prune_tol)
    except ValueError as exc:
        raise _ParseError(str(exc)) from None
    return eta, opts


def cmd_fit(args) -> int:
    try:
        eta, opts = _fit_settings(args)
        raw_x, raw_y, names = _read_csv_matrix(args.csv, args.response)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        data, std = standardize(raw_x, raw_y)
    except (DimensionMismatch, NonFiniteInput, ZeroNormColumn) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        out: dict = {"predictors": names, "intercept": std.y_mean}
        if eta is None:
            sel = select_eta(data, args.grid, args.evidence, opts,
                             k=args.k, draws=args.draws, seed=args.seed)
            fit = sel.refit
            out["selected_eta"] = sel.best_eta
            out["evidence"] = [
                None if est is None else {
                    "eta": eta, "log_evidence": est.log_value,
                    "method": est.method, "k": est.k, "mc_se": est.mc_se,
                }
                for eta, est in zip(sel.grid, sel.estimates)
            ]
        else:
            fit = fit_joint_mode(data, Hyper(eta), opts)
            out["eta"] = eta
            if args.evidence_value:
                est = _score(fit, data, eta, args.evidence, args.k, args.draws,
                             args.seed)
                out["log_evidence"] = est.log_value
        state = fit.state
        out.update({
            "coefficients": list(destandardize_beta(state.beta, std)),
            "active": [int(a) for a in state.active],
            "sigma2": state.sigma2,
            "iterations": fit.iterations,
            "converged": fit.converged,
        })
    except AdaRidgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        config = parse_config(Path(args.config).read_text())
        jobs = default_jobs() if args.jobs is None else args.jobs
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = run_experiment(config, args.out, jobs=jobs,
                                allow_failures=args.allow_failures)
    except ExperimentFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT
    except AdaRidgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for row in report.rows:
        print(f"{row.estimator}: cm={row.cm:.3f}" + (
            "" if row.median_mse is None else
            f" median_mse={row.median_mse:.4f} ({row.boot_se:.4f})"))
    print(f"wrote report.csv, replications.csv, report.txt to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        spec = DgpSpec(model_id=args.model, n=args.n, sigma=args.sigma,
                       seed=args.seed)
        _check_count(args.test_size, "--test-size")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    train, truth = draw_dataset(spec)
    dataset_to_csv(train, args.out)
    if args.test_out:
        test = draw_test_set(spec, truth, args.test_size)
        dataset_to_csv(test, args.test_out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaridge",
        description="Sparse regression by adaptive ridge shrinkage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a numeric CSV")
    p_fit.add_argument("csv", help="input CSV; last column is the response "
                                   "unless --response is given")
    p_fit.add_argument("--response", default=None, help="response column name")
    p_fit.add_argument("--eta", default="eb",
                       help="shrinkage level, or 'eb' to select it by "
                            "empirical Bayes (default)")
    p_fit.add_argument("--evidence", choices=["laplace", "mc"], default="laplace")
    p_fit.add_argument("--evidence-value", action="store_true",
                       help="also report the log evidence of a fixed-eta fit")
    p_fit.add_argument("--k", type=float, default=DEFAULT_K, help="MC box width")
    p_fit.add_argument("--draws", type=int, default=1000)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--grid", type=float, nargs="+",
                       default=list(DEFAULT_ETA_GRID))
    p_fit.add_argument("--max-iter", type=int, default=500)
    p_fit.add_argument("--conv-tol", type=float, default=1e-8)
    p_fit.add_argument("--prune-tol", type=float, default=1e-8)
    p_fit.set_defaults(func=cmd_fit)

    p_exp = sub.add_parser("experiment", help="run a replicated experiment")
    p_exp.add_argument("config", help="flat key=value configuration file")
    p_exp.add_argument("--out", default="experiment-out", help="output directory")
    p_exp.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: ADARIDGE_JOBS or all cores)")
    p_exp.add_argument("--allow-failures", action="store_true",
                       help="record failed replications instead of aborting")
    p_exp.set_defaults(func=cmd_experiment)

    p_sim = sub.add_parser("simulate", help="write a simulated dataset to CSV")
    p_sim.add_argument("--model", type=int, required=True, choices=[0, 1, 2, 3])
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--sigma", type=float, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="training CSV path")
    p_sim.add_argument("--test-out", default=None, help="optional test CSV path")
    p_sim.add_argument("--test-size", type=int, default=10_000)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
