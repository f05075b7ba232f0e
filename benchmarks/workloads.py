"""The three benchmark workloads and how each turns a call into a
comparable record.

Every workload draws its inputs from a fixed pool of ``POOL_SIZE``
entries, visited in a seed-dependent order, so that the golden reference
(``golden/<workload>.json.gz``) covers every input a run sees.  A run that
needs more calls than the pool holds continues with fresh inputs outside
the pool; those are checked only for raising, never repeated.

The program is driven only through its public entry points:
``adaridge.cli.main`` for the two studies, ``adaridge.standardize`` and
``adaridge.select_eta`` for ``fit-wide``.  The entry points are looked up
in ``api`` at call time, so the traced run can substitute wrapped ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from pathlib import Path

import numpy as np

import adaridge
import adaridge.cli

POOL_SIZE = 100

# Seed of the warm-up input, outside every pool.
WARMUP_SEED = 987_654_321


def default_api() -> dict:
    return {
        "cli_main": adaridge.cli.main,
        "standardize": adaridge.standardize,
        "select_eta": adaridge.select_eta,
    }


def warm_up(wl, work: Path) -> None:
    """The first call of a process, on a fixed input outside the pool.
    A study runs one replication per worker, so that a pool starts."""

    run, _ = wl.prepare(work, WARMUP_SEED, wl.jobs, reps=wl.jobs)
    run(default_api())


def input_order(seed: int, count: int) -> list[int]:
    """Input ids of the first ``count`` calls of a run: a seed-dependent
    permutation of the pool, then fresh ids past it."""

    order = [int(j) for j in np.random.default_rng([seed, 17]).permutation(POOL_SIZE)]
    fresh = np.random.SeedSequence([seed, 29]).generate_state(max(count - POOL_SIZE, 0), np.uint32)
    return (order + [POOL_SIZE + int(f) for f in fresh])[:count]


def _num(text: str):
    return None if text == "" else float(text)


class Study:
    """One ``adaridge experiment`` CLI call per input; the input id is the
    experiment's master seed."""

    def __init__(self, name: str, config: str, reps: int, jobs: int):
        self.name = name
        self.config = config
        self.datasets_per_call = reps   # replications per call
        self.jobs = jobs                # --jobs of the untraced run

    def prepare(self, work: Path, input_id: int, jobs: int, reps: int | None = None):
        """Write the config; return ``run(api)``, the part to time, and
        ``record()``, which reads the outputs after it."""

        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        cfg = work / "experiment.cfg"
        cfg.write_text(self.config + f"replications = {reps or self.datasets_per_call}\n"
                       f"master_seed = {input_id}\n")
        argv = ["experiment", str(cfg), "--out", str(out), "--jobs", str(jobs)]

        def run(api):
            with contextlib.redirect_stdout(io.StringIO()):
                code = api["cli_main"](argv)
            if code != 0:
                raise RuntimeError(f"adaridge experiment exited with {code}")

        return run, lambda: self.record(out)

    @staticmethod
    def record(out: Path) -> dict:
        """Selections and numbers of ``replications.csv`` and ``report.csv``."""

        with open(out / "replications.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        reps = [[int(r[0]), r[1], _num(r[2]), int(r[3]), int(r[4]), int(r[5]), r[6]]
                for r in rows]
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        report = [[r[0]] + [_num(v) for v in r[1:]] for r in rows]
        return {"rows": reps, "report": report}


class FitWide:
    """One ``standardize`` + ``select_eta(method="laplace")`` call per
    input, on a benchmark-generated dataset: n=800, p=200, 10 nonzero
    coefficients, noise sd 1, rows iid N(0, I).  A closed loop with one
    caller."""

    name = "fit-wide"
    jobs = 1
    datasets_per_call = 1
    n, p, nonzero = 800, 200, 10

    def make_input(self, input_id: int):
        rng = np.random.default_rng([input_id, 31])
        x = rng.standard_normal((self.n, self.p))
        beta = np.zeros(self.p)
        where = rng.choice(self.p, self.nonzero, replace=False)
        beta[where] = rng.choice([-1.0, 1.0], self.nonzero) * rng.uniform(0.5, 2.0, self.nonzero)
        y = x @ beta + rng.standard_normal(self.n)
        return x, y

    def prepare(self, work: Path, input_id: int, jobs: int, reps: int | None = None):
        x, y = self.make_input(input_id)
        box = {}

        def run(api):
            data, _ = api["standardize"](x, y)
            box["sel"] = api["select_eta"](data, method="laplace")

        return run, lambda: self.record(box["sel"])

    @staticmethod
    def record(sel) -> dict:
        """Selected eta, active set and coefficients of the refit."""

        state = sel.refit.state
        active = np.flatnonzero(state.active)
        return {"best_eta": sel.best_eta, "active": [int(j) for j in active],
                "beta": [float(b) for b in state.beta[active]]}


_STUDY_LAPLACE = """model_id = 3
n = 100
sigma = 3
test_size = 10000
evidence_method = laplace
estimators = aris-eb, aris-eta0, ols, ridge-gcv, em, aris-path
"""

_STUDY_MC = """model_id = 3
n = 20
sigma = 3
test_size = 10000
evidence_method = mc
k_sweep = 3, 10, 100, 1000
mc_draws = 1000
estimators = aris-eb, aris-eta0
"""

WORKLOADS = {
    "study-laplace": Study("study-laplace", _STUDY_LAPLACE, reps=20, jobs=2),
    "study-mc": Study("study-mc", _STUDY_MC, reps=5, jobs=1),
    "fit-wide": FitWide(),
}
