"""adaridge benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload study-laplace --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Prints a metric table and an ``# environment`` line, then, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: a closed loop with one
caller for ``--seconds`` seconds, then the median of three fresh-process
set-ups.  ``--trace 1`` runs a fixed list of inputs both untraced and traced
(studies at ``--jobs 1``) and reports the per-layer metrics; the fixed
list is what makes its counts repeat exactly.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import golden
from spans import Tracer, layer_metrics, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("study-laplace", "study-mc", "fit-wide")

# A p50 needs ten samples beyond it, so every run makes at least 20 calls.
MIN_CALLS = 20
# Stop the timed loop by then even if MIN_CALLS is not reached, so that a
# run ends well inside its 180-second limit.
HARD_STOP_S = 120.0
SETUP_PROBES = 3

# Inputs of the traced run: enough replications for a p90 on the studies.
TRACE_CALLS = {"study-laplace": 8, "study-mc": 20, "fit-wide": 10}

END_TO_END_UNITS = {"setup_s": "s", "datasets_per_s": "1/s",
                    "call_p50_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "solver.fit.calls": "count", "solver.fit.busy_s": "s", "solver.iters": "count",
    "solver.us_per_iter": "us", "solver.unconverged": "count",
    "solver.repeat_ratio": "ratio", "solver.chol_mflop": "Mflop",
    "evidence.select.busy_s": "s",
    "evidence.laplace.calls": "count", "evidence.laplace.busy_s": "s",
    "evidence.mc.calls": "count", "evidence.mc.busy_s": "s",
    "evidence.mc.draws": "count",
    "evidence.box_volume.calls": "count", "evidence.box_volume.busy_s": "s",
    "evidence.grid_failed_ratio": "ratio",
    "experiment.run.busy_s": "s", "experiment.replication.p50_ms": "ms",
    "experiment.replication.p90_ms": "ms", "experiment.aggregate.busy_s": "s",
    "experiment.parallel_eff": "ratio",
    "simulate.draw.busy_s": "s", "simulate.test_draw.busy_s": "s",
    "simulate.rows": "count", "model.standardize.busy_s": "s",
    "metrics.busy_s": "s",
    "baselines.ols.busy_s": "s", "baselines.ridge_gcv.busy_s": "s",
    "em.fit.calls": "count", "em.fit.busy_s": "s", "em.iters": "count",
    "cli.busy_s": "s", "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    """Versions, BLAS and thread settings, exactly as found; the
    benchmark never sets thread counts itself."""

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Check:
    """Counts datasets attempted and failed against the golden reference."""

    def __init__(self, compare, records: dict):
        self.compare, self.records = compare, records
        self.attempted = self.failed = 0
        self.max_rel_err = 0.0

    def add(self, input_id: int, datasets: int, record: dict | None) -> None:
        if record is None:               # the call raised
            n, bad, err = datasets, datasets, 0.0
        elif str(input_id) in self.records:
            n, bad, err = self.compare(record, self.records[str(input_id)])
        else:                            # past the pool: raising is the only check
            n, bad, err = datasets, 0, 0.0
        self.attempted += n
        self.failed += bad
        if err != float("inf"):
            self.max_rel_err = max(self.max_rel_err, err)


def run_calls(wl, api, work, ids, jobs, check, seconds=None):
    """Closed loop with one caller over ``ids``; returns per-call seconds.

    With ``seconds`` the loop stops once that much time has passed and at
    least ``MIN_CALLS`` calls are done; otherwise it runs every id.  Only
    the program's own call is timed: writing inputs and reading and
    checking outputs are not.
    """

    durations: list[float] = []
    start = perf_counter()
    for i, input_id in enumerate(ids):
        if seconds is not None:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and i >= MIN_CALLS) or elapsed >= HARD_STOP_S:
                break
        run, record = wl.prepare(work, input_id, jobs)
        t0 = perf_counter()
        try:
            run(api)
            ok = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        durations.append(perf_counter() - t0)
        check.add(input_id, wl.datasets_per_call, record() if ok else None)
    return durations


def setup_seconds(workload: str) -> float:
    """Median over fresh processes of importing adaridge plus the first
    warm-up call."""

    times = []
    for k in range(SETUP_PROBES):
        work = WORK / f"probe-{os.getpid()}-{k}"
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(work)],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        shutil.rmtree(work, ignore_errors=True)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def untraced(wl, api, work, ids, seconds, check) -> tuple[dict, dict]:
    durations = run_calls(wl, api, work, ids, wl.jobs, check, seconds=seconds)
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ms = [1e3 * d for d in durations]
    metrics = {
        "datasets_per_s": len(durations) * wl.datasets_per_call / sum(durations),
        "call_p50_ms": percentile(ms, 0.5),
        "peak_rss_mb": kb / 1024.0,
        "setup_s": setup_seconds(wl.name),
    }
    p90 = percentile(ms, 0.9)
    extra = {"calls": len(durations),
             "call_p90_ms": p90 if p90 is not None
             else f"n/a: {len(ms)} calls, a p90 needs 100"}
    return metrics, extra


def traced(wl, api, work, ids, check, spans_out: Path) -> tuple[dict, dict]:
    """Each input runs untraced at --jobs 1, traced at --jobs 1 (in
    alternating order, so that drift in machine speed cancels) and, for a
    workload with more jobs, untraced at its own --jobs."""

    ids = ids[:TRACE_CALLS[wl.name]]
    tracer = Tracer()
    wall = {"untraced": 0.0, "traced": 0.0, "jobs": 0.0}
    for i, input_id in enumerate(ids):
        order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
        for step in order + (("jobs",) if wl.jobs > 1 else ()):
            if step == "traced":
                tracer.group = i
                with tracer.installed(api) as traced_api:
                    wall[step] += sum(run_calls(wl, traced_api, work, [input_id], 1, check))
            else:
                jobs = wl.jobs if step == "jobs" else 1
                wall[step] += sum(run_calls(wl, api, work, [input_id], jobs, check))
    if wl.jobs == 1:
        wall["jobs"] = wall["untraced"]

    metrics = layer_metrics(tracer.spans)
    reps = [s.end - s.start for s in tracer.spans if s.name == "experiment.replication"]
    datasets = len(ids) * wl.datasets_per_call
    # serial replication time over (jobs x untraced wall time), per replication
    metrics["experiment.parallel_eff"] = (
        (sum(reps) / len(reps)) / (wl.jobs * wall["jobs"] / datasets) if reps else 0.0)
    metrics["trace.overhead_ratio"] = wall["untraced"] / wall["traced"]

    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_out, "wt") as fh:
        json.dump({"workload": wl.name, "missing_sites": tracer.missing,
                   "spans": [s.as_dict(i) for i, s in enumerate(tracer.spans)]}, fh)
    extra = {"calls_per_phase": len(ids), "spans": len(tracer.spans),
             "spans_file": str(spans_out.relative_to(ROOT)),
             "missing_sites": tracer.missing}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adaridge" / "__init__.py").is_file():
        print(f"error: no adaridge package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads   # imports adaridge

    env = environment()
    wl = workloads.WORKLOADS[args.workload]
    ref = golden.load(wl.name)
    compare = golden.compare_study if isinstance(wl, workloads.Study) else golden.compare_fit
    check = Check(compare, ref["records"])
    api = workloads.default_api()
    ids = workloads.input_order(args.seed, 10_000)

    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workloads.warm_up(wl, work)
        if args.trace:
            spans_out = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.json.gz"
            metrics, extra = traced(wl, api, work, ids, check, spans_out)
            units = PER_LAYER_UNITS
        else:
            metrics, extra = untraced(wl, api, work, ids, args.seconds, check)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = dict(metrics)
    table["failed_ratio"] = check.failed / check.attempted
    table["result_rel_err"] = check.max_rel_err
    table.update(extra)
    table_units = {**units, "failed_ratio": "ratio", "result_rel_err": "ratio"}
    for name, value in table.items():
        print(f"{name:32s} {value} {table_units.get(name, '')}".rstrip())
    print("# environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
