"""Run the benchmark of two source trees in alternating pairs and compare
their end-to-end metrics; exit 1 if any run is not correct.

    python3 tools/ab_bench.py PARENT_TREE CHANGE_TREE --workload W [--workload W ...]
        --pairs N --seconds S --out FILE [--first-seed K]

Pair ``i`` runs each tree's own ``benchmarks/run.py --workload W --seed
K+i --seconds S --trace 0`` (K defaults to 1), the parent first for even
``i`` and the change first for odd ``i``, so that drift in machine speed
falls on both sides alike; with several workloads, they interleave
within a pair.  A run that exits non-zero, or whose result line reads
``correct: false``, stops the tool with exit 1 and writes nothing.

``FILE`` gets the ``end_to_end`` table of a ``BENCH_<pr>.json``: per
workload and metric, both sides' values (as recorded, to 4 decimals),
their medians and quartiles, in how many pairs the change was better
(ties count for neither side), by what share of the parent's median the
change is worse, the parent's interquartile range as a share of its
median, and whether the medians differ by more than that range.  Each
metric's direction and bound come from the parent tree's
``BENCHMARK.json``.  The statistics are taken on the recorded values, so
anyone can recompute them from the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# benchmarks/run.py stops its own timed loop by 120 s; its three set-up
# probes and golden comparisons come on top.
RUN_TIMEOUT_S = 600


def better_count(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better; a tie counts for
    neither side."""

    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """The comparison of one metric over paired runs, ``parent[i]`` and
    ``change[i]`` coming from pair ``i``."""

    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of parent and change runs, at least 2")
    pm, cm = statistics.median(parent), statistics.median(change)
    pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    iqr = pq[2] - pq[0]
    worse = (pm - cm) if better == "higher" else (cm - pm)
    return {
        "parent": parent,
        "change": change,
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "parent_quartiles": [round(pq[0], 4), round(pq[2], 4)],
        "change_quartiles": [round(cq[0], 4), round(cq[2], 4)],
        "change_better_in": f"{better_count(parent, change, better)} of {len(parent)}",
        "change_worse_by": round(worse / pm, 4),
        "bound": bound,
        "parent_iqr_share_of_median": round(iqr / pm, 4),
        "gap_exceeds_parent_iqr": abs(cm - pm) > iqr,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run from ``tree``: its result line, plus the
    ``environment`` it printed; ``RuntimeError`` if the run failed or is
    not correct."""

    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    where = f"{tree}: {' '.join(argv[1:])}"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{where} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{where} is not correct: {result['failed']} of "
                           f"{result['attempted']} datasets failed")
    for line in lines:
        if line.startswith("# environment "):
            result["environment"] = json.loads(line[len("# environment "):])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_TREE")
    parser.add_argument("change", type=Path, metavar="CHANGE_TREE")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    values = {w: {side: {m["name"]: [] for m in metrics} for side in trees}
              for w in args.workload}
    runs = {"correct": 0, "attempted": 0}
    environment = None
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                try:
                    result = run_once(trees[side], workload, seed, args.seconds)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                runs["correct"] += 1
                runs["attempted"] += result["attempted"]
                environment = environment or result.get("environment")
                for name, series in values[workload][side].items():
                    series.append(round(result["metrics"][name]["value"], 4))
                print(f"pair {i} seed {seed} {workload} {side}: " + ", ".join(
                    f"{name} {series[-1]}" for name, series in
                    values[workload][side].items()), flush=True)

    report = {
        "trees": {side: str(path) for side, path in trees.items()},
        "command": (f"python3 benchmarks/run.py --workload W --seed S "
                    f"--seconds {args.seconds} --trace 0"),
        "pairs": (f"{args.pairs} alternating pairs: pair i (seed "
                  f"{args.first_seed} + i) runs the parent first for even i and "
                  f"the change first for odd i; the workloads interleave within "
                  f"a pair"),
        "environment": environment,
        "runs": {"correct": runs["correct"], "total": runs["correct"], "failed": 0,
                 "attempted": runs["attempted"]},
        "end_to_end": {
            w: {m["name"]: summarize(values[w]["parent"][m["name"]],
                                     values[w]["change"][m["name"]],
                                     m["better"], m["bound"])
                for m in metrics}
            for w in args.workload
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
