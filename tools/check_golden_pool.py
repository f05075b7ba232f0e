"""Run every golden pool input of the benchmark workloads once and compare
each result with the golden reference; exit 1 on any mismatch.

    python3 tools/check_golden_pool.py [workload ...]

A timed benchmark run reaches only the pool inputs its time allows, in a
seed-dependent order; this check covers all of them.  It drives the
benchmark's own workload and comparison code (``benchmarks/workloads.py``
and ``benchmarks/golden.py``) without changing it, and runs each study at
one job, since the outputs do not depend on the worker count.  An unknown
workload name exits 2 before any input runs.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import golden  # noqa: E402
import workloads  # noqa: E402


def check(name: str, work: Path) -> int:
    """Run and compare every pool input of workload ``name``; return the
    number that do not match."""

    wl = workloads.WORKLOADS[name]
    refs = golden.load(name)["records"]
    compare = golden.compare_study if isinstance(wl, workloads.Study) else golden.compare_fit
    api = workloads.default_api()
    failed, worst = [], 0.0
    for input_id in range(workloads.POOL_SIZE):
        run, record = wl.prepare(work, input_id, 1)
        run(api)
        _, bad, err = compare(record(), refs[str(input_id)])
        worst = max(worst, err)
        if bad:
            failed.append(input_id)
    print(f"{name}: {workloads.POOL_SIZE - len(failed)} of {workloads.POOL_SIZE} "
          f"pool inputs match, worst relative error {worst:.3g}"
          + (f"; failed inputs {failed}" if failed else ""), flush=True)
    return len(failed)


def main(names) -> int:
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {', '.join(unknown)}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        failed = sum([check(name, Path(work)) for name in names or workloads.WORKLOADS])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
