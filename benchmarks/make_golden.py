"""Regenerate the golden reference of one or all workloads from the
program at the current commit:

    python3 benchmarks/make_golden.py [workload ...]

Each file under ``golden/`` maps every pool input id to the record the
workload extracts from that call, together with the environment it was
generated under.  Regenerate only when a change of results is intended,
and say so in CHANGES.md.
"""

import sys
import shutil
from pathlib import Path

import golden
from run import ROOT, SRC, WORK, WORKLOAD_NAMES, environment


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    for name in names or WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        work = WORK / f"golden-{name}"
        work.mkdir(parents=True, exist_ok=True)
        records = {}
        try:
            for input_id in range(workloads.POOL_SIZE):
                run, record = wl.prepare(work, input_id, wl.jobs)
                run(workloads.default_api())
                records[str(input_id)] = record()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        golden.save(name, {"workload": name, "environment": environment(),
                           "records": records})
        print(f"{name}: {len(records)} inputs -> {golden.path_for(name).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
