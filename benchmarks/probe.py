"""Set-up probe: time importing adaridge plus the first warm-up call in a
fresh process.  Run by run.py as ``probe.py <workload> <workdir>``;
prints ``{"setup_s": ...}``."""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main() -> int:
    workload, work = sys.argv[1], Path(sys.argv[2])
    t0 = perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads   # imports numpy and adaridge

    work.mkdir(parents=True, exist_ok=True)
    workloads.warm_up(workloads.WORKLOADS[workload], work)
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
