"""Golden reference: storage and the comparison that decides whether a
dataset's results still match it.

A dataset fails when any selection differs (estimator rows, support
counts, exact-recovery flag, the selected ``eta``/``k``/``lambda`` text,
the active set) or when any number deviates from the reference by a
relative error above ``REL_TOL``.  ``REL_TOL`` is the allowance for a
change of operation order in a later refactor.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

REL_TOL = 1e-9

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def rel_err(value, ref) -> float:
    """Relative deviation of ``value`` from ``ref``; the absolute
    deviation when ``ref`` is 0.  ``None`` only matches ``None``."""

    if value is None or ref is None:
        return 0.0 if value is None and ref is None else float("inf")
    if value == ref:
        return 0.0
    diff = abs(value - ref)
    return diff / abs(ref) if ref != 0 else diff


def _numbers_err(values, refs) -> float:
    if len(values) != len(refs):
        return float("inf")
    return max((rel_err(v, r) for v, r in zip(values, refs)), default=0.0)


def compare_study(record: dict, ref: dict) -> tuple[int, int, float]:
    """Compare one experiment call with its reference.

    Returns ``(datasets, failed, max_rel_err)``, where a dataset is one
    replication.  A difference in ``report.csv`` fails every replication
    of the call, since each feeds every aggregate.
    """

    def by_rep(rows):
        out: dict[int, list] = {}
        for row in rows:
            out.setdefault(row[0], []).append(row)
        return out

    got, want = by_rep(record["rows"]), by_rep(ref["rows"])
    worst = 0.0
    failed = set()
    for rep in set(got) | set(want):
        g, w = got.get(rep, []), want.get(rep, [])
        # selections: estimator, c_count, i_count, correct_model, detail
        if len(g) != len(w) or any(a[1] != b[1] or a[3:] != b[3:] for a, b in zip(g, w)):
            failed.add(rep)
            continue
        err = _numbers_err([a[2] for a in g], [b[2] for b in w])
        worst = max(worst, err)
        if err > REL_TOL:
            failed.add(rep)

    g, w = record["report"], ref["report"]
    if len(g) != len(w) or any(a[0] != b[0] for a, b in zip(g, w)):
        failed.update(want)
    else:
        err = max((_numbers_err(a[1:], b[1:]) for a, b in zip(g, w)), default=0.0)
        worst = max(worst, err)
        if err > REL_TOL:
            failed.update(want)
    return len(set(got) | set(want)), len(failed), worst


def compare_fit(record: dict, ref: dict) -> tuple[int, int, float]:
    """Compare one ``select_eta`` result with its reference: the selected
    eta and the active set must match exactly, the coefficients within
    ``REL_TOL``."""

    if record["best_eta"] != ref["best_eta"] or record["active"] != ref["active"]:
        return 1, 1, float("inf")
    err = _numbers_err(record["beta"], ref["beta"])
    return 1, int(err > REL_TOL), err


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(path_for(workload), "rt") as fh:
        return json.load(fh)


def save(workload: str, golden: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical when regenerated
    with open(path_for(workload), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write((json.dumps(golden, sort_keys=True) + "\n").encode())
