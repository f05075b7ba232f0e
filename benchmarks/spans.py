"""Spans for the traced run: wrappers around the program's public
functions, self time, and the per-layer metrics built from them.

The wrappers are installed at the module attributes through which
``adaridge.cli``, ``adaridge.experiment`` and ``adaridge.evidence`` call
each other, and removed when the traced phase ends; nothing in the
package itself records spans.  Spans stay in memory until the run ends.

Counts are read from returned objects (``ModeFit.iterations``,
``converged``, ``active_count_trace``; ``EbSelection.estimates``;
``EmFit.iterations``; ``EvidenceEstimate.mc_draws``), never from timings,
so a traced run of one seed repeats them exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from time import perf_counter

# (module, attribute, span name).  An attribute missing at a later
# commit is skipped and listed as such; its metrics read 0.
PATCH_SITES = [
    ("adaridge.cli", "run_experiment", "experiment.run"),
    ("adaridge.experiment", "run_replication", "experiment.replication"),
    ("adaridge.experiment", "aggregate", "experiment.aggregate"),
    ("adaridge.experiment", "draw_dataset", "simulate.draw"),
    ("adaridge.experiment", "draw_test_set", "simulate.test_draw"),
    ("adaridge.experiment", "standardize", "model.standardize"),
    ("adaridge.experiment", "fit_ols", "baselines.ols"),
    ("adaridge.experiment", "fit_ridge_gcv", "baselines.ridge_gcv"),
    ("adaridge.experiment", "fit_em", "em.fit"),
    ("adaridge.experiment", "fit_joint_mode", "solver.fit"),
    ("adaridge.experiment", "select_eta", "evidence.select"),
    ("adaridge.experiment", "box_log_volume", "evidence.box_volume"),
    ("adaridge.experiment", "test_mse", "metrics.test_mse"),
    ("adaridge.experiment", "median_and_bootstrap_se", "metrics.median_boot"),
    ("adaridge.evidence", "fit_joint_mode", "solver.fit"),
    ("adaridge.evidence", "laplace_log_evidence", "evidence.laplace"),
    ("adaridge.evidence", "mc_log_evidence", "evidence.mc"),
]

# Entry points the benchmark calls itself (see workloads.default_api).
API_SPANS = {"cli_main": "cli.main", "standardize": "model.standardize",
             "select_eta": "evidence.select"}


def percentile(samples, q: float):
    """Nearest-rank ``q``-quantile, or ``None`` unless at least ten
    samples lie beyond it."""

    values = sorted(samples)
    rank = max(1, math.ceil(q * len(values)))
    if len(values) - rank < 10:
        return None
    return values[rank - 1]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by its
    children (the union of their intervals, clipped to the span)."""

    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "info")

    def __init__(self, name, start, end, parent, group, info=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.group, self.info = parent, group, info

    def as_dict(self, sid: int) -> dict:
        return {"id": sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "group": self.group}


def _fit_info(args, kwargs, fit):
    data, h = args[0], args[1]
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    counts = getattr(fit, "active_count_trace", ())
    return {"data": data, "key": (float(h.eta), float(h.mu), repr(opts)),
            "iters": int(fit.iterations), "converged": bool(fit.converged),
            "kcube": float(sum(int(k) ** 3 for k in counts))}


# What each span keeps of its call, read after the span has ended.
_INFO = {
    "solver.fit": _fit_info,
    "evidence.select": lambda a, kw, sel: {
        "points": len(sel.estimates),
        "failed": sum(e is None for e in sel.estimates)},
    "evidence.mc": lambda a, kw, est: {"draws": int(est.mc_draws)},
    "em.fit": lambda a, kw, fit: {"iters": int(fit.iterations)},
    "simulate.draw": lambda a, kw, out: {"rows": int(out[0].n)},
    "simulate.test_draw": lambda a, kw, out: {"rows": int(out.n)},
}


class Tracer:
    """Records spans; ``group`` is the id of the call or replication that
    spans opened now belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.group = None
        self.missing: list[str] = []

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        replication = name == "experiment.replication"

        def traced(*args, **kwargs):
            sid = len(spans)
            outer = self.group
            if replication:   # run_replication(config, rep)
                self.group = (outer, int(args[1]))
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.group)
            spans.append(span)
            stack.append(sid)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.group = outer
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, api: dict):
        """Install the wrappers at every patch site and return a wrapped
        copy of ``api``; restore the originals on exit."""

        import importlib

        saved = []
        self.missing = []
        try:
            for mod_name, attr, name in PATCH_SITES:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield {k: self.wrap(API_SPANS[k], fn) for k, fn in api.items()}
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _data_digest(data) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(data.x.tobytes())
    h.update(data.y.tobytes())
    return h.digest()


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced phase (see README.md)."""

    selfs = self_times(spans)
    busy: dict[str, float] = {}
    self_busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        self_busy[s.name] = self_busy.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1

    def of(name, kind="busy"):
        return {"busy": busy, "self": self_busy, "calls": calls}[kind].get(name, 0)

    def info(name, key):
        return [s.info[key] for s in spans if s.name == name and s.info]

    fits = [s for s in spans if s.name == "solver.fit" and s.info]
    digests: dict[int, bytes] = {}
    seen, repeats = set(), 0
    for s in fits:
        data = s.info["data"]
        if id(data) not in digests:
            digests[id(data)] = _data_digest(data)
        key = (s.group, digests[id(data)], s.info["key"])
        repeats += key in seen
        seen.add(key)
    iters = sum(f.info["iters"] for f in fits)
    points = sum(info("evidence.select", "points"))
    rep_ms = [1e3 * (s.end - s.start) for s in spans if s.name == "experiment.replication"]

    return {
        "solver.fit.calls": of("solver.fit", "calls"),
        "solver.fit.busy_s": of("solver.fit"),
        "solver.iters": iters,
        "solver.us_per_iter": 1e6 * of("solver.fit") / iters if iters else 0.0,
        "solver.unconverged": sum(not f.info["converged"] for f in fits),
        "solver.repeat_ratio": repeats / len(fits) if fits else 0.0,
        "solver.chol_mflop": sum(f.info["kcube"] for f in fits) / 3e6,
        "evidence.select.busy_s": of("evidence.select", "self"),
        "evidence.laplace.calls": of("evidence.laplace", "calls"),
        "evidence.laplace.busy_s": of("evidence.laplace"),
        "evidence.mc.calls": of("evidence.mc", "calls"),
        "evidence.mc.busy_s": of("evidence.mc"),
        "evidence.mc.draws": sum(info("evidence.mc", "draws")),
        "evidence.box_volume.calls": of("evidence.box_volume", "calls"),
        "evidence.box_volume.busy_s": of("evidence.box_volume"),
        "evidence.grid_failed_ratio":
            sum(info("evidence.select", "failed")) / points if points else 0.0,
        "experiment.run.busy_s": of("experiment.run", "self"),
        "experiment.replication.p50_ms": percentile(rep_ms, 0.5) or 0.0,
        "experiment.replication.p90_ms": percentile(rep_ms, 0.9) or 0.0,
        "experiment.aggregate.busy_s": of("experiment.aggregate", "self"),
        "simulate.draw.busy_s": of("simulate.draw"),
        "simulate.test_draw.busy_s": of("simulate.test_draw"),
        "simulate.rows": sum(info("simulate.draw", "rows"))
                         + sum(info("simulate.test_draw", "rows")),
        "model.standardize.busy_s": of("model.standardize"),
        "metrics.busy_s": of("metrics.test_mse") + of("metrics.median_boot"),
        "baselines.ols.busy_s": of("baselines.ols"),
        "baselines.ridge_gcv.busy_s": of("baselines.ridge_gcv"),
        "em.fit.calls": of("em.fit", "calls"),
        "em.fit.busy_s": of("em.fit"),
        "em.iters": sum(info("em.fit", "iters")),
        "cli.busy_s": of("cli.main", "self"),
    }
