"""Tests of the benchmark's own logic: self time, the golden comparison's
tolerance edges, the percentile sample rule, and BENCHMARK.json agreeing
with the metrics run.py prints.  Run with

    python3 -m pytest benchmarks -q
"""

import json
from pathlib import Path

import pytest

import golden
from golden import REL_TOL, compare_fit, compare_study, rel_err
from run import END_TO_END_UNITS, PER_LAYER_UNITS
from spans import Span, Tracer, layer_metrics, percentile, self_times


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, None)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("a.1", 2.0, 3.0, parent=1),
            span("b", 5.0, 6.5, parent=0),
        ]
        assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)

    def test_child_clipped_to_parent(self):
        spans = [span("root", 0.0, 2.0), span("a", 1.0, 3.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_tracer_records_parents_and_groups(self):
        tracer = Tracer()

        def inner(x):
            return x + 1

        winner = tracer.wrap("inner", inner)
        wouter = tracer.wrap("experiment.replication", lambda cfg, rep: winner(rep))
        tracer.group = 7
        assert wouter(None, 3) == 4
        outer, inner_span = tracer.spans
        assert inner_span.parent == 0 and outer.parent == -1
        assert outer.group == inner_span.group == (7, 3)
        assert tracer.group == 7
        metrics = layer_metrics(tracer.spans)
        assert metrics["solver.fit.calls"] == 0
        assert metrics["experiment.replication.p50_ms"] == 0.0   # one sample is too few


class TestGoldenTolerance:
    def test_rel_err_edges(self):
        # 1/1e9 rounds to the same double as REL_TOL: exactly at the edge
        assert rel_err(1e9 + 1, 1e9) == REL_TOL
        assert rel_err(1e9 + 2, 1e9) > REL_TOL
        assert rel_err(-1e9 - 1, -1e9) == REL_TOL
        assert rel_err(0.0, 0.0) == 0.0
        assert rel_err(1e-12, 0.0) == 1e-12
        assert rel_err(None, None) == 0.0
        assert rel_err(1.0, None) == float("inf")

    def study(self, mse=9.0, detail="eta=0.25", c=1, report_mse=9.0):
        return {"rows": [[0, "aris-eb", mse, c, 0, 1, detail],
                         [0, "aris-path", None, 0, 0, 1, "path"],
                         [1, "aris-eb", 8.0, 1, 0, 1, "eta=0"],
                         [1, "aris-path", None, 0, 0, 1, "path"]],
                "report": [["aris-eb", report_mse, 0.1, 1.0, 0.0, 1.0],
                           ["aris-path", None, None, None, None, 1.0]]}

    def test_study_within_tolerance_passes(self):
        ref = self.study()
        assert compare_study(self.study(mse=9.0 * (1 + 0.5 * REL_TOL)), ref)[:2] == (2, 0)

    def test_study_number_beyond_tolerance_fails_one_replication(self):
        n, failed, err = compare_study(self.study(mse=9.0 * (1 + 3 * REL_TOL)), self.study())
        assert (n, failed) == (2, 1)
        assert err == pytest.approx(3 * REL_TOL)

    @pytest.mark.parametrize("change", [{"detail": "eta=0.5"}, {"c": 0}])
    def test_study_selection_change_fails_even_with_equal_numbers(self, change):
        assert compare_study(self.study(**change), self.study())[:2] == (2, 1)

    def test_study_report_change_fails_every_replication(self):
        got = self.study(report_mse=9.0 * (1 + 3 * REL_TOL))
        assert compare_study(got, self.study())[:2] == (2, 2)

    def test_study_missing_replication_fails(self):
        got = self.study()
        got["rows"] = got["rows"][:2]
        assert compare_study(got, self.study())[:2] == (2, 1)

    def test_fit(self):
        ref = {"best_eta": 0.25, "active": [1, 5], "beta": [1e9, -3.0]}
        ok = {"best_eta": 0.25, "active": [1, 5], "beta": [1e9 + 1, -3.0]}
        off = {"best_eta": 0.25, "active": [1, 5], "beta": [1e9 + 2, -3.0]}
        moved = {"best_eta": 0.25, "active": [1, 6], "beta": [1e9, -3.0]}
        other_eta = {"best_eta": 0.0, "active": [1, 5], "beta": [1e9, -3.0]}
        assert compare_fit(ok, ref)[1] == 0
        assert compare_fit(off, ref)[1] == 1
        assert compare_fit(moved, ref)[1] == 1
        assert compare_fit(other_eta, ref)[1] == 1

    def test_golden_files_cover_the_pool(self):
        from run import WORKLOAD_NAMES
        for name in WORKLOAD_NAMES:
            ref = golden.load(name)
            assert len(ref["records"]) == 100
            assert "OPENBLAS_NUM_THREADS" in ref["environment"]


class TestPercentileRule:
    def test_p50_needs_twenty_samples(self):
        assert percentile(range(19), 0.5) is None
        assert percentile(range(1, 21), 0.5) == 10

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(range(99), 0.9) is None
        assert percentile(range(1, 101), 0.9) == 90


def test_benchmark_json_matches_run_py():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    from run import WORKLOAD_NAMES
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
