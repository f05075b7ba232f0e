"""tools/ab_bench.py: the paired statistics, and the order and failure
handling of its runs on stand-in trees."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_the_recorded_comparisons_of_bench_31():
    # BENCH_31.json's tables were computed by hand from the same recorded
    # values; every entry, the rounding included, comes out again
    recorded = json.loads((ROOT / "BENCH_31.json").read_text())["end_to_end"]
    spec = {m["name"]: m for m in METRICS}
    for workload, table in recorded.items():
        for name, entry in table.items():
            got = ab_bench.summarize(entry["parent"], entry["change"],
                                     spec[name]["better"], spec[name]["bound"])
            assert got == entry, (workload, name)


def test_ties_count_for_neither_side():
    parent, change = [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 3.5, 4.0]
    assert ab_bench.better_count(parent, change, "lower") == 1
    assert ab_bench.better_count(parent, change, "higher") == 1
    assert ab_bench.summarize(parent, parent, "lower", 0.1)["change_better_in"] == "0 of 4"


@pytest.mark.parametrize("better, worse_by", [("higher", 0.5), ("lower", -0.5)])
def test_direction_sets_the_sign_of_the_change(better, worse_by):
    parent, change = [10.0, 10.0, 10.0, 10.0], [5.0, 5.0, 5.0, 5.0]
    got = ab_bench.summarize(parent, change, better, 0.25)
    assert got["change_worse_by"] == worse_by
    assert got["change_better_in"] == ("4 of 4" if better == "lower" else "0 of 4")
    # no spread at the parent: any gap exceeds it, and none is not a gap
    assert got["parent_iqr_share_of_median"] == 0.0
    assert got["gap_exceeds_parent_iqr"]
    assert not ab_bench.summarize(parent, parent, better, 0.25)["gap_exceeds_parent_iqr"]


def test_the_gap_is_measured_against_the_parents_quartiles():
    parent = [8.0, 9.0, 10.0, 11.0, 12.0]        # quartiles 8.5 and 11.5
    got = ab_bench.summarize(parent, [12.0] * 5, "higher", 0.25)
    assert got["parent_quartiles"] == [8.5, 11.5]
    assert got["parent_iqr_share_of_median"] == 0.3
    assert not got["gap_exceeds_parent_iqr"]     # 2 against 3
    assert ab_bench.summarize(parent, [13.5] * 5, "higher", 0.25)["gap_exceeds_parent_iqr"]


def test_malformed_series_are_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        ab_bench.summarize([1.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError, match="same number"):
        ab_bench.summarize([1.0, 2.0], [1.0, 2.0, 3.0], "lower", 0.1)
    with pytest.raises(ValueError, match="better"):
        ab_bench.summarize([1.0, 2.0], [1.0, 2.0], "up", 0.1)


def stand_in_tree(path: Path, log: Path, rss: float, correct: bool = True) -> Path:
    """A tree whose ``benchmarks/run.py`` logs its side and argv and
    prints a fixed result line, with the repository's BENCHMARK.json."""

    (path / "benchmarks").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": rss if m["name"] == "peak_rss_mb" else 1.0,
                           "unit": m["unit"]} for m in METRICS}
    result = {"correct": correct, "attempted": 7, "failed": 0 if correct else 7,
              "metrics": metrics}
    (path / "benchmarks" / "run.py").write_text(textwrap.dedent(f"""\
        import json, sys
        with open({str(log)!r}, "a") as fh:
            fh.write({path.name!r} + " " + " ".join(sys.argv[1:]) + "\\n")
        print("# environment " + json.dumps({{"nproc": 2}}))
        print(json.dumps({result!r}))
        """))
    return path


def test_pairs_alternate_and_the_table_is_written(tmp_path):
    log = tmp_path / "log"
    parent = stand_in_tree(tmp_path / "parent", log, 50.0)
    change = stand_in_tree(tmp_path / "change", log, 49.0)
    out = tmp_path / "bench.json"
    assert ab_bench.main([str(parent), str(change), "--workload", "fit-wide",
                          "--workload", "study-mc", "--pairs", "3", "--seconds", "5",
                          "--out", str(out), "--first-seed", "40"]) == 0
    runs = [line.split() for line in log.read_text().splitlines()]
    assert [(r[0], r[2], r[4]) for r in runs] == [
        ("parent", "fit-wide", "40"), ("change", "fit-wide", "40"),
        ("parent", "study-mc", "40"), ("change", "study-mc", "40"),
        ("change", "fit-wide", "41"), ("parent", "fit-wide", "41"),
        ("change", "study-mc", "41"), ("parent", "study-mc", "41"),
        ("parent", "fit-wide", "42"), ("change", "fit-wide", "42"),
        ("parent", "study-mc", "42"), ("change", "study-mc", "42")]
    assert all(r[5:] == ["--seconds", "5", "--trace", "0"] for r in runs)
    report = json.loads(out.read_text())
    assert report["runs"] == {"correct": 12, "total": 12, "failed": 0, "attempted": 84}
    assert report["environment"] == {"nproc": 2}
    rss = report["end_to_end"]["study-mc"]["peak_rss_mb"]
    assert rss["parent"] == [50.0] * 3 and rss["change"] == [49.0] * 3
    assert rss["change_better_in"] == "3 of 3" and rss["gap_exceeds_parent_iqr"]
    assert report["end_to_end"]["fit-wide"]["setup_s"]["change_better_in"] == "0 of 3"


def test_a_run_that_is_not_correct_stops_the_tool(tmp_path, capsys):
    log = tmp_path / "log"
    parent = stand_in_tree(tmp_path / "parent", log, 50.0)
    change = stand_in_tree(tmp_path / "change", log, 49.0, correct=False)
    out = tmp_path / "bench.json"
    assert ab_bench.main([str(parent), str(change), "--workload", "fit-wide",
                          "--pairs", "2", "--seconds", "5", "--out", str(out)]) == 1
    assert len(log.read_text().splitlines()) == 2
    assert "is not correct: 7 of 7 datasets failed" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_that_exits_non_zero_stops_the_tool(tmp_path, capsys):
    log = tmp_path / "log"
    parent = stand_in_tree(tmp_path / "parent", log, 50.0)
    (parent / "benchmarks" / "run.py").write_text("import sys; sys.exit('no run')\n")
    change = stand_in_tree(tmp_path / "change", log, 49.0)
    assert ab_bench.main([str(parent), str(change), "--workload", "fit-wide",
                          "--pairs", "2", "--seconds", "5",
                          "--out", str(tmp_path / "bench.json")]) == 1
    assert "exited 1" in capsys.readouterr().err


def test_fewer_than_two_pairs_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        ab_bench.main([str(tmp_path), str(tmp_path), "--workload", "fit-wide",
                       "--pairs", "1", "--seconds", "5", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
