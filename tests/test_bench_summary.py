import json
from pathlib import Path

import bench_summary
import pytest


def _run(workload, seed, wall, rss, seconds=40, trace=0):
    # the end-to-end metrics of an untraced run, in perfbench/run.py's order
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "op_p50_s": {"value": wall / 40, "unit": "s"},
        "rows_per_s": {"value": 6200 / wall if wall else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "ok_frac": {"value": 0.85 + seed / 100, "unit": "frac"},
        "right_row_frac": {"value": 0.9, "unit": "frac"},
        "setup_s": {"value": 0.2 + seed / 100, "unit": "s"},
    }
    if trace:
        metrics = {"cli.self_s": {"value": 0.1, "unit": "s"}}
    return json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "metrics": metrics})


def test_summary_per_workload(tmp_path):
    lines = [_run("radial-closed", s, w, r) for s, w, r in ((1, 0.04, 64.0), (2, 0.02, 65.0), (3, 0.03, 63.0), (4, 0.05, 64.5))]
    lines += ["", _run("radial-closed", 5, 0.0, 0.0, trace=1), _run("galerkin", 9, 0.35, 75.5)]
    parent = tmp_path / "parent.jsonl"
    parent.write_text("\n".join(lines) + "\n")
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([f"parent={parent}", f"change={parent}", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["parent"] == record["change"]
    rc = record["parent"]["radial-closed"]
    assert (rc["runs"], rc["seeds"], rc["run_seconds"]) == (4, [1, 2, 3, 4], 40)
    assert rc["wall_s"]["best"] == 0.02 and rc["wall_s"]["median"] == pytest.approx(0.035)
    assert rc["wall_s"]["q1"] < rc["wall_s"]["median"] < rc["wall_s"]["q3"]
    assert rc["peak_rss_mb"]["best"] == 63.0 and rc["peak_rss_mb"]["median"] == pytest.approx(64.25)
    g = record["parent"]["galerkin"]
    assert g["runs"] == 1 and g["wall_s"] == {"best": 0.35, "q1": 0.35, "median": 0.35, "q3": 0.35}


def test_summary_covers_every_end_to_end_metric():
    lines = [_run("radial-closed", s, w, 64.0) for s, w in ((1, 0.04), (2, 0.02), (3, 0.03), (4, 0.05))]
    rc = bench_summary.summarise(lines)["radial-closed"]
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert list(rc)[3:] == [m["name"] for m in spec["end_to_end"]] == list(json.loads(lines[0])["metrics"])
    # the best is the lowest or, for a metric where higher is better, the highest
    assert rc["rows_per_s"]["best"] == pytest.approx(6200 / 0.02) and rc["ok_frac"]["best"] == 0.85 + 4 / 100
    assert rc["setup_s"]["best"] == 0.2 + 1 / 100 and rc["setup_s"]["median"] == pytest.approx(0.225)
    assert rc["op_p50_s"]["best"] == 0.0005


def test_summary_refuses_runs_it_cannot_summarise():
    traced_metric = json.dumps({"workload": "galerkin", "seed": 1, "seconds": 40, "trace": 0,
                                "metrics": {"cli.self_s": {"value": 0.1, "unit": "s"}}})
    with pytest.raises(ValueError, match="galerkin: cli.self_s is not an end-to-end metric"):
        bench_summary.summarise([traced_metric])
    with pytest.raises(ValueError, match="different metrics"):
        bench_summary.summarise([_run("galerkin", 1, 0.3, 70.0), traced_metric.replace('"seed": 1', '"seed": 2')])


def test_summary_refuses_mixed_run_lengths():
    with pytest.raises(ValueError, match="different lengths"):
        bench_summary.summarise([_run("galerkin", 1, 0.3, 70.0), _run("galerkin", 2, 0.3, 70.0, seconds=20)])
