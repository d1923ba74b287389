import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_summary", Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


def _run(workload, seed, wall, rss, seconds=40, trace=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
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


def test_summary_refuses_mixed_run_lengths():
    with pytest.raises(ValueError, match="different lengths"):
        bench_summary.summarise([_run("galerkin", 1, 0.3, 70.0), _run("galerkin", 2, 0.3, 70.0, seconds=20)])
