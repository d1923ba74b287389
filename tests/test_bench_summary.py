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


def _pair_files(tmp_path, parent_walls, change_walls):
    for name, walls in (("parent", parent_walls), ("change", change_walls)):
        lines = [_run("radial-closed", 100 + i, w, 64.0) for i, w in enumerate(walls)]
        lines.append(_run("radial-closed", 99, 0.0, 0.0, trace=1))  # traced: not a pair
        (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "BENCH.json"
    sets = [f"{name}={tmp_path / name}.jsonl" for name in ("parent", "change")]
    assert bench_summary.main([*sets, "--out", str(out)]) == 0
    return json.loads(out.read_text())["pairs"]["radial-closed"]


def test_pairs_meet_the_claim_rule(tmp_path):
    parent = [0.0170, 0.0172, 0.0171, 0.0169, 0.0173, 0.0170, 0.0171, 0.0172, 0.0170, 0.0171]
    change = [w * 0.92 for w in parent[:9]] + [0.0171]  # nine wins and one tie, 8% faster
    wall = _pair_files(tmp_path, parent, change)["wall_s"]
    assert (wall["pairs"], wall["wins"], wall["ties"]) == (10, 9, 1)
    assert wall["parent_median"] == pytest.approx(0.01710) and wall["change_median"] < 0.0160
    assert wall["gap"] == pytest.approx(wall["parent_median"] - wall["change_median"])
    assert 0.0 < wall["parent_spread"] < wall["gap"] and wall["claim_holds"]
    rows = _pair_files(tmp_path, parent, change)["rows_per_s"]  # higher is better: the faster side wins there too
    assert (rows["wins"], rows["ties"], rows["claim_holds"]) == (9, 1, True)
    assert rows["gap"] == pytest.approx(rows["change_median"] - rows["parent_median"]) and rows["gap"] > 0.0


_PARENT = [0.0160, 0.0180, 0.0170, 0.0175, 0.0165, 0.0172, 0.0168, 0.0178, 0.0162, 0.0171]


@pytest.mark.parametrize(
    "change, why",
    [
        ([w * 0.9 for w in _PARENT[:8]] + [w * 1.01 for w in _PARENT[8:]], "two of ten pairs lost"),
        ([w - 1e-6 for w in _PARENT], "ten wins by a gap below the parent's spread"),
        ([w * 0.9 for w in _PARENT[:9]], "nine pairs, all won"),
    ],
)
def test_pairs_that_miss_the_claim_rule(tmp_path, change, why):
    wall = _pair_files(tmp_path, _PARENT[: len(change)], change)["wall_s"]
    assert not wall["claim_holds"], why
    assert wall["wins"] == sum(c < p for p, c in zip(_PARENT, change))


def test_pairs_refuse_sets_of_different_sizes(tmp_path):
    with pytest.raises(ValueError, match="3 parent runs and 2 change runs"):
        _pair_files(tmp_path, [0.017, 0.017, 0.017], [0.016, 0.016])
