"""A short traced run of each benchmark workload ends in its result line.

The benchmark's consumers read only the last stdout line of
`perfbench/run.py`, so a run that prints anything after the result, or a
result that is not strict JSON, leaves nothing measured.  This runs the
benchmark as it is (one second, seed 1, traced) and never writes under
perfbench/.  A traced result must carry every per-layer metric that
BENCHMARK.json lists.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _refuse_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_ends_in_a_strict_json_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr: {proc.stderr[-2000:]}"
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    # the tracer silently drops the metrics of a function the package no longer has
    missing = [name for name in PER_LAYER if name not in result["metrics"]]
    assert not missing, f"traced result lacks per-layer metrics {missing}"
