from pathlib import Path

import ab_ops
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_a_a_round_runs_both_sides_with_identical_outputs(capsys):
    assert ab_ops.main(["radial-closed", "1", str(ROOT), str(ROOT), "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 41
    for i, line in enumerate(lines[:-1]):
        index, best_a, best_b, ratio, same, argv = line.split("  ")
        assert index == str(i) and same == "same"
        assert float(best_a) > 0.0 and float(best_b) > 0.0
        assert float(ratio) == pytest.approx(float(best_b) / float(best_a), rel=0.02)  # of six-digit times
    label, total_a, total_b, change = lines[-1].split("  ")
    assert label == "total" and change.endswith("%")
    assert ab_ops.load_cli(ROOT, "harmotop_a") is not ab_ops.load_cli(ROOT, "harmotop_b")
