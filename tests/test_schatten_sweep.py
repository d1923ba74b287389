import time
from pathlib import Path

import schatten_sweep

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_lists_one_outcome_per_command_in_order():
    lines = schatten_sweep.outcomes(1, 30, ROOT)
    assert [line.split("  ")[0] for line in lines] == [str(i) for i in range(30)]
    argvs = [line.split("  ")[-1] for line in lines]
    assert all(argv.startswith("schatten --d ") for argv in argvs)
    assert any(argv.endswith(" --weak") for argv in argvs) and not all(argv.endswith(" --weak") for argv in argvs)
    sampled = [argv for argv in argvs if "sampled:@" in argv]
    assert sampled and all("sampled:@{tmp}/profile" in argv for argv in sampled)
    for line in lines:
        rc, result = line.split("  ")[1:3]
        assert rc in ("rc=0", "rc=3"), line
        assert (rc == "rc=0") == (not result.startswith("harmotop: ")), line


def test_against_the_same_checkout_prints_nothing(capsys):
    start = time.perf_counter()
    assert schatten_sweep.main(["1", "30", "--against", str(ROOT)]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == ""
    assert elapsed < 5.0
