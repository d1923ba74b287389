"""Golden CLI outputs for radial symbols.

Each case runs one `harmotop` invocation and compares its stdout with the
recorded fixture in `golden/cli_outputs.json`: text and integers exactly,
floating-point numbers to within 4 ulp (so that a different BLAS build does
not break the comparison).  Refactors that must not change any number are
checked against these fixtures.  After a deliberate change of outputs,
rewrite the named fixtures (all of them when no name is given) with

    PYTHONPATH=src python tests/test_golden.py [NAME...]
"""
import io
import json
import math
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from harmotop.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = GOLDEN / "cli_outputs.json"
PROFILE = "sampled:@{golden}/profile.csv"

CASES = {
    "counting-power": ["counting", "--d", "2", "--symbol", "power:a=1,gamma=1.5", "--lnlambda", "-12:-1:12"],
    "counting-step": ["counting", "--d", "3", "--symbol", "step:b=0.8,c=0.6", "--lnlambda", "-120:-2:15"],
    "counting-sampled": ["counting", "--d", "2", "--symbol", PROFILE, "--lnlambda", "-6:-1:6"],
    "counting-sum": [
        "counting", "--d", "3", "--symbol", "sum:[power:a=1,gamma=2; step:b=-0.5,c=0.4]",
        "--lnlambda", "-8:-2:7",
    ],
    "asymptotics-power": [
        "asymptotics", "--d", "2", "--symbol", "power:a=1,gamma=1", "--model", "power",
        "--lnlambda", "-10:-4:7",
    ],
    "asymptotics-step": [
        "asymptotics", "--d", "3", "--symbol", "step:b=1,c=0.5", "--model", "log-power",
        "--lnlambda", "-80:-10:8",
    ],
    "spectrum-power": ["spectrum", "--d", "3", "--symbol", "power:a=1,gamma=1", "--K", "20"],
    "spectrum-sampled": ["spectrum", "--d", "2", "--symbol", PROFILE, "--K", "12"],
    "schatten-step": ["schatten", "--d", "2", "--symbol", "step:b=1,c=0.5", "--p", "1.5"],
    "schatten-weak-power": [
        "schatten", "--d", "3", "--symbol", "power:a=1,gamma=3", "--p", "2", "--weak", "--K", "2000",
    ],
    "berezin-power": [
        "berezin", "--d", "2", "--symbol", "power:a=1,gamma=2", "--K", "60", "--radii", "0,0.3,0.6,0.9",
    ],
    "boundary-sum": [
        "boundary", "--d", "2", "--symbol", "sum:[step:b=1,c=0.5; power:a=1,gamma=1]", "--K", "6",
    ],
    "boundary-power-E": ["boundary", "--d", "2", "--symbol", "power:a=1,gamma=1.5", "--E", "100:2000:6"],
    "krein-d3": ["krein", "--d", "3", "--symbol", "power:a=1,gamma=2", "--lnlambda", "-6:-2:5"],
}

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"[-+]?\d+")


def run_case(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([a.replace("{golden}", str(GOLDEN)) for a in argv])
    assert code == 0, f"exit code {code} for {argv}"
    return buf.getvalue()


def _same_number(a: str, b: str) -> bool:
    if _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b):
        return int(a) == int(b)
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= 4.0 * math.ulp(max(abs(x), abs(y)))


def assert_same_output(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), "line count differs"
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        gp, wp = _NUMBER.split(g), _NUMBER.split(w)
        # odd positions of the split hold the numbers, even ones the text between
        ok = len(gp) == len(wp) and all(
            (gs == ws) if j % 2 == 0 else _same_number(gs, ws)
            for j, (gs, ws) in enumerate(zip(gp, wp))
        )
        assert ok, f"line {i + 1} differs:\n  got:  {g}\n  want: {w}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURES.read_text())


def test_fixtures_cover_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden):
    assert_same_output(run_case(CASES[name]), golden[name])


def test_comparison_tolerates_ulps_only():
    assert_same_output("1,0.10000000000000001\n", "1,0.10000000000000002\n")
    with pytest.raises(AssertionError):
        assert_same_output("1,0.1\n", "1,0.1000000000001\n")
    with pytest.raises(AssertionError):
        assert_same_output("2,0.1\n", "1,0.1\n")
    with pytest.raises(AssertionError):
        assert_same_output("# n: x\n", "# m: x\n")


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}; known: {', '.join(CASES)}")
    fixtures = json.loads(FIXTURES.read_text()) if FIXTURES.exists() else {}
    fixtures.update({n: run_case(CASES[n]) for n in names})
    FIXTURES.write_text(json.dumps({n: fixtures[n] for n in CASES if n in fixtures}, indent=1) + "\n")
    print(f"wrote {len(names)} of {len(CASES)} cases to {FIXTURES}", file=sys.stderr)
