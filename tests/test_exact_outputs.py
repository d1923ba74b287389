"""Byte-exact CLI outputs of every subcommand, in CSV and in JSON.

Each case runs one `harmotop` invocation per output format and compares its
exit code, its stdout and any file it writes with the fixture recorded in
`golden/exact_outputs.json`, with `==`: no ulp tolerance, also for the
outputs that go through LAPACK (`np.polyfit`, `eigvalsh`).  A change to how
results are formatted must keep these bytes.
Paths inside outputs are written as `{golden}` and `{tmp}`.  After a
deliberate change of outputs, rewrite the named fixtures (all of them when
no name is given) with

    PYTHONPATH=src python tests/test_exact_outputs.py [NAME...]
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from harmotop.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = GOLDEN / "exact_outputs.json"
PROFILE = "sampled:@{golden}/profile.csv"
GENERAL = "general:@{tmp}/general.json"
MATRIX = "{tmp}/section.csv"
FORMATS = ("csv", "json")

CASES = {
    # the -760 row prints lambda 0; the count stays exact in the log domain
    "counting-step-deep": ["counting", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda", "-760:-10:11"],
    "counting-power-lambda": ["counting", "--d", "3", "--symbol", "power:a=1,gamma=2", "--lambda", "1e-3"],
    "counting-sum-minus": [
        "counting", "--d", "3", "--symbol", "sum:[power:a=1,gamma=2; step:b=-0.5,c=0.4]",
        "--lnlambda", "-8:-2:7", "--sign", "minus",
    ],
    "counting-sampled": ["counting", "--d", "2", "--symbol", PROFILE, "--lnlambda", "-6:-1:6"],
    "counting-power": ["counting", "--d", "2", "--symbol", "power:a=1,gamma=1.5", "--lnlambda", "-12:-1:12"],
    "counting-step": ["counting", "--d", "3", "--symbol", "step:b=0.8,c=0.6", "--lnlambda", "-120:-2:15"],
    "counting-sum": [
        "counting", "--d", "3", "--symbol", "sum:[power:a=1,gamma=2; step:b=-0.5,c=0.4]", "--lnlambda", "-8:-2:7",
    ],
    "asymptotics-power": [
        "asymptotics", "--d", "3", "--symbol", "power:a=1.5,gamma=2", "--model", "power", "--lnlambda", "-10:-4:7",
    ],
    "asymptotics-log-power": [
        "asymptotics", "--d", "2", "--symbol", "step:b=1,c=0.5", "--model", "log-power",
        "--lnlambda", "-80:-10:8", "--exponent", "2",
    ],
    "asymptotics-power-d2": [
        "asymptotics", "--d", "2", "--symbol", "power:a=1,gamma=1", "--model", "power", "--lnlambda", "-10:-4:7",
    ],
    "asymptotics-step": [
        "asymptotics", "--d", "3", "--symbol", "step:b=1,c=0.5", "--model", "log-power", "--lnlambda", "-80:-10:8",
    ],
    "spectrum-radial": ["spectrum", "--d", "3", "--symbol", "power:a=1,gamma=1", "--K", "8"],
    "spectrum-general": ["spectrum", "--d", "2", "--symbol", GENERAL, "--matrix-output", MATRIX],
    # the radial dump: diag(mu_k), each mu_k on its m_k rows
    "spectrum-radial-matrix": [
        "spectrum", "--d", "3", "--symbol", "power:a=1,gamma=1", "--K", "3", "--matrix-output", MATRIX,
    ],
    # the linear mu_k of a sampled profile (`Sampled.mu`)
    "spectrum-sampled": ["spectrum", "--d", "2", "--symbol", PROFILE, "--K", "4"],
    "spectrum-sampled-K12": ["spectrum", "--d", "2", "--symbol", PROFILE, "--K", "12"],
    "spectrum-power": ["spectrum", "--d", "3", "--symbol", "power:a=1,gamma=1", "--K", "20"],
    "schatten-radial": ["schatten", "--d", "2", "--symbol", "step:b=1,c=0.5", "--p", "1.5"],
    # certified strong stops of a power tail, and of a step plus a power tail (the Minkowski sum)
    "schatten-radial-power": ["schatten", "--d", "2", "--symbol", "power:a=1,gamma=1", "--p", "4"],
    "schatten-radial-sum": ["schatten", "--d", "2", "--symbol", "sum:[step:b=1,c=0.5; power:a=1,gamma=1]", "--p", "4"],
    "schatten-radial-weak": ["schatten", "--d", "3", "--symbol", "power:a=1,gamma=3", "--p", "2", "--weak", "--K", "200"],
    "schatten-weak-power": ["schatten", "--d", "3", "--symbol", "power:a=1,gamma=3", "--p", "2", "--weak", "--K", "2000"],
    "schatten-galerkin": ["schatten", "--d", "2", "--symbol", GENERAL, "--p", "2"],
    "schatten-galerkin-weak": ["schatten", "--d", "2", "--symbol", GENERAL, "--p", "2", "--weak"],
    "berezin": ["berezin", "--d", "2", "--symbol", "step:b=1,c=0.5", "--K", "20", "--radii", "0,0.5,0.9"],
    "berezin-power": ["berezin", "--d", "2", "--symbol", "power:a=1,gamma=2", "--K", "60", "--radii", "0,0.3,0.6,0.9"],
    "boundary-power": ["boundary", "--d", "2", "--symbol", "power:a=1,gamma=1.5", "--K", "5"],
    "boundary-sum": ["boundary", "--d", "3", "--symbol", "sum:[step:b=1,c=0.5; power:a=1,gamma=1]", "--K", "4"],
    "boundary-sum-d2": ["boundary", "--d", "2", "--symbol", "sum:[step:b=1,c=0.5; power:a=1,gamma=1]", "--K", "6"],
    "boundary-general": ["boundary", "--d", "2", "--symbol", GENERAL, "--K", "3"],
    "boundary-power-E": ["boundary", "--d", "3", "--symbol", "power:a=1,gamma=2", "--E", "100:2000:6"],
    "boundary-power-E-d2": ["boundary", "--d", "2", "--symbol", "power:a=1,gamma=1.5", "--E", "100:2000:6"],
    "krein-d2": ["krein", "--d", "2", "--symbol", "power:a=1,gamma=1", "--lnlambda", "-6:-2:5"],
    "krein-d3": ["krein", "--d", "3", "--symbol", "power:a=1,gamma=2", "--lnlambda", "-6:-2:5"],
    # the default eps reads sup V of a sum (`SymbolSum.sup`)
    "krein-sum": ["krein", "--d", "2", "--symbol", "sum:[power:a=1,gamma=1; step:b=0.5,c=0.3]", "--lnlambda", "-8:-4:3"],
    "krein-step": ["krein", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda", "-9:-3:4", "--eps", "0.25"],
    # lambda prints sub-normal, then 0 below ln lambda = -745; the bounds are counted at ln lambda
    "krein-step-deep": ["krein", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda", "-760:-700:5", "--eps", "0.5"],
    "krein-power-deep": ["krein", "--d", "2", "--symbol", "power:a=1,gamma=40", "--lnlambda", "-800:-790:3"],
    "krein-E-d2": ["krein", "--d", "2", "--symbol", "power:a=1,gamma=1", "--E", "200:2000:3"],
    "krein-E-d2-wide": ["krein", "--d", "2", "--symbol", "power:a=1,gamma=1", "--E", "2000:200000:5"],
}


def _write_general(tmp: Path) -> None:
    # d = 2, K = 4 on the default grid (n_r = 20, n_ang = 12): 240 node values,
    # exact binary fractions so that the file is the same on every platform
    values = [0.25 + (i % 7) / 8.0 + (i % 3) / 16.0 for i in range(240)]
    (tmp / "general.json").write_text(json.dumps({"d": 2, "K": 4, "n_r": 20, "n_ang": 12, "values": values}))


def run_case(argv, fmt: str, tmp: Path) -> dict:
    """Exit code, stdout and written files of one invocation, paths as placeholders."""
    _write_general(tmp)
    places = {"{golden}": str(GOLDEN), "{tmp}": str(tmp)}

    def fill(text: str) -> str:
        for key, val in places.items():
            text = text.replace(key, val)
        return text

    def blank(text: str) -> str:
        for key, val in places.items():
            text = text.replace(val, key)
        return text

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([fill(a) for a in argv] + ["--format", fmt])
    out = {"code": code, "stdout": blank(buf.getvalue())}
    if MATRIX in argv:
        out["matrix"] = Path(fill(MATRIX)).read_text()
    return out


@pytest.fixture(scope="module")
def exact():
    return json.loads(FIXTURES.read_text())


def test_fixtures_cover_every_case(exact):
    assert sorted(exact) == sorted(f"{n}/{f}" for n in CASES for f in FORMATS)


def test_every_case_runs_its_own_argv():
    # a second name for one invocation pins nothing more
    assert len({tuple(argv) for argv in CASES.values()}) == len(CASES)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_output(name, fmt, exact, tmp_path):
    assert run_case(CASES[name], fmt, tmp_path) == exact[f"{name}/{fmt}"]


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}; known: {', '.join(CASES)}")
    fixtures = json.loads(FIXTURES.read_text()) if FIXTURES.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        fixtures.update({f"{n}/{f}": run_case(CASES[n], f, Path(tmp)) for n in names for f in FORMATS})
    keys = [f"{n}/{f}" for n in CASES for f in FORMATS]
    FIXTURES.write_text(json.dumps({k: fixtures[k] for k in keys if k in fixtures}, indent=1) + "\n")
    print(f"wrote {len(names)} of {len(CASES)} cases to {FIXTURES}", file=sys.stderr)
