import argparse
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmotop
from harmotop import galerkin_toeplitz as gt
from harmotop import kernel_berezin as kb
from harmotop import krein_counting as kc
from harmotop import radial_toeplitz as rt
from harmotop.cli import _COMMANDS, SymbolSyntaxError, _glue_negative_values, build_parser, emit, main, parse_symbol
from harmotop.grids import TruncationSpec, ball_grid
from harmotop.harmonic_basis import basis_degrees, cumulative_multiplicity
from harmotop.symbols import Power, Sampled, Step, SymbolSum, TabulatedSymbol


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_symbol_variants(tmp_path):
    assert parse_symbol("step:b=1,c=0.5") == Step(1.0, 0.5)
    assert parse_symbol("power:a=2,gamma=0.5") == Power(2.0, 0.5)
    s = parse_symbol("sum:[power:a=1,gamma=1; step:b=-0.5,c=0.5]")
    assert isinstance(s, SymbolSum) and s.parts == (Power(1.0, 1.0), Step(-0.5, 0.5))
    nested = parse_symbol("sum:[step:b=1,c=0.3; sum:[step:b=2,c=0.4; power:a=1,gamma=2]]")
    assert isinstance(nested.parts[1], SymbolSum)
    csv = tmp_path / "prof.csv"
    csv.write_text("# r,v\n0.0,1.0\n0.5,0.5\n0.9,0.3\n")
    prof = parse_symbol(f"sampled:@{csv}")
    assert isinstance(prof, Sampled) and prof.v == (1.0, 0.5, 0.3)


def test_parse_symbol_errors_carry_positions():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("step:b=1,x=0.5")
    assert "position" in str(err.value)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("blob:a=1")
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("step:b=1")  # missing c
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("power:a=1,gamma=oops")
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("sum:[step:b=1,c=0.5")  # missing bracket


def test_parse_general_symbol(tmp_path):
    spec = TruncationSpec.for_degree(4)
    grid = ball_grid(2, spec)
    payload = {
        "d": 2,
        "K": 4,
        "n_r": spec.n_r,
        "n_ang": spec.n_ang,
        "values": list(0.5 * (1.0 + grid.points[:, 0])),
        "gamma": 1.0,
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(payload))
    sym = parse_symbol(f"general:@{path}")
    assert isinstance(sym, TabulatedSymbol)
    assert sym.spec == spec


# d = 2, K = 0, n_r = 16, n_ang = 4: a 64-node grid.
_SMALL_HEAD = '{"d": 2, "K": 0, "n_r": 16, "n_ang": 4, "values": ['
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 2.0**53 + 2.0]
    ),
)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_FINITE, min_size=64, max_size=64), repr17=st.booleans())
def test_general_symbol_decodes_bit_identically_to_json(values, repr17):
    if repr17:
        text = _SMALL_HEAD + ", ".join("%.17g" % v for v in values) + "]}"
    else:
        text = json.dumps({"d": 2, "K": 0, "n_r": 16, "n_ang": 4, "values": values})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.json"
        path.write_text(text)
        sym = parse_symbol(f"general:@{path}")
    ref = np.asarray(json.loads(text)["values"], dtype=float)
    assert np.array_equal(sym.values.view(np.int64), ref.view(np.int64))


_BAD_SYMBOL_FILES = {
    "malformed": _SMALL_HEAD + "1.0, 2.0",
    "missing key": '{"d": 2, "K": 0, "n_r": 16, "values": [' + ", ".join(["1.0"] * 64) + "]}",
    "wrong node count": _SMALL_HEAD + ", ".join(["1.0"] * 63) + "]}",
    "not an object": "[1.0, 2.0]",
    "null degree": '{"d": 2, "K": null, "n_r": 16, "n_ang": 4, "values": [1.0]}',
    **{
        f"literal {lit}": _SMALL_HEAD + ", ".join(["1.0"] * 10 + [lit] + ["1.0"] * 53) + "]}"
        for lit in ("NaN", "Infinity", "-Infinity", "1e999", "-1e999")
    },
}


@pytest.mark.parametrize("name", sorted(_BAD_SYMBOL_FILES))
def test_bad_symbol_files_exit_two(capsys, tmp_path, name):
    path = tmp_path / "v.json"
    path.write_text(_BAD_SYMBOL_FILES[name])
    for argv in (("spectrum", "--d", "2"), ("schatten", "--d", "2", "--p", "2")):
        code, out, err = run_cli(capsys, *argv, "--symbol", f"general:@{path}")
        assert (code, out) == (2, ""), name
        assert "bad symbol file" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("counting", "--symbol", "power:a=nan,gamma=1", "--lambda", "0.1"), "field 'a' is not finite: 'nan'"),
        (("counting", "--symbol", "power:a=1,gamma=nan", "--lambda", "0.1"), "field 'gamma' is not finite: 'nan'"),
        (("spectrum", "--symbol", "step:b=nan,c=0.5", "--K", "2"), "field 'b' is not finite: 'nan'"),
        (("spectrum", "--symbol", "step:b=inf,c=0.5", "--K", "2"), "field 'b' is not finite: 'inf'"),
        (("spectrum", "--symbol", "power:a=inf,gamma=1", "--K", "2"), "field 'a' is not finite: 'inf'"),
        (("spectrum", "--symbol", "sampled:@{tmp}/nan-radius.csv", "--K", "2"), "line 3 is not a finite pair r,v: 'nan,0.5'"),
        (("spectrum", "--symbol", "sampled:@{tmp}/nan-value.csv", "--K", "2"), "line 3 is not a finite pair r,v: '0.5,nan'"),
    ],
    ids=["power-a-nan", "power-gamma-nan", "step-b-nan", "step-b-inf", "power-a-inf", "sampled-r-nan", "sampled-v-nan"],
)
def test_non_finite_descriptor_numbers_exit_two(capsys, tmp_path, argv, message):
    (tmp_path / "nan-radius.csv").write_text("# r,v\n0.0,1.0\nnan,0.5\n0.9,0.3\n")
    (tmp_path / "nan-value.csv").write_text("# r,v\n0.0,1.0\n0.5,nan\n0.9,0.3\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run_cli(capsys, argv[0], "--d", "2", *argv[1:])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "field, value",
    [("K", 0.9), ("K", "0"), ("K", False), ("n_r", 16.7), ("n_ang", 4.0), ("d", 2.0), ("d", True)],
)
def test_general_file_grid_fields_must_be_json_integers(capsys, tmp_path, field, value):
    payload = {"d": 2, "K": 0, "n_r": 16, "n_ang": 4, "values": [1.0] * 64}
    payload[field] = value
    path = tmp_path / "v.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "spectrum", "--d", "2", "--symbol", f"general:@{path}")
    assert (code, out) == (2, "")
    assert f"field {field!r} must be a JSON integer, got {value!r}" in err


def test_counting_command_single_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "counting", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lambda", "1e-2"
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    lam, _lnlam, n = rows[0].split(",")
    assert float(lam) == 0.01 and int(n) == 5
    assert any(l.startswith("# columns:") for l in out.splitlines())


def test_asymptotics_command_fit(capsys):
    code, out, _ = run_cli(
        capsys,
        "asymptotics",
        "--d", "2",
        "--symbol", "power:a=1,gamma=1",
        "--model", "power",
        "--lnlambda", "-12:-4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["coefficient"] == pytest.approx(1.0, rel=0.1)
    assert payload["fit"]["exponent"] == pytest.approx(1.0, rel=0.05)
    assert payload["provenance"]["equations"]


def test_json_config_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "counting", "--d", "3", "--symbol", "step:b=1,c=0.5",
        "--lambda", "1e-3", "--format", "json",
    )
    assert code == 0
    first = json.loads(out)
    cfg = first["config"]
    argv = [cfg["command"], "--format", "json"]
    for key, val in cfg.items():
        if key in ("command", "format"):
            continue
        flag = "--lambda" if key == "lam" else f"--{key}"
        argv += [flag, str(val)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    second = json.loads(out)
    assert second["config"] == cfg
    assert second["results"] == first["results"]


@pytest.mark.parametrize(
    "symbol, pos, message",
    [
        ("sum:[step:b=1,c=0.5]]", 16, "not a number: '0.5]'"),
        ("sum:[power:a=1,gamma=1;  step:b=1,c=x]", 36, "not a number: 'x'"),  # the blanks before a summand count
        ("sum:[power:a=1,gamma=1; sum:[step:b=1,q=1]]", 38, "unknown field 'q'; expected one of ('b', 'c')"),
    ],
)
def test_error_inside_a_sum_carries_one_prefix_and_its_column(capsys, symbol, pos, message):
    code, out, err = run_cli(capsys, "counting", "--d", "2", "--symbol", symbol, "--lambda", "0.1")
    assert (code, out) == (2, "")
    assert err == f"harmotop: symbol descriptor error at position {pos}: {message}\n  {symbol}\n  {' ' * pos}^\n"


def test_grammar_error_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "counting", "--d", "2", "--symbol", "step:b=1,q=0.5", "--lambda", "0.1"
    )
    assert code == 2
    assert "position" in err


def test_certification_failure_exits_three(capsys, tmp_path):
    csv = tmp_path / "leaky.csv"
    csv.write_text("0.0,1.0\n0.9,0.3\n")
    code, _, err = run_cli(
        capsys, "counting", "--d", "2", "--symbol", f"sampled:@{csv}", "--lambda", "0.2"
    )
    assert code == 3
    assert "certification" in err


def test_spectrum_command_with_matrix_dump(capsys, tmp_path):
    dump = tmp_path / "mat.csv"
    code, out, _ = run_cli(
        capsys, "spectrum", "--d", "2", "--symbol", "step:b=1,c=0.5",
        "--K", "4", "--matrix-output", str(dump),
    )
    assert code == 0
    assert dump.read_text().splitlines()[0] == "# harmotop matrix d=2 K=4 n=9"
    assert np.loadtxt(dump, delimiter=",").shape == (9, 9)
    top = [l for l in out.splitlines() if not l.startswith("#")][0]
    assert float(top.split(",")[1]) == pytest.approx(0.25)


def test_schatten_and_berezin_commands(capsys):
    code, out, _ = run_cli(
        capsys, "schatten", "--d", "2", "--symbol", "step:b=1,c=0.5", "--p", "1"
    )
    assert code == 0
    value = float([l for l in out.splitlines() if not l.startswith("#")][0].split(",")[2])
    assert value == pytest.approx(5.0 / 12.0, rel=1e-8)
    code, out, _ = run_cli(
        capsys, "berezin", "--d", "2", "--symbol", "step:b=1,c=0.5",
        "--K", "40", "--radii", "0.5,0.9",
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert float(rows[0][1]) > float(rows[1][1])


def test_berezin_command_on_tabulated_symbol(capsys, tmp_path):
    K = 6
    spec = TruncationSpec.for_degree(K)
    grid = ball_grid(2, spec)
    func = lambda p: 1.0 + p[:, 0] - 0.5 * p[:, 1] ** 2
    payload = {"d": 2, "K": K, "n_r": spec.n_r, "n_ang": spec.n_ang, "values": list(func(grid.points))}
    path = tmp_path / "general.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        capsys, "berezin", "--d", "2", "--symbol", f"general:@{path}", "--K", str(K), "--radii", "0,0.4,0.8",
    )
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert [float(r) for r, _ in rows] == [0.0, 0.4, 0.8]
    for r, value in rows:
        want = kb.berezin_transform(func, 2, [float(r), 0.0], K, spec=spec)
        assert float(value) == pytest.approx(want, rel=1e-12)


def test_berezin_defaults_to_the_tabulated_degree(capsys, tmp_path):
    K = 20
    spec = TruncationSpec.for_degree(K)
    grid = ball_grid(2, spec)
    payload = {"d": 2, "K": K, "n_r": spec.n_r, "n_ang": spec.n_ang, "values": list(0.5 + grid.points[:, 1])}
    path = tmp_path / "general.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "berezin", "--d", "2", "--symbol", f"general:@{path}", "--radii", "0.3,0.7")
    assert code == 0, err
    sym = parse_symbol(f"general:@{path}")
    for r, value in (l.split(",") for l in out.splitlines() if not l.startswith("#")):
        want = kb.berezin_transform(sym, 2, [float(r), 0.0], K, spec=sym.spec)
        assert float(value) == pytest.approx(want, rel=1e-12)


def test_krein_command(capsys):
    code, out, _ = run_cli(
        capsys, "krein", "--d", "2", "--symbol", "power:a=1,gamma=1",
        "--lnlambda", "-8:-6:3",
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    for row in rows:
        assert int(row[2]) <= int(row[3])  # lower <= upper


def test_spectrum_matrix_dump_assembles_once(capsys, tmp_path, monkeypatch):
    K = 6
    spec = TruncationSpec.for_degree(K)
    grid = ball_grid(2, spec)
    payload = {"d": 2, "K": K, "n_r": spec.n_r, "n_ang": spec.n_ang, "values": list(1.0 + grid.points[:, 0])}
    path = tmp_path / "general.json"
    path.write_text(json.dumps(payload))
    calls = []
    assemble = gt.assemble
    monkeypatch.setattr(gt, "assemble", lambda *a, **k: calls.append(a) or assemble(*a, **k))
    dump = tmp_path / "mat.csv"
    code, out, err = run_cli(
        capsys, "spectrum", "--d", "2", "--symbol", f"general:@{path}", "--matrix-output", str(dump)
    )
    assert code == 0, err
    assert len(calls) == 1
    A = np.loadtxt(dump, delimiter=",")
    eigs = sorted(float(l.split(",")[1]) for l in out.splitlines() if not l.startswith("#"))
    assert eigs == pytest.approx(sorted(np.linalg.eigvalsh(A)), abs=1e-12)


def test_successive_main_calls_match_fresh_processes(capsys):
    assert build_parser() is build_parser()
    invocations = [
        ["counting", "--d", "2", "--symbol", "power:a=1,gamma=0.5", "--lnlambda", "-12:-2:5"],
        ["krein", "--d", "3", "--symbol", "power:a=1,gamma=2", "--lnlambda", "-6:-2:3", "--format", "json"],
        ["asymptotics", "--d", "3", "--symbol", "step:b=1,c=0.5", "--model", "log-power", "--lnlambda", "-80:-10:8"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(harmotop.__file__).parents[1]))
    for argv in invocations:
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "harmotop.cli", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)


def _per_cell(value) -> str:
    """The CSV rule the columnar emitter replaced, applied one cell at a time."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def test_emit_matches_the_per_cell_rule(capsys):
    table = {
        "x": [-0.0, math.inf, -math.inf, math.nan, 0.1, 5e-324, 2.0**53 + 2.0, -1.2345678901234567e300],
        "flag": [True, False, True, True, False, False, True, False],
        "n": [0, -3, 2**53 + 1, 2**63, 2**64 + 1, 3**80, -(2**70), 7],
        "text": ["PASS", "FAIL", "50%", "%d", "a b", "radial-series", "galerkin", ""],
    }
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    meta = {"comments": ["one comment"], "formulas": ["f"], "fit": {"c": 1.5}}
    args = argparse.Namespace(command="demo", format="csv", output=None)
    emit(table, meta, args)
    want = ["# harmotop demo", "# one comment", "# columns: x,flag,n,text"]
    want += [",".join(_per_cell(row[c]) for c in table) for row in rows]
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    args.format = "json"
    emit(table, meta, args)
    payload = {
        "config": {"command": "demo", "format": "json"},
        "results": rows,
        "provenance": {"equations": ["f"], "comments": ["one comment"]},
        "fit": {"c": 1.5},
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=2, default=float) + "\n"


def test_emit_of_an_empty_table_writes_the_header_only(capsys):
    emit({"k": [], "value": []}, {"comments": []}, argparse.Namespace(command="demo", format="csv", output=None))
    assert capsys.readouterr().out == "# harmotop demo\n# columns: k,value\n"


def test_krein_energy_scan_prints_every_dimension_until_int64(capsys):
    # the counts at E = 200, 1100, 2000 equal a scipy enumeration of the j_(k+d/2,m)^2
    for d, rows in (("2", ["200,34", "1100,238", "2000,451"]), ("3", ["200,116", "1100,2037", "2000,5330"]),
                    ("4", ["200,264", "1100,13971", "2000,50079"])):
        code, out, err = run_cli(
            capsys, "krein", "--d", d, "--symbol", "power:a=1,gamma=1", "--E", "200:2000:3"
        )
        assert code == 0 and err == ""
        assert out.splitlines()[-3:] == rows
    # the Weyl estimate at d = 10, E = 2e5 is about 2e19, past int64: refused, not wrapped
    code, out, err = run_cli(capsys, "krein", "--d", "10", "--symbol", "power:a=1,gamma=1", "--E", "2000:200000:5")
    assert code == 3 and out == ""
    assert "d=10" in err and "E=200000.0" in err and "int64" in err


@pytest.mark.parametrize(
    "argv, energy",
    [
        (["--d", "2", "--lnlambda", "-8:-4:3", "--lam1", "1e300"], "E=1e+300"),
        (["--d", "2", "--E", "1e9:2e10:2"], "E=20000000000.0"),
        (["--d", "3", "--lnlambda", "-8:-4:3", "--lam1", "1e300"], "E=1e+300"),
    ],
)
def test_krein_remainder_beyond_reach_exits_three(capsys, argv, energy):
    code, out, err = run_cli(capsys, "krein", "--symbol", "power:a=1,gamma=1", *argv)
    assert code == 3 and out == ""
    assert energy in err


def test_krein_remainder_at_a_large_energy_prints_rows(capsys):
    code, out, _ = run_cli(
        capsys, "krein", "--d", "2", "--symbol", "power:a=1,gamma=1", "--lnlambda", "-8:-4:3", "--lam1", "1e9"
    )
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert code == 0 and len(rows) == 3
    # about E/4 buckling values below E = 1e9 + sup V / eps
    assert all(2.4e8 < int(upper) - int(lower) < 2.6e8 for _, _, lower, upper, _ in rows)


def test_krein_rows_share_one_remainder_sweep(capsys, monkeypatch):
    # every row's remainder energy lam1 + sup V / eps is counted by one call
    calls = []
    sweep = kc.ball_counting
    monkeypatch.setattr(kc, "ball_counting", lambda d, energy: calls.append(np.size(energy)) or sweep(d, energy))
    code, out, _ = run_cli(
        capsys, "krein", "--d", "2", "--symbol", "power:a=1,gamma=1", "--lnlambda", "-8:-4:30", "--lam1", "1e9"
    )
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert code == 0 and len(rows) == 30
    assert calls == [30]


def test_krein_energy_scan_sweeps_once(capsys, monkeypatch):
    # the fit and the printed counts share one Bessel sweep
    calls = []
    sweep = kc.ball_counting
    monkeypatch.setattr(kc, "ball_counting", lambda d, energy: calls.append(np.size(energy)) or sweep(d, energy))
    code, out, _ = run_cli(capsys, "krein", "--d", "2", "--symbol", "power:a=1,gamma=1", "--E", "2000:200000:5")
    assert code == 0 and len([l for l in out.splitlines() if not l.startswith("#")]) == 5
    assert calls == [5]


@pytest.mark.parametrize("eps", ["0", "1", "1.5", "-0.5"])
def test_krein_refuses_an_eps_outside_the_open_unit_interval(capsys, eps):
    code, out, err = run_cli(capsys, "krein", *POWER, "--lnlambda", "-8:-4:3", "--eps", eps)
    assert code == 2 and out == ""
    assert f"eps must lie in (0, 1), got {float(eps)}" in err


def test_krein_default_eps_beyond_the_double_range_is_capped(capsys):
    # lambda^theta with theta = 5 overflows at ln lambda = 700; eps = min(0.5, inf)
    argv = ["krein", "--d", "2", "--symbol", "power:a=1,gamma=0.1", "--lnlambda", "700:701:2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert [row[1:] for row in rows] == [["0.5", "0", "0", "0"]] * 2


def test_boundary_energy_fit_builds_no_degree_table(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(Power, "mu", lambda *a, **k: calls.append(a))
    code, out, _ = run_cli(capsys, "boundary", "--d", "2", "--symbol", "power:a=1,gamma=1", "--E", "100:2000:6")
    assert code == 0 and "# columns: E,count" in out
    code, out, err = run_cli(capsys, "boundary", "--d", "2", "--symbol", "step:b=1,c=0.5", "--E", "100:2000:6")
    assert code == 2 and out == "" and "power-type" in err
    assert calls == []


def test_negative_truncation_degree_exits_two(capsys):
    for argv in (
        ["berezin", "--d", "2", "--symbol", "power:a=1,gamma=1", "--radii", "0,0.5"],
        ["spectrum", "--d", "2", "--symbol", "power:a=1,gamma=1"],
        ["boundary", "--d", "2", "--symbol", "power:a=1,gamma=1"],
        ["schatten", "--symbol", "step:b=1,c=0.5", "--p", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--K", "-1"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", argv
        assert "--K" in err, argv


POWER = ["--d", "2", "--symbol", "power:a=1,gamma=1"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["schatten", *POWER, "--p", "nan"], "--p"),
        (["schatten", "--d", "2", "--symbol", "step:b=1,c=0.5", "--p", "inf"], "--p"),
        (["counting", *POWER, "--lambda", "nan"], "--lambda"),
        (["counting", *POWER, "--lnlambda", "nan:1:3"], "--lnlambda"),
        (["counting", *POWER, "--lnlambda", "-10:inf"], "--lnlambda"),
        (["berezin", *POWER, "--radii", "0,nan"], "--radii"),
        (["asymptotics", *POWER, "--lnlambda", "-12:-4", "--model", "power", "--exponent", "nan"], "--exponent"),
        (["krein", *POWER, "--lnlambda", "-8:-4:3", "--lam1", "nan"], "--lam1"),
        (["krein", "--d", "3", "--symbol", "power:a=1,gamma=1", "--lnlambda", "-8:-4:3", "--lam1", "inf"], "--lam1"),
        (["krein", *POWER, "--lnlambda", "-8:-4:3", "--eps", "nan"], "--eps"),
    ],
)
def test_non_finite_numeric_options_exit_two(capsys, argv, option):
    try:
        code = main(argv)
    except SystemExit as exc:  # refused by the argument parser
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert option in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["counting", *POWER, "--lambda", "1e-400"], "--lambda"),
        (["krein", *POWER, "--lnlambda", "-8:-4:3", "--eps", "1e-400"], "--eps"),
    ],
)
def test_an_option_that_underflows_to_zero_is_refused_as_an_underflow(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument {option}: '1e-400' is not 0 but underflows to 0.0" in err and "--lnlambda" in err
    # a typed 0 keeps its own refusal
    code, out, err = run_cli(capsys, *argv[:-1], "0")
    assert code == 2 and out == ""
    assert err == ("harmotop: --lambda must be positive, got 0.0\n" if option == "--lambda"
                   else "harmotop: eps must lie in (0, 1), got 0.0\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flag", ["--output", "--matrix-output"])
def test_writing_into_a_missing_directory_exits_two(capsys, tmp_path, flag, fmt):
    # both files are written inside main's try, so a path that cannot be
    # written is refused like any other input: exit 2, one line, no stdout
    target = str(tmp_path / "missing" / "x.csv")
    argv = ["spectrum", "--d", "2", "--symbol", "step:b=1,c=0.5", "--K", "3", flag, target, "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("harmotop: ") and err.count("\n") == 1 and target in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["counting", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda=-1e12:0"], "--lnlambda"),  # N from |HI-LO|
        (["counting", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda=-1:0:1000000000000"], "--lnlambda"),
        (["counting", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda=-1e308:1e308"], "--lnlambda"),  # |HI-LO| = inf
        (["krein", *POWER, "--E", "100:200:1000000000000"], "--E"),
        (["spectrum", "--d", "2", "--symbol", "step:b=1,c=0.5", "--K", "1000000000000"], "--K"),
        (["schatten", "--d", "2", "--symbol", "step:b=1,c=0.5", "--p", "2", "--weak", "--K", "1000000000000"], "--K"),
    ],
)
def test_sizes_past_the_cap_exit_two_before_any_array(capsys, argv, option):
    # each would ask numpy for 7.28 TiB, or round an infinite span to a count
    try:
        code = main(argv)
    except SystemExit as exc:  # refused by the argument parser
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert option in err and re.search(r"\b1000000\b", err) and "Traceback" not in err  # the bound, not the ask


@pytest.mark.parametrize("exponent", ["0", "-1"])
@pytest.mark.parametrize("model", ["power", "log-power"])
def test_asymptotics_refuses_a_non_positive_pinned_exponent(capsys, model, exponent):
    code, out, err = run_cli(
        capsys, "asymptotics", *POWER, "--lnlambda", "-12:-4", "--model", model, "--exponent", exponent
    )
    assert code == 2 and out == ""
    assert "exponent" in err and "Traceback" not in err


@pytest.mark.parametrize("d", ["1", "0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--symbol", "power:a=1,gamma=1"],
        ["counting", "--symbol", "power:a=1,gamma=1", "--lambda", "0.1"],
        ["asymptotics", "--symbol", "power:a=1,gamma=1", "--lnlambda", "-12:-4", "--model", "power"],
        ["berezin", "--symbol", "power:a=1,gamma=1"],
        ["schatten", "--symbol", "power:a=1,gamma=1", "--p", "2"],
        ["boundary", "--symbol", "power:a=1,gamma=1"],
        ["krein", "--symbol", "power:a=1,gamma=1", "--lnlambda", "-8:-4:3"],
    ],
    ids=lambda argv: argv[0],
)
def test_dimension_below_two_exits_two(capsys, argv, d):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--d", d])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--d" in err


@pytest.mark.parametrize("radii", [",", ""])
def test_berezin_refuses_an_empty_radius_list(capsys, radii):
    code, out, err = run_cli(capsys, "berezin", *POWER, "--radii", radii)
    assert code == 2 and out == ""
    assert "--radii" in err


@pytest.mark.parametrize(
    "symbol, grid, extra",
    [
        ("step:b=1,c=0.5", "-760:-700:13", ["--eps", "0.5"]),
        ("step:b=1,c=0.5", "-740.2851888380216:-740.2831888380215:2", ["--eps", "0.5"]),
        ("power:a=1,gamma=40", "-760:-700:13", []),
    ],
)
def test_krein_rows_below_the_double_range_match_counting(capsys, symbol, grid, extra):
    # lambda is sub-normal from ln lambda = -708 down and 0 below -745; each
    # row's bounds are still the log-domain counts at its own ln lambda
    code, out, err = run_cli(capsys, "krein", "--d", "2", "--symbol", symbol, "--lnlambda", grid, *extra)
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    lo, hi, n = grid.split(":")
    v = parse_symbol(symbol)
    for ln_lam, row in zip(np.linspace(float(lo), float(hi), int(n)).tolist(), rows, strict=True):
        eps = float(row[1])
        assert int(row[2]) == rt.counting(v, 2, ln_lam=ln_lam)
        remainder = kc.remainder_model(eps, v.sup(), 10.0, 2)
        assert int(row[3]) == rt.counting(v, 2, ln_lam=ln_lam + math.log1p(-eps)) + remainder


@pytest.mark.parametrize(
    "symbol, reason",
    [("power:a=1,gamma=1", "degree cap"), ("step:b=1,c=0.5", "Bessel sweep")],
)
def test_krein_deep_grid_beyond_certification_exits_three(capsys, symbol, reason):
    code, out, err = run_cli(capsys, "krein", "--d", "2", "--symbol", symbol, "--lnlambda", "-800:-790:3")
    assert code == 3 and out == ""
    assert reason in err


def test_krein_default_eps_that_underflows_exits_three(capsys):
    # theta = 1/2 for a step, so lambda^theta is 0 below ln lambda = -1490;
    # with --eps the same grid prints its rows
    argv = ["krein", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda", "-1500:-1495:2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "remainder" in err and "ln lambda = -1500.0" in err and "--eps" in err
    code, out, err = run_cli(capsys, *argv, "--eps", "0.5")
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert [row[:2] for row in rows] == [["0", "0.5"], ["0", "0.5"]]


def test_counting_a_power_past_gamma_1000_exits_three(capsys):
    # ln a + lgamma(gamma+1) and lgamma(x+gamma) both lie near gamma ln gamma:
    # at gamma = 1e18 ln mu_0 came out 0 (true -82.2) and every row read 107
    code, out, err = run_cli(capsys, "counting", "--d", "2", "--symbol", "power:a=1,gamma=1e18", "--lnlambda=-300:-50:6")
    assert (code, out) == (3, "")
    assert err == "harmotop: certification failure: ln mu_k of a power symbol loses precision past gamma = 1000 (gamma = 1e+18)\n"
    code, _, err = run_cli(capsys, "counting", "--d", "2", "--symbol", "power:a=1,gamma=1000", "--lnlambda=-300:-50:6")
    assert code == 0, err


def test_boundary_order_check_past_the_double_range_exits_three(capsys):
    # 10000^78 overflows a double (an OverflowError traceback, exit 1, before);
    # 10000^77 = 1e308 does not, and that comment keeps its value
    code, out, err = run_cli(capsys, "boundary", "--d", "2", "--symbol", "power:a=1,gamma=78", "--K", "2")
    assert (code, out) == (3, "")
    assert err == "harmotop: certification failure: k^gamma at k = 10000 is beyond the double range (gamma = 78.0)\n"
    code, out, err = run_cli(capsys, "boundary", "--d", "2", "--symbol", "power:a=1,gamma=77", "--K", "2")
    assert code == 0, err
    assert (
        "# principal symbol check: k^gamma mu_k -> 9.4001398552820581e+89 "
        "(target 2^-gamma Gamma(gamma+1) a = 9.6074111197041231e+89)\n"
    ) in out


def test_krein_envelope_beyond_the_double_range_exits_three(capsys):
    # C lambda^(-39) at lambda = e^-30 is about e^1040
    argv = ["krein", "--d", "40", "--symbol", "power:a=1,gamma=1", "--eps", "0.5"]
    code, out, err = run_cli(capsys, *argv, "--lnlambda", "-30:-20:3")
    assert code == 3 and out == ""
    assert "envelope_main" in err and "ln lambda = -30.0" in err
    code, out, err = run_cli(capsys, *argv, "--lnlambda", "-3:-2:3")
    assert code == 0, err


@pytest.mark.parametrize(
    "argv, reason",
    [
        # at d = 120 the multiplicities pass DBL_MAX near degree 18,000, below --K
        (["--d", "120", "--symbol", "power:a=1,gamma=1", "--K", "20000", "--p", "200"], None),
        # p gamma = 2 <= d - 1: the weak tail does not decay, so no table is built
        (
            ["--d", "120", "--symbol", "power:a=1,gamma=1", "--K", "20000", "--p", "2", "--weak"],
            "weak-norm tail beyond degree 20000 may exceed the enumerated sup",
        ),
        # a step's weak tail decays, so its table is built, and its counts leave the double range
        (
            ["--d", "120", "--symbol", "step:b=1,c=0.999", "--K", "20000", "--p", "2", "--weak"],
            "the eigenvalue count at degree 17366 is beyond the double range (d=120)",
        ),
        # no table up to 4,096 certifies the weak norm; the next one, to 16,384, holds degree 6467
        (
            ["--d", "150", "--symbol", "step:b=1,c=0.999", "--p", "2", "--weak"],
            "the eigenvalue count at degree 6467 is beyond the double range (d=150)",
        ),
    ],
    ids=["strong", "weak", "weak-count", "weak-tail"],
)
def test_schatten_counts_beyond_the_double_range_exit_three(capsys, argv, reason):
    code, out, err = run_cli(capsys, "schatten", *argv)
    assert code == 3 and out == ""
    if reason is None:
        assert "certification failure" in err and f"d={argv[1]}" in err and "degree" in err
    else:
        assert err == f"harmotop: certification failure: {reason}\n"


@pytest.mark.parametrize(
    "argv, degree, tables",
    [
        (["--d", "120", "--K", "20000"], 17366, []),
        (["--d", "150"], 6467, [1024, 4096]),  # the table to 16,384 is the refusing one
    ],
)
def test_weak_counts_of_a_monotone_symbol_refuse_before_the_overflowing_table(capsys, monkeypatch, argv, degree, tables):
    # a monotone symbol's sorted order is degree order, so the degree whose
    # count leaves the double range is found by bisection, with no table
    formed = []
    sorted_table = rt._sorted_table
    monkeypatch.setattr(rt, "_sorted_table", lambda v, d, K, sign=0: formed.append(K) or sorted_table(v, d, K, sign))
    code, out, err = run_cli(capsys, "schatten", *argv, "--symbol", "step:b=1,c=0.999", "--p", "2", "--weak")
    assert (code, out) == (3, "")
    assert err == f"harmotop: certification failure: the eigenvalue count at degree {degree} is beyond the double range (d={argv[1]})\n"
    assert formed == tables


def test_weak_norm_of_a_zero_step_counts_nothing_past_the_double_range(capsys):
    # M_1024 leaves the double range at d = 400, but a zero symbol has no eigenvalue to count
    code, out, err = run_cli(capsys, "schatten", "--d", "400", "--symbol", "step:b=0,c=0.5", "--p", "2", "--weak")
    assert code == 0, err
    assert _rows(out) == [["2", "1", "0", "radial-series"]]


@pytest.mark.parametrize("c", ["0.999", "0.9999"])
def test_weak_tail_past_the_double_range_refuses_before_forming_the_counts(capsys, c):
    # the tail's sup past degree 10 (about e^384 at c = 0.999) lies far above
    # the table's and past the degree-6467 counts that leave the double
    # range; the tail bound is one closed form per term and forms no count
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "schatten", "--d", "150", "--symbol", f"step:b=1,c={c}", "--K", "10", "--p", "2", "--weak"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == "harmotop: certification failure: weak-norm tail beyond degree 10 may exceed the enumerated sup\n"
    assert peak < 1e6


def test_weak_tail_at_a_large_dimension_certifies_a_small_table(capsys):
    # past degree 10 the tail falls from degree 11 on, from e^-100.20, just
    # below the table's sup e^-100.16; the AM-GM majorant of M_k, which
    # gives e^-87.5 there, would refuse it
    code, out, _ = run_cli(capsys, "schatten", "--d", "150", "--symbol", "step:b=1,c=0.5", "--K", "10", "--p", "2", "--weak")
    assert code == 0
    assert _rows(out) == [["2", "1", "3.1818330972116663e-44", "radial-series"]]


@pytest.mark.parametrize("b, value", [("1", "3.1818330972116663e-44"), ("0", "0")])
def test_weak_norm_at_a_large_dimension_stops_at_its_first_certified_table(capsys, b, value):
    # the first table, to degree 1,024, certifies the sup; its counts fit in
    # doubles, where those of a table past degree 6467 would not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "schatten", "--d", "150", "--symbol", f"step:b={b},c=0.5", "--p", "2", "--weak")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert _rows(out) == [["2", "1", value, "radial-series"]]
    assert elapsed < 0.2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "symbol, lnlambda, model, exponent, reason",
    [
        ("power:a=1,gamma=1", "-12:-4:5", "power", "60", "model value inf"),
        ("power:a=1,gamma=1", "-12:-4:5", "power", "1000", "fit coefficient 0.0"),
        ("power:a=1,gamma=1", "-12:-4:5", "log-power", "400", "fit coefficient 0.0"),
        ("power:a=1e300,gamma=40", "600:680:5", "power", "1000", "fit coefficient inf"),
    ],
)
def test_asymptotics_pinned_exponent_beyond_the_double_range_exits_three(capsys, symbol, lnlambda, model, exponent, reason, fmt):
    # a model row past DBL_MAX printed inf (Infinity in JSON), a coefficient
    # that underflows printed 0 and nan rows, its log failed with exit 2, and
    # one that overflows ended in a traceback
    argv = ["asymptotics", "--d", "2", "--symbol", symbol, "--lnlambda", lnlambda, "--format", fmt]
    code, out, err = run_cli(capsys, *argv, "--model", model, "--exponent", exponent)
    assert code == 3 and out == ""
    assert reason in err and "not a positive finite double" in err


@pytest.mark.parametrize(
    "argv, row",
    [
        (["asymptotics", "--symbol", "power:a=1,gamma=1", "--model", "power", "--lnlambda", "-30:-20:5"], "ln lambda = -20.0"),
        (["boundary", "--symbol", "power:a=1,gamma=1", "--E", "1e6:1e7:6"], "E = 1000000.0"),
    ],
    ids=["asymptotics", "boundary"],
)
def test_fit_counts_beyond_the_double_range_exit_three(capsys, argv, row):
    # the fits converted the exact counts with np.array(counts, dtype=float),
    # which ended in an OverflowError traceback
    code, out, err = run_cli(capsys, argv[0], "--d", "150", *argv[1:])
    assert code == 3 and out == ""
    assert f"the eigenvalue count at {row} is beyond the double range (d=150)" in err


_FLAT = ["asymptotics", "--d", "2", "--lnlambda", "-4.0:-4.0001:5", "--model"]


@pytest.mark.parametrize(
    "argv, count",
    [
        pytest.param(["boundary", "--d", "2", "--E", "30:30.001:5"], 27, id="30:30.001:5"),
        pytest.param(["boundary", "--d", "2", "--E", "21:21.5:4"], 19, id="21:21.5:4"),
        pytest.param(["boundary", "--d", "2", "--E", "100:100.0001:6"], 97, id="100:100.0001:6"),
        pytest.param(["boundary", "--d", "2", "--E", "15:15.0015:4"], 13, id="boundary-d2-rising-slope"),
        pytest.param(["boundary", "--d", "3", "--E", "21:21.5:4"], 81, id="boundary-d3-even-exponent"),
        pytest.param([*_FLAT, "power"], 51, id="asymptotics-free"),
        pytest.param([*_FLAT, "power", "--exponent", "1"], 51, id="asymptotics-pinned"),
        pytest.param([*_FLAT, "log-power", "--exponent", "2"], 51, id="asymptotics-log-power"),
        pytest.param(["krein", "--d", "2", "--E", "20:20.5:3"], 1, id="krein-E"),
    ],
)
def test_boundary_fit_on_a_flat_count_exits_three(capsys, argv, count):
    # the count does not grow over the grid, so the fitted slope is 0 up to
    # rounding: its sign is noise.  A negative root slope ended in "math
    # domain error" with exit 2; a positive one, or a negative one raised
    # to an even exponent, printed a coefficient near 0 with exit 0, as did
    # the free fits (exponent -1.06e-11, and 0 from `krein --E`)
    code, out, err = run_cli(capsys, *argv, "--symbol", "power:a=1,gamma=1")
    assert (code, out) == (3, "")
    assert err == f"harmotop: certification failure: the count is {count} at every grid point; no law fits a count that does not grow\n"


def test_schatten_at_a_huge_exponent_writes_nothing_to_stderr():
    # exp(p (log mu - top)) and the tail bound's (k + 1) p log q overflow to
    # -inf on purpose; each wrote a RuntimeWarning beside the right value
    env = dict(os.environ, PYTHONPATH=str(Path(harmotop.__file__).parents[1]))
    argv = ["schatten", "--d", "2", "--symbol", "step:b=1,c=0.5", "--p", "1e308"]
    run = subprocess.run([sys.executable, "-m", "harmotop.cli", *argv], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    assert _rows(run.stdout) == [["1e+308", "0", "0.25", "radial-series"]]


def test_schatten_refuses_a_law_that_is_not_p_summable_before_tabulating(capsys):
    # p gamma = 2 <= d - 1 = 79: the tables grew until the counts left the
    # double range near degree 265,000, which took about 17 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "schatten", "--d", "80", "--symbol", "power:a=1,gamma=1", "--p", "2")
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "p-th power tail beyond degree 400000 is not certified negligible" in err


@pytest.mark.parametrize(
    "name",
    [
        "symbols",
        "radial_toeplitz",
        "numerics",
        "harmonic_basis",
        "grids",
        "galerkin_toeplitz",
        "kernel_berezin",
        "boundary_reduction",
        "krein_counting",
    ],
)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"harmotop.{name}")
    defined = {
        key
        for key, obj in vars(module).items()
        if not key.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(module.__all__) == sorted(defined)


def _rows(out: str) -> list[list[str]]:
    return [l.split(",") for l in out.splitlines() if not l.startswith("#")]


def _general_file(tmp_path, spec: TruncationSpec) -> Path:
    grid = ball_grid(2, spec)
    values = 1.0 + 0.5 * grid.points[:, 0] - 0.25 * grid.points[:, 1] ** 2
    path = tmp_path / "general.json"
    path.write_text(json.dumps({"d": 2, "K": spec.max_degree, "n_r": spec.n_r, "n_ang": spec.n_ang, "values": values.tolist()}))
    return path


# odd n_ang: weighted_gram takes its unfolded path
ODD_GRID = TruncationSpec(max_degree=4, n_r=24, n_ang=13)


def test_general_file_runs_on_its_own_grid(capsys, tmp_path):
    path = _general_file(tmp_path, ODD_GRID)
    sym = parse_symbol(f"general:@{path}")
    section = gt.spectrum(sym, 2, ODD_GRID)
    code, out, err = run_cli(capsys, "spectrum", "--d", "2", "--symbol", f"general:@{path}")
    assert code == 0, err
    assert [float(row[1]) for row in _rows(out)] == section.values.tolist()
    code, out, err = run_cli(capsys, "schatten", "--d", "2", "--symbol", f"general:@{path}", "--p", "2")
    assert code == 0, err
    assert float(_rows(out)[0][2]) == section.schatten(2.0)
    code, out, err = run_cli(capsys, "berezin", "--d", "2", "--symbol", f"general:@{path}", "--radii", "0,0.5,0.9")
    assert code == 0, err
    points = np.array([[0.0, 0.0], [0.5, 0.0], [0.9, 0.0]])
    want = kb.berezin_transform(sym, 2, points, 4, spec=ODD_GRID)
    assert [float(row[1]) for row in _rows(out)] == want.tolist()


@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["schatten", "--p", "2"], ["berezin", "--radii", "0.5"]],
    ids=lambda argv: argv[0],
)
def test_general_file_refuses_another_degree(capsys, tmp_path, argv):
    path = _general_file(tmp_path, ODD_GRID)
    code, out, err = run_cli(capsys, *argv, "--d", "2", "--symbol", f"general:@{path}", "--K", "3")
    assert code == 2 and out == ""
    assert "sampled on a different grid" in err and "--K 3" in err and "K = 4" in err


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["boundary"], ["schatten", "--p", "2"], ["berezin", "--radii", "0.5"]],
    ids=lambda argv: argv[0],
)
def test_general_file_refuses_another_dimension(capsys, tmp_path, argv, d):
    # boundary printed its degree table with exit 0; the others refused the
    # grid without naming d
    path = _general_file(tmp_path, ODD_GRID)
    code, out, err = run_cli(capsys, *argv, "--d", str(d), "--symbol", f"general:@{path}")
    assert (code, out) == (2, "")
    assert err == f"harmotop: tabulated symbol was sampled for d = 2, not --d {d}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["counting", "--lambda", "0.1"],
        ["asymptotics", "--model", "power", "--lnlambda", "-8:-4:5"],
        ["krein", "--lnlambda", "-6:-2:5"],
    ],
    ids=lambda argv: argv[0],
)
def test_general_file_is_refused_where_no_section_runs(capsys, tmp_path, argv):
    # these commands take the closed forms in mu_k only
    path = _general_file(tmp_path, ODD_GRID)
    code, out, err = run_cli(capsys, *argv, "--d", "2", "--symbol", f"general:@{path}")
    assert (code, out) == (2, "")
    assert err == f"harmotop: {argv[0]} requires a radial symbol; use spectrum for general symbols\n"


@pytest.mark.parametrize(
    "symbol, d, K",
    [
        ("power:a=1,gamma=1.5", 2, 4),
        ("power:a=2,gamma=0.5", 3, 5),
        ("sum:[power:a=1,gamma=2; step:b=-0.5,c=0.4]", 2, 6),
    ],
)
def test_radial_matrix_dump_is_the_exact_diagonal_section(capsys, tmp_path, symbol, d, K):
    dump = tmp_path / "section.csv"
    code, out, err = run_cli(
        capsys, "spectrum", "--d", str(d), "--symbol", symbol, "--K", str(K), "--matrix-output", str(dump)
    )
    assert code == 0, err
    A = np.loadtxt(dump, delimiter=",")
    diag = np.diag(A)
    assert np.all(A - np.diag(diag) == 0.0)
    mus = parse_symbol(symbol).mu(d, np.arange(K + 1))
    assert np.array_equal(diag, mus[basis_degrees(d, K)])  # degree-major
    printed = np.repeat([float(r[1]) for r in _rows(out)], [int(r[2]) for r in _rows(out)])
    assert np.array_equal(np.sort(diag), np.sort(printed))


@pytest.mark.parametrize("d, K", [(2, 30), (3, 20)])
def test_radial_matrix_dump_is_byte_identical_to_the_dense_diagonal(capsys, tmp_path, d, K):
    # the radial route writes one one-hot row at a time; the bytes are those
    # of the dense diag(mu_k) through the same %.17g template
    symbol = "sum:[power:a=1,gamma=1.5; step:b=-0.5,c=0.4]"
    dump, dense = tmp_path / "rows.csv", tmp_path / "dense.csv"
    code, _, err = run_cli(
        capsys, "spectrum", "--d", str(d), "--symbol", symbol, "--K", str(K), "--matrix-output", str(dump)
    )
    assert code == 0, err
    gt.write_matrix_csv(dense, np.diag(parse_symbol(symbol).mu(d, np.arange(K + 1))[basis_degrees(d, K)]), d, K)
    assert dump.read_bytes() == dense.read_bytes()


def test_radial_matrix_dump_never_holds_the_dense_section(capsys, tmp_path, monkeypatch):
    # d = 3, K = 40: M_K = 1681, so the dense section is 22.6 MB of doubles.
    # The writer reads a row at a time (test_matrix_csv_dump_holds_one_row_of_
    # text_at_a_time); here a stub takes its place, so that tracemalloc does
    # not trace the 2.8 million floats of the text, and checks every row.
    n, seen = cumulative_multiplicity(3, 40), []

    def consume(path, rows, d, max_degree):
        for i, row in enumerate(rows):
            assert row.shape == (n,) and np.count_nonzero(row) == 1 and row[i] != 0.0
            seen.append(float(row[i]))

    monkeypatch.setattr(gt, "write_matrix_csv", consume)
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, "spectrum", "--d", "3", "--symbol", "power:a=1,gamma=1", "--K", "40",
            "--matrix-output", str(tmp_path / "section.csv"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert seen == Power(1.0, 1.0).mu(3, np.arange(41))[basis_degrees(3, 40)].tolist()
    assert peak < 8 * n * n / 20


def test_weak_norm_near_the_critical_exponent_refuses_from_a_bounded_scan(capsys):
    # p gamma = d - 1 + 2e-7 puts the tail's decreasing degree at 5e6; the
    # exact scan of every degree up to it peaked at 200 MB traced (0.35 s),
    # where 2^16 exact degrees and the majorant beyond give the same refusal
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "schatten", "--d", "2", "--symbol", "power:a=1,gamma=0.5000001", "--p", "2", "--weak"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == "harmotop: certification failure: weak-norm tail beyond degree 40000 may exceed the enumerated sup\n"
    assert peak < 20e6


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum"],
        ["counting", "--lambda", "0.1"],
        ["asymptotics", "--lnlambda", "-12:-4", "--model", "power"],
        ["berezin"],
        ["schatten", "--p", "2"],
        ["boundary"],
        ["krein", "--lnlambda", "-8:-4:3"],
    ],
    ids=lambda argv: argv[0],
)
def test_grid_options_are_refused(capsys, argv):
    refused = [["--nr", "20"], ["--nang", "20"]]
    if argv[0] in ("counting", "asymptotics", "krein"):
        refused.append(["--K", "3"])
    for extra in refused:
        with pytest.raises(SystemExit) as exc:
            main(argv + [*POWER, *extra])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", extra
        assert extra[0] in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["counting", "krein"])
def test_lnlambda_above_the_double_range_exits_two(capsys, command, fmt):
    argv = [command, "--d", "2", "--symbol", "step:b=1,c=0.5", "--format", fmt]
    code, out, err = run_cli(capsys, *argv, "--lnlambda", "800:801:2")
    assert code == 2 and out == ""
    assert "--lnlambda" in err
    # ln(DBL_MAX) itself is a double lambda, and every count there is 0
    code, out, err = run_cli(capsys, *argv, "--lnlambda", f"700:{math.log(sys.float_info.max)!r}:2")
    assert code == 0, err


@pytest.mark.parametrize("grid", ["-712:-700:4", "-708:-700:5", "-760:-740:5"])
def test_counting_and_krein_print_one_lambda_column(capsys, grid):
    # lambda is the double exp(ln lambda), sub-normal from -708 down and 0
    # only below -745.13, in both commands
    lo, hi, n = grid.split(":")
    ln_grid = np.linspace(float(lo), float(hi), int(n)).tolist()
    columns = []
    for argv in (["counting"], ["krein", "--eps", "0.5"]):
        code, out, err = run_cli(capsys, *argv, "--d", "2", "--symbol", "step:b=1,c=0.5", f"--lnlambda={grid}")
        assert code == 0, err
        columns.append([l.split(",")[0] for l in out.splitlines() if not l.startswith("#")])
    assert columns[0] == columns[1] == ["%.17g" % math.exp(t) for t in ln_grid]
    assert [float(lam) == 0.0 for lam in columns[0]] == [t < -745.13 for t in ln_grid]
    if grid == "-708:-700:5":
        assert columns[0][0] == "3.3075530036384078e-308"


def test_asymptotics_refuses_lnlambda_above_the_double_range(capsys):
    argv = ["asymptotics", "--d", "2", "--symbol", "power:a=1,gamma=1", "--model", "power"]
    code, out, err = run_cli(capsys, *argv, "--lnlambda=700:720:5")
    assert (code, out) == (2, "")
    assert "--lnlambda" in err and "ln(DBL_MAX)" in err


def test_asymptotics_reads_its_grid_descending_once_per_point(capsys, monkeypatch):
    # an ascending grid prints the rows of its descending form; a repeated
    # point, which LO:HI:N makes only on spans too short to fit, is read once
    argv = ["asymptotics", "--d", "2", "--symbol", "power:a=1,gamma=1", "--model", "power"]
    code, descending, err = run_cli(capsys, *argv, "--lnlambda", "-4:-12:5")
    assert code == 0, err
    assert run_cli(capsys, *argv, "--lnlambda", "-12:-4:5") == (0, descending, "")
    parse_range = harmotop.cli._parse_range
    monkeypatch.setattr(harmotop.cli, "_parse_range", lambda text, name: np.insert(parse_range(text, name), 2, -8.0))
    assert harmotop.cli._parse_range("-12:-4:5", "lnlambda").tolist() == [-12.0, -10.0, -8.0, -8.0, -6.0, -4.0]
    assert run_cli(capsys, *argv, "--lnlambda", "-12:-4:5") == (0, descending, "")


def test_krein_sub_normal_eps_refusal_writes_one_stderr_line():
    # eps = lambda^(1/2) is sub-normal, so sup V / eps overflows to inf
    env = dict(os.environ, PYTHONPATH=str(Path(harmotop.__file__).parents[1]))
    argv = ["krein", "--d", "2", "--symbol", "step:b=1,c=0.5", "--lnlambda", "-1485:-1484:2"]
    run = subprocess.run([sys.executable, "-m", "harmotop.cli", *argv], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (3, "")
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("harmotop: certification failure: ")


_MINIMAL = {
    "spectrum": ["--symbol", "power:a=1,gamma=1"],
    "counting": ["--symbol", "step:b=1,c=0.5", "--lambda", "0.1"],
    "asymptotics": ["--symbol", "power:a=1,gamma=1", "--model", "power", "--lnlambda", "-12:-4"],
    "berezin": ["--symbol", "power:a=1,gamma=1"],
    "schatten": ["--symbol", "step:b=1,c=0.5", "--p", "2"],
    "boundary": ["--symbol", "power:a=1,gamma=1"],
    "krein": ["--symbol", "power:a=1,gamma=1", "--lnlambda", "-8:-4:3"],
}


def test_minimal_invocations_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_MINIMAL) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", sorted(_MINIMAL))
def test_every_declared_option_is_read(capsys, command):
    # an option the handler and emit never read is accepted and ignored
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = build_parser()
    args = Recorder(**vars(parser.parse_args(_glue_negative_values([command, *_MINIMAL[command]]))))
    emit(*_COMMANDS[command](args), args)
    capsys.readouterr()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    declared = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
    assert declared - reads == set()


def _parse_cases():
    """The `_MINIMAL` argv of every subcommand, and every exact case's argv in both formats."""
    from test_exact_outputs import CASES, FORMATS

    cases = [pytest.param([command, *args], id=command) for command, args in sorted(_MINIMAL.items())]
    return cases + [
        pytest.param([*argv, "--format", fmt], id=f"{name}/{fmt}") for name, argv in CASES.items() for fmt in FORMATS
    ]


@pytest.mark.parametrize("argv", _parse_cases())
def test_one_pass_parse_equals_the_full_parser(capsys, monkeypatch, argv):
    # the same attributes, values and order: the order is that of the JSON config keys
    seen = []
    monkeypatch.setitem(_COMMANDS, argv[0], lambda args: seen.append(args) or ({"x": []}, {}))
    assert main(list(argv)) == 0
    capsys.readouterr()
    full = build_parser().parse_args(_glue_negative_values(argv))
    assert list(vars(seen[0]).items()) == list(vars(full).items())


@pytest.mark.parametrize("command", sorted(_MINIMAL))
def test_a_command_argv_skips_the_full_parser(capsys, monkeypatch, command):
    parser, calls = build_parser(), []
    for name in ("parse_args", "parse_known_args"):
        method = getattr(parser, name)
        monkeypatch.setattr(parser, name, lambda *a, _m=method, _n=name, **k: calls.append(_n) or _m(*a, **k))
    assert main([command, *_MINIMAL[command]]) == 0
    capsys.readouterr()
    assert calls == []
    with pytest.raises(SystemExit):  # no subcommand named: the full parser runs, once
        main(["bogus"])
    capsys.readouterr()
    assert calls == ["parse_args", "parse_known_args"]


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ([], 2, "harmotop: error: the following arguments are required: command"),
        (["bogus"], 2, "harmotop: error: argument command: invalid choice: 'bogus'"),
        (["-h"], 0, ""),
        (["--d", "2", "counting"], 2, "harmotop: error: argument command: invalid choice: '2'"),
    ],
    ids=["empty", "unknown", "help", "option-first"],
)
def test_argv_naming_no_subcommand_goes_to_the_full_parser(capsys, argv, code, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, stderr = capsys.readouterr()
    assert exc.value.code == code and err in stderr
    assert out == (build_parser().format_help() if code == 0 else "")
    if code:
        assert stderr.startswith("usage: harmotop [-h]")


def test_subcommand_errors_and_help_come_from_the_subcommand_parser(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["counting"]
    with pytest.raises(SystemExit) as exc:
        main(["counting", "--symbol", "step:b=1,c=0.5", "--lambda", "0.1", "--nr", "20"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: harmotop counting") and err.endswith(
        "harmotop counting: error: unrecognized arguments: --nr 20\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["counting", "-h"])
    assert (exc.value.code, capsys.readouterr().out) == (0, sub.format_help())
