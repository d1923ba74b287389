"""Seeded workloads: lists of CLI invocations plus the inputs they read.

Each workload function takes a `random.Random` seeded from `--seed` and a directory
for generated inputs, and returns a list of invocations.  An invocation is
`{"argv": [...], "check": {...}}`: the arguments for `harmotop.cli.main`
and what the oracle needs to check the output, in plain numbers (the
oracle never parses a descriptor).

Parameters are drawn stratified (one draw per stratum of the range, in a
fixed order) rather than independently, and Galerkin sizes form a fixed
ladder, so that the cost of a round changes little from seed to seed while
the inputs still change.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from oracles import tensor_grid


def _num(x: float, digits: int = 4) -> float:
    """Round to a short decimal, so descriptor text and oracle agree exactly."""
    return float(f"{x:.{digits}g}")


def _strata(rng: random.Random, lo: float, hi: float, n: int, digits: int = 4) -> list[float]:
    width = (hi - lo) / n
    return [_num(lo + (i + rng.random()) * width, digits) for i in range(n)]


def _fmt(x: float) -> str:
    return repr(float(x))


def _power(a: float, gamma: float) -> tuple[str, dict]:
    return f"power:a={_fmt(a)},gamma={_fmt(gamma)}", {"kind": "power", "a": a, "gamma": gamma}


def _step(b: float, c: float) -> tuple[str, dict]:
    return f"step:b={_fmt(b)},c={_fmt(c)}", {"kind": "step", "b": b, "c": c}


def _grid_arg(lo: float, hi: float, n: int) -> str:
    return f"{_fmt(lo)}:{_fmt(hi)}:{n}"


# --- radial-closed -----------------------------------------------------------


def _counting(d: int, desc: str, sym: dict, grid: tuple) -> dict:
    return {
        "argv": ["counting", "--d", str(d), "--symbol", desc, "--lnlambda", _grid_arg(*grid)],
        "check": {"kind": "counting", "d": d, "symbol": sym, "grid": list(grid)},
    }


def radial_closed(rng: random.Random, tmp: Path) -> list[dict]:
    ops = []
    # Power counting is wrong from ln lambda ~ -8 down for gamma = 0.5 and
    # from ~ -13 for gamma = 0.7; from gamma ~ 0.75 to 1 whether any row of a
    # grid reaching -14 is wrong depends on a and d.  So the power symbols
    # are drawn on either side of that band: five below it (gamma = 0.5 at
    # d = 2 first), each drawn from a narrow range so that its number of
    # wrong rows changes little between seeds, and fifteen from [1, 3].
    # The same invocations fail for every seed, so ok_frac and
    # right_row_frac measure the program and not the draw.
    for d, gamma in zip((2, 3, 2, 3, 2), (0.5, 0.55, 0.6, 0.65, 0.7)):
        g = gamma if gamma == 0.5 else _num(gamma + rng.uniform(0.0, 0.02))
        desc, sym = _power(_num(rng.uniform(0.8, 1.25)), g)
        grid = (_num(rng.uniform(-14.0, -13.8)), _num(rng.uniform(-1.2, -1.0)), 200)
        ops.append(_counting(d, desc, sym, grid))
    for i, gamma in enumerate(_strata(rng, 1.0, 3.0, 15)):
        desc, sym = _power(_num(rng.uniform(0.5, 2.0)), gamma)
        grid = (_num(rng.uniform(-14.0, -13.0)), _num(rng.uniform(-2.0, -1.0)), 200)
        ops.append(_counting(3 - i % 2, desc, sym, grid))
    for d in (2, 3, 2, 3):
        desc, sym = _step(_num(rng.uniform(0.2, 2.0)), _num(rng.uniform(0.1, 0.9)))
        grid = (_num(rng.uniform(-200.0, -190.0)), _num(rng.uniform(-11.0, -10.0)), 200)
        ops.append(_counting(d, desc, sym, grid))
    # One power-model fit below the band (wrong from about -8.5), three above it.
    power_gammas = [_num(rng.uniform(0.5, 0.52))] + _strata(rng, 1.0, 3.0, 3)
    for i, (d, model) in enumerate(((2, "power"), (3, "power")) * 2 + ((2, "log-power"), (3, "log-power")) * 2):
        if model == "power":
            a = _num(rng.uniform(0.8, 1.25)) if i == 0 else _num(rng.uniform(0.5, 2.0))
            desc, sym = _power(a, power_gammas[i])
            grid = (_num(rng.uniform(-13.0, -12.8)), _num(rng.uniform(-5.0, -4.8)), 100)
        else:
            desc, sym = _step(_num(rng.uniform(0.2, 2.0)), _num(rng.uniform(0.1, 0.9)))
            grid = (_num(rng.uniform(-130.0, -120.0)), _num(rng.uniform(-12.0, -10.0)), 100)
        ops.append(
            {
                "argv": ["asymptotics", "--d", str(d), "--symbol", desc, "--model", model, "--lnlambda", _grid_arg(*grid)],
                "check": {"kind": "asymptotics", "d": d, "symbol": sym, "model": model, "grid": list(grid)},
            }
        )
    # Energies up to 1e5 reach ln lambda = -gamma ln E >= -11.5 * gamma: no wrong rows.
    for d, gamma in zip((2, 3, 2, 3), _strata(rng, 0.5, 3.0, 4)):
        desc, sym = _power(_num(rng.uniform(0.5, 2.0)), gamma)
        grid = (1000.0, _num(rng.uniform(5e4, 1e5)), 100)
        ops.append(
            {
                "argv": ["boundary", "--d", str(d), "--symbol", desc, "--E", _grid_arg(*grid)],
                "check": {"kind": "boundary-e", "d": d, "symbol": sym, "grid": list(grid)},
            }
        )
    # d = 3 only: there the remainder is a formula, so no Bessel work runs.
    for gamma in _strata(rng, 1.0, 3.0, 4):
        desc, sym = _power(_num(rng.uniform(0.5, 2.0)), gamma)
        grid = (_num(rng.uniform(-9.5, -8.5)), _num(rng.uniform(-2.5, -1.5)), 50)
        ops.append(
            {
                "argv": ["krein", "--d", "3", "--symbol", desc, "--lnlambda", _grid_arg(*grid)],
                "check": {"kind": "krein-lnlambda", "d": 3, "symbol": sym, "grid": list(grid)},
            }
        )
    return ops


# --- galerkin ------------------------------------------------------------------


def _bumps(rng: random.Random, d: int):
    """Sum of three Gaussian bumps off the centre: smooth, positive, not radial."""
    bumps = []
    for _ in range(3):
        c = np.array([rng.uniform(-0.6, 0.6) for _ in range(d)])
        bumps.append((rng.uniform(0.5, 2.0), c, rng.uniform(0.2, 0.5)))

    def V(points: np.ndarray) -> np.ndarray:
        out = np.zeros(points.shape[0])
        for amp, c, s in bumps:
            out += amp * np.exp(-np.sum((points - c) ** 2, axis=1) / (2.0 * s * s))
        return out

    return V


def _tabulate(tmp: Path, name: str, d: int, K: int, values: np.ndarray) -> str:
    path = tmp / f"{name}.json"
    payload = {"d": d, "K": K, "n_r": K + 16, "n_ang": 2 * K + 4, "values": values.tolist()}
    path.write_text(json.dumps(payload))
    return f"general:@{path}"


def galerkin(rng: random.Random, tmp: Path) -> list[dict]:
    ops = []
    # Assembly costs about K^4 flops in d=2 and K^7 in d=3, so the sizes are a
    # fixed ladder over d=2 K in [40, 120] and d=3 K in [12, 22]; the seed
    # draws the symbols and exponents.  d=3 K=22 sets the peak memory.

    def general_symbol(d: int, K: int) -> tuple[str, np.ndarray]:
        _, _, points, _ = tensor_grid(d, K)
        values = _bumps(rng, d)(points)
        return _tabulate(tmp, f"general{len(ops)}", d, K, values), values

    for d, K in ((2, 60), (2, 100), (3, 17), (3, 22)):
        desc, values = general_symbol(d, K)
        ops.append(
            {
                "argv": ["spectrum", "--d", str(d), "--symbol", desc],
                "check": {"kind": "spectrum-general", "symbol": "tabulated", "d": d, "K": K, "values": values},
            }
        )
    for d, K, weak in ((2, 40, False), (3, 14, True), (2, 80, True), (3, 20, False)):
        desc, values = general_symbol(d, K)
        p = _num(rng.uniform(1.2, 3.0))
        ops.append(
            {
                "argv": ["schatten", "--d", str(d), "--symbol", desc, "--p", _fmt(p)] + (["--weak"] if weak else []),
                "check": {"kind": "schatten-general", "symbol": "tabulated", "d": d, "K": K, "values": values, "p": p, "weak": weak},
            }
        )
    # Integer-gamma power profiles tabulated on the grid: the section is
    # exactly diagonal with the mu_k, so the exact values check it.
    for d, K, matrix in ((2, 120, False), (3, 12, False), (2, 30, True)):
        a, gamma = _num(rng.uniform(0.5, 2.0)), rng.randint(1, 3)
        _, _, points, _ = tensor_grid(d, K)
        values = a * (1.0 - np.linalg.norm(points, axis=1)) ** gamma
        desc = _tabulate(tmp, f"power{len(ops)}", d, K, values)
        argv = ["spectrum", "--d", str(d), "--symbol", desc]
        check = {"kind": "spectrum-general", "symbol": "power", "d": d, "K": K, "a": a, "gamma": gamma}
        if matrix:
            check["matrix"] = str(tmp / "section.csv")
            argv += ["--matrix-output", check["matrix"]]
        ops.append({"argv": argv, "check": check})
    # Berezin transform of a tabulated symbol (it raised TypeError when the
    # benchmark was added; it stays in the mix at its natural share).
    K = 50
    desc, values = general_symbol(2, K)
    radii = sorted(_num(rng.uniform(0.0, 0.9), 3) for _ in range(3))
    ops.append(
        {
            "argv": ["berezin", "--d", "2", "--symbol", desc, "--K", str(K), "--radii", ",".join(map(_fmt, radii))],
            "check": {"kind": "berezin-general", "d": 2, "K": K, "values": values, "radii": radii},
        }
    )
    return ops


WORKLOADS = {
    "radial-closed": radial_closed,
    "galerkin": galerkin,
}
