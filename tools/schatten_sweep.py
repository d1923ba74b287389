"""Run a seeded sweep of radial `schatten` commands and list their outcomes.

    python3 tools/schatten_sweep.py SEED N [--root CHECKOUT] [--against OTHER]

Draws N radial `schatten` invocations from SEED, strong and `--weak` alike
(about three in four weak): Power, Step, eight Sampled profiles and two-part
sums of them, d in {2, 3, 4, 5, 8, 12, 20, 40, 80, 150}, p from 1.05 to 6,
and `--K` from 0 to 2,000 on three draws in ten (else the default stop).
Each runs once through `harmotop.cli.main`, and the tool prints one line
per invocation: its index, exit code, the printed value or the refusal on
stderr, and its arguments.  The Sampled profiles are written to a temporary
directory, printed as `{tmp}`, so two checkouts give the same lines exactly
when their outcomes are the same.  --root picks the checkout whose
`src/harmotop` is run (default: the one holding this tool).  With --against
OTHER, the listing of OTHER is made by this tool in a subprocess (so the
two packages never share a process), and only the lines that differ are
printed, OTHER's as `- ...` and --root's as `+ ...`; the exit code is 1 on
any difference and 0 when the listings are equal.
"""
from __future__ import annotations

import argparse
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from op_digests import report, run  # noqa: E402

DIMENSIONS = (2, 3, 4, 5, 8, 12, 20, 40, 80, 150)
PROFILES = 8


def _write_profiles(rng: random.Random, tmp: Path) -> None:
    """Eight piecewise-linear profiles on 2-6 nodes in [0, 0.98]; half vanish at the last node."""
    for i in range(PROFILES):
        r = sorted(rng.sample(range(99), rng.randint(2, 6)))
        v = [round(rng.uniform(-1.0, 1.0), 3) for _ in r]
        if i % 2 == 0:
            v[-1] = 0.0
        (tmp / f"profile{i}.csv").write_text("".join(f"{x / 100!r},{y!r}\n" for x, y in zip(r, v)))


def _symbol(rng: random.Random, tmp: Path, parts: int = 3) -> str:
    """A Power, Step or Sampled descriptor, or (with `parts` 4) a two-part sum of them."""
    kind = rng.randrange(parts)
    if kind == 0:
        return f"power:a={round(rng.uniform(0.1, 3.0), 3)!r},gamma={round(rng.uniform(0.2, 4.0), 3)!r}"
    if kind == 1:
        return f"step:b={round(rng.uniform(-2.0, 2.0), 3)!r},c={round(rng.uniform(0.05, 0.95), 3)!r}"
    if kind == 2:
        return f"sampled:@{tmp}/profile{rng.randrange(PROFILES)}.csv"
    return f"sum:[{_symbol(rng, tmp)}; {_symbol(rng, tmp)}]"


def sweep_commands(seed: int, n: int, tmp: Path) -> list[list[str]]:
    """The N seeded `schatten` argument lists, after writing their profiles to `tmp`."""
    rng = random.Random(f"schatten-sweep:{seed}")
    _write_profiles(rng, tmp)
    commands = []
    for _ in range(n):
        argv = ["schatten", "--d", str(rng.choice(DIMENSIONS)), "--symbol", _symbol(rng, tmp, parts=4)]
        argv += ["--p", repr(round(rng.uniform(1.05, 6.0), 3))]
        if rng.random() < 0.3:
            argv += ["--K", str(rng.randint(0, 2000))]
        if rng.random() < 0.75:
            argv.append("--weak")
        commands.append(argv)
    return commands


def outcomes(seed: int, n: int, root: Path) -> list[str]:
    """One line per command: index, exit code, the value printed or the refusal, argv."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from harmotop import cli

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(sweep_commands(seed, n, Path(tmp))):
            rc, out, err = run(cli, argv)
            # the value column of the one row, or the last line of the refusal
            result = out.splitlines()[-1].split(",")[2] if rc == 0 else err.strip().splitlines()[-1]
            lines.append("  ".join([str(i), f"rc={rc}", result, " ".join(argv)]).replace(tmp, "{tmp}"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("n", type=int)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--against", type=Path, default=None, help="print only the lines that differ from this checkout's")
    args = ap.parse_args(argv)
    lines = outcomes(args.seed, args.n, args.root.resolve())
    return report(lines, __file__, [str(args.seed), str(args.n)], args.against)


if __name__ == "__main__":
    sys.exit(main())
